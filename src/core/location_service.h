// The paper's driving application (§1, §10): a data location service /
// distributed dictionary built on a probabilistic biquorum system.
// Publishing stores a key->value mapping at an advertise quorum; lookups
// query a lookup quorum; the ε-intersection guarantee makes published data
// findable with probability >= 1-ε. Keeps a per-node registry of published
// keys so maintenance can refresh them (§6.1).
#pragma once

#include <unordered_map>

#include "core/biquorum.h"

namespace pqs::core {

class LocationService {
public:
    LocationService(net::World& world, BiquorumSpec spec,
                    membership::OracleMembership* membership = nullptr);

    BiquorumSystem& biquorum() { return biquorum_; }
    net::World& world() { return world_; }

    // Publishes key -> value from `origin` (an advertise-quorum access).
    void advertise(util::NodeId origin, util::Key key, Value value,
                   AccessCallback done = nullptr);

    // Queries the mapping for `key` from `origin` (a lookup-quorum access).
    void lookup(util::NodeId origin, util::Key key, AccessCallback done);

    // Re-advertises everything `origin` has published (§6.1: probabilistic
    // quorums need no reconfiguration after churn — only a refresh).
    void refresh(util::NodeId origin, AccessCallback per_key_done = nullptr);

    // Registers key -> value in `origin`'s published set WITHOUT issuing
    // an advertise access. For clients that advertise through biquorum()
    // directly (the svc/ key-value path stores packed versioned values via
    // the register protocol) but still want QuorumRefresher to keep their
    // keys alive under churn. The stored value is whatever the caller last
    // recorded; with a monotonic advertise side, refreshing a superseded
    // value is harmless.
    void record_published(util::NodeId origin, util::Key key, Value value);

    // Keys `node` has published (its own advertisements, not stored data).
    const std::unordered_map<util::Key, Value>& published(
        util::NodeId node) const;

    LocalStore& store(util::NodeId id) { return biquorum_.store(id); }

private:
    net::World& world_;
    BiquorumSystem biquorum_;
    std::vector<std::unordered_map<util::Key, Value>> published_;
    std::unordered_map<util::Key, Value> empty_;
};

}  // namespace pqs::core
