// Heartbeat-based neighbor discovery (§2.3): every node broadcasts a hello
// each heartbeat cycle; entries expire after kExpiryCycles cycles without
// a hello. Under mobility the table is intentionally stale between beats —
// the paper's RW-salvation technique exists precisely to cope with that.
//
// One flat vector per node, kept sorted by id: the live degree is ~10, so
// a lookup is a binary search over a cache line or two, and neighbors()
// comes out in ascending id order whatever the hello arrival history.
// Calls must pass non-decreasing `now` (simulation time).
#pragma once

#include <algorithm>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace pqs::net {

class NeighborTable {
public:
    // Heartbeat cycles a neighbor stays fresh without a hello.
    static constexpr double kExpiryCycles = 2.5;

    explicit NeighborTable(sim::Time heartbeat)
        : expiry_(static_cast<sim::Time>(static_cast<double>(heartbeat) *
                                         kExpiryCycles)) {}

    void on_hello(util::NodeId from, sim::Time now) {
        auto it = find(entries_, from);
        if (it != entries_.end() && it->id == from) {
            it->heard = now;
            return;
        }
        if (entries_.size() == entries_.capacity()) {
            // Before growing, drop entries already expired at `now`. Time
            // only moves forward, so no reader can see them again (a later
            // hello re-inserts the node fresh): pruning is invisible, and
            // the table stays near the live degree under mobility/churn.
            std::erase_if(entries_, [this, now](const Entry& e) {
                return now - e.heard > expiry_;
            });
            it = find(entries_, from);
        }
        entries_.insert(it, Entry{from, now});
    }

    bool is_neighbor(util::NodeId id, sim::Time now) const {
        const auto it = find(entries_, id);
        return it != entries_.end() && it->id == id &&
               now - it->heard <= expiry_;
    }

    // Fresh neighbors at `now`, in ascending id order.
    std::vector<util::NodeId> neighbors(sim::Time now) const {
        std::vector<util::NodeId> out;
        out.reserve(entries_.size());
        for (const Entry& e : entries_) {
            if (now - e.heard <= expiry_) {
                out.push_back(e.id);
            }
        }
        return out;
    }

private:
    struct Entry {
        util::NodeId id;
        sim::Time heard;
    };

    // First entry whose id is not below `id` (const or mutable).
    template <class Entries>
    static auto find(Entries& entries, util::NodeId id)
        -> decltype(entries.begin()) {
        return std::partition_point(
            entries.begin(), entries.end(),
            [id](const Entry& e) { return e.id < id; });
    }

    sim::Time expiry_;
    std::vector<Entry> entries_;  // sorted by id
};

}  // namespace pqs::net
