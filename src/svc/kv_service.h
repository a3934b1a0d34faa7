// Service layer over the probabilistic biquorum: a versioned key-value
// store, and the implementation of the paper's read/write register (§2.5
// strict semantics, §10). Each key is a classic two-phase quorum register
// (Attiya-Bar-Noy-Dolev style) on top of probabilistic quorums, which
// yields *probabilistic linearizability* — every operation behaves
// atomically with probability >= the quorum intersection guarantee.
//
//  write(v):  phase 1 — a version query of a lookup quorum; phase 2 —
//             store (version+1, v) at an advertise quorum. The write is
//             refused, not issued, when phase 1 finds no trustworthy
//             version base (b-masking) or a saturated version counter
//             (register.h kMaxVersion).
//  read():    phase 1 — query a lookup quorum and take the highest
//             version; phase 2 (optional write-back) — re-advertise that
//             value so later reads cannot see an older one.
//
// Reads also keep a per-key lookup-quorum cache: a successful collected
// lookup remembers which concrete nodes replied and aims the next read at
// them directly (sound by Mix-and-Match Lemma 5.2 — the ε guarantee only
// needs the *advertise* side random, so any fixed lookup set still
// ε-intersects every fresh advertise quorum). The cache goes stale when
// members die, so QuorumRefresher re-advertises (the churn signal) and
// directed misses evict it.
//
// Requirements on the biquorum spec (checked at construction):
//  - the lookup side collects all replies (collect_all_replies), so reads
//    see the highest version present in the quorum, responders are
//    recorded, and every member answers (one that lacks the key with a
//    miss): each lookup ends at its last member's answer, not at the
//    reply grace (core/random_strategy.h);
//  - the advertise side stores monotonically (monotonic_store), so an old
//    write can never clobber a newer one at a shared quorum member.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/location_service.h"
#include "core/register.h"

namespace pqs::svc {

struct KvReadResult {
    bool ok = false;
    bool inconclusive = false;  // b-masking: no value got > b votes
    bool timed_out = false;
    // The read was served by the per-key cached quorum (first attempt,
    // directed). False for cold reads and for cached reads that missed.
    bool from_cache = false;
    core::Versioned value;
};

struct KvWriteResult {
    bool ok = false;
    bool overflow = false;      // version counter saturated; refused
    bool inconclusive = false;  // phase 1 found no trustworthy base
    bool timed_out = false;     // the phase-2 advertise hit op_timeout
    std::uint32_t version = 0;  // on ok: the version stored
};

struct KvParams {
    // Remember responders of successful reads and aim later reads at
    // them directly. A cold read is remembered only when some member it
    // contacted lacked the key: otherwise a directed read saves nothing.
    bool cache_quorums = true;
};

class KvService {
public:
    // Throws std::invalid_argument if the spec lacks collect_all_replies /
    // monotonic_store (see above).
    KvService(core::LocationService& location, KvParams params = {});

    using ReadCallback = std::function<void(const KvReadResult&)>;
    using WriteCallback = std::function<void(const KvWriteResult&)>;

    // `write_back` re-advertises the value read (the ABD second phase);
    // costs one advertise access but makes reads atomic, not just regular.
    void read(util::NodeId origin, util::Key key, ReadCallback done,
              bool write_back = false);
    void write(util::NodeId origin, util::Key key, std::uint32_t data,
               WriteCallback done);

    // Churn-signal hook: pass to QuorumRefresher::set_on_refresh. A
    // refresh of `node` means churn made its advertisements under-
    // replicated — cached lookup quorums are suspect for the same reason,
    // so evict every key this service has cached.
    void on_node_refreshed(util::NodeId node);

    core::BiquorumSystem& biquorum() { return loc_.biquorum(); }

    // The cached lookup quorum for `key`; empty when nothing is cached.
    std::vector<util::NodeId> cached_quorum(util::Key key) const {
        const auto it = cache_.find(key);
        return it != cache_.end() ? it->second
                                  : std::vector<util::NodeId>{};
    }
    std::uint64_t cache_hits() const { return cache_hits_; }
    std::uint64_t cache_misses() const { return cache_misses_; }
    std::uint64_t cache_invalidations() const { return cache_invalidations_; }

private:
    void evict(util::Key key);

    core::LocationService& loc_;
    KvParams params_;
    std::size_t byzantine_b_;

    std::unordered_map<util::Key, std::vector<util::NodeId>> cache_;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t cache_misses_ = 0;
    std::uint64_t cache_invalidations_ = 0;
};

}  // namespace pqs::svc
