#include "svc/kv_service.h"

#include <stdexcept>
#include <utility>

namespace pqs::svc {

KvService::KvService(core::LocationService& location, KvParams params)
    : loc_(location),
      params_(params),
      byzantine_b_(location.biquorum().spec().byzantine_b) {
    const core::BiquorumSpec& spec = loc_.biquorum().spec();
    if (!spec.lookup.collect_all_replies) {
        throw std::invalid_argument(
            "KvService: lookup side must collect_all_replies so reads see "
            "the highest version (and so responders are recorded)");
    }
    if (!spec.advertise.monotonic_store) {
        throw std::invalid_argument(
            "KvService: advertise side must use monotonic_store so an old "
            "write cannot clobber a newer one");
    }
}

void KvService::read(util::NodeId origin, util::Key key, ReadCallback done,
                     bool write_back) {
    std::vector<util::NodeId> targets;
    if (params_.cache_quorums) {
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            targets = it->second;  // copy: the access may outlive the entry
        }
    }
    const bool directed = !targets.empty();
    auto handler = [this, origin, key, directed, write_back,
                    done = std::move(done)](const core::AccessResult& r) {
        KvReadResult out;
        out.ok = r.ok;
        out.inconclusive = r.inconclusive;
        out.timed_out = r.timed_out;
        // Served by the cache only if the cached quorum answered cleanly:
        // attempts == 1 excludes random-retry recoveries, !timed_out
        // excludes "resolved with partial replies at op_timeout" — a
        // cached quorum whose dead members stalled the read for the full
        // timeout did not serve it, and should be evicted like a miss.
        out.from_cache =
            directed && r.ok && r.attempts == 1 && !r.timed_out;
        if (r.ok) {
            out.value = core::highest_versioned(r, byzantine_b_);
        }
        if (directed) {
            if (out.from_cache) {
                ++cache_hits_;
            } else {
                ++cache_misses_;
                evict(key);
            }
        }
        // A directed read of the holders asks |responders| nodes and gets
        // as many replies. A fresh lookup asks its whole quorum and gets a
        // reply from each member, a miss from one that lacks the key. So a
        // cold read whose every contacted member held the key is not
        // cached: aiming at them would cost no less, and would pin the
        // load on them.
        if (params_.cache_quorums && r.ok && !r.responders.empty() &&
            (directed || r.responders.size() < r.nodes_contacted)) {
            cache_[key] = r.responders;
        }
        if (!write_back || !r.ok) {
            if (done) done(out);
            return;
        }
        // ABD phase 2: propagate what we read so any later read
        // intersects a quorum that stores it.
        loc_.biquorum().advertise(origin, key, core::pack(out.value),
                                  [out, done](const core::AccessResult&) {
                                      if (done) done(out);
                                  });
    };
    loc_.biquorum().lookup(origin, key, std::move(handler), targets);
}

void KvService::write(util::NodeId origin, util::Key key, std::uint32_t data,
                      WriteCallback done) {
    // Phase 1: a version query of a full (undirected) lookup quorum.
    // Writes never use the cache — a missed base version is how a wrapped
    // counter clobbers data, so the write path always pays for a fresh
    // quorum.
    auto on_version =
        [this, origin, key, data,
         done = std::move(done)](const core::AccessResult& r) {
            KvWriteResult out;
            if (r.inconclusive) {
                // Masking failed: the version base cannot be trusted, and
                // writing highest_versioned()+1 could regress the key.
                out.inconclusive = true;
                if (done) done(out);
                return;
            }
            const core::Versioned base =
                core::highest_versioned(r, byzantine_b_);
            if (base.version == core::kMaxVersion) {
                // Version counter saturated: wrapping to 0 would pack
                // below every stored value, so the monotonic store would
                // drop the write on nodes holding the high version and
                // accept it on nodes that do not — a silent fork. Refuse.
                out.overflow = true;
                out.version = core::kMaxVersion;
                if (done) done(out);
                return;
            }
            const std::uint32_t next = base.version + 1;
            const core::Value packed =
                core::pack(core::Versioned{next, data});
            // Register with the location service (not via advertise(), so
            // no duplicate access) so QuorumRefresher keeps the key alive.
            loc_.record_published(origin, key, packed);
            // Phase 2: store the new version at an advertise quorum.
            loc_.biquorum().advertise(
                origin, key, packed,
                [next, done](const core::AccessResult& adv) {
                    KvWriteResult result;
                    result.ok = adv.ok;
                    result.timed_out = adv.timed_out;
                    result.version = next;
                    if (done) done(result);
                });
        };
    loc_.biquorum().lookup(origin, key, std::move(on_version));
}

void KvService::on_node_refreshed(util::NodeId node) {
    (void)node;
    // A refresh signals churn reached this node's advertise quorums; the
    // cached lookup quorums aged over the same churn, so drop them all.
    // Per-key precision is not worth tracking: re-resolving a key is one
    // cold lookup.
    cache_invalidations_ += cache_.size();
    cache_.clear();
}

void KvService::evict(util::Key key) {
    if (cache_.erase(key) > 0) {
        ++cache_invalidations_;
    }
}

}  // namespace pqs::svc
