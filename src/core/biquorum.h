// Probabilistic ε-intersecting biquorum system (§2.2, §5): binds an
// advertise-side and a lookup-side access strategy — possibly different
// ones, with different quorum sizes (the asymmetric construction enabled
// by the Mix-and-Match Lemma 5.2) — and exposes generic quorum accesses.
// The LocationService in location_service.h is the paper's main client.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/access_strategy.h"
#include "core/quorum_spec.h"

namespace pqs::core {

// Outcome of b-masking value voting over a lookup's collected replies.
struct VoteOutcome {
    bool conclusive = false;  // some value got > b concurring replies
    Value winner = 0;
    std::size_t winner_votes = 0;
    std::size_t outvoted = 0;  // replies not concurring with the winner
    std::size_t distinct = 0;  // distinct values seen
};

// Tallies reply values; the winner needs strictly more than b votes to
// mask up to b forged replies (ties broken toward the smaller value so
// the outcome is deterministic regardless of reply order).
VoteOutcome vote_values(const std::vector<Value>& values, std::size_t b);

class BiquorumSystem {
public:
    // `membership` may be null only when neither side is RANDOM or
    // RANDOM-OPT; those strategies throw std::invalid_argument without it.
    // Quorum sizes left at 0 in `spec` are derived from spec.eps via
    // Corollary 5.3 for the world's node count.
    BiquorumSystem(net::World& world, BiquorumSpec spec,
                   membership::OracleMembership* membership = nullptr);
    ~BiquorumSystem();
    BiquorumSystem(const BiquorumSystem&) = delete;
    BiquorumSystem& operator=(const BiquorumSystem&) = delete;

    const BiquorumSpec& spec() const { return spec_; }
    ServiceContext& context() { return ctx_; }
    AccessStrategy& advertise_strategy() { return *advertise_; }
    AccessStrategy& lookup_strategy() { return *lookup_; }

    // Analytic intersection guarantee of the configured sizes (Lemma 5.2)
    // — meaningful when at least one side is RANDOM.
    double intersection_guarantee() const;

    // One advertise-quorum access (store key -> value at the quorum).
    // Honors context().retry: a failed access is re-issued after backoff,
    // and the final AccessResult reports the attempt count.
    void advertise(util::NodeId origin, util::Key key, Value value,
                   AccessCallback done);
    // One lookup-quorum access (same retry behavior). Non-empty `targets`
    // (svc/'s per-key quorum cache) aim the first attempt at exactly
    // those nodes, as AccessStrategy::access describes; retries ask fresh
    // random quorums.
    void lookup(util::NodeId origin, util::Key key, AccessCallback done,
                const std::vector<util::NodeId>& targets = {});

    LocalStore& store(util::NodeId id) { return ctx_.store(id); }

    // Installs handlers on a late-joining node (wired automatically via the
    // world's spawn listener).
    void attach_node(util::NodeId id);

private:
    // One access plus its (possible) retries. `attempt` is 1-based.
    // `first_issue` is when attempt 1 was issued: the final result's
    // latency spans from there, so retries and backoff delays count.
    // `targets` (see lookup()) aim this attempt only; retries pass none.
    void access_with_retry(AccessKind kind, util::NodeId origin,
                           util::Key key, Value value, obs::TraceId trace,
                           sim::Time first_issue, AccessCallback done,
                           int attempt,
                           const std::vector<util::NodeId>& targets = {});

    // b-masking post-processing of one lookup attempt (byzantine_b > 0):
    // keeps the result only if some value got > b concurring replies,
    // else marks it inconclusive (which the retry policy treats like any
    // other failed attempt).
    void apply_vote(AccessResult& r, util::NodeId origin,
                    obs::TraceId trace) const;

    BiquorumSpec spec_;
    ServiceContext ctx_;
    ReplyPathRouter router_;
    std::unique_ptr<AccessStrategy> advertise_;
    std::unique_ptr<AccessStrategy> lookup_;
    // Pending backoff timers, keyed by token so each callback retires its
    // own entry; cancelled in the destructor (no dangling [this] events).
    std::unordered_map<std::uint64_t, sim::EventId> retry_timers_;
    std::uint64_t next_retry_token_ = 0;
};

}  // namespace pqs::core
