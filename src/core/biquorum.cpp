#include "core/biquorum.h"

#include "net/node_stack.h"

namespace pqs::core {

namespace {
constexpr std::uint32_t kAdvertiseTag = 1;
constexpr std::uint32_t kLookupTag = 2;
}  // namespace

VoteOutcome vote_values(const std::vector<Value>& values, std::size_t b) {
    VoteOutcome outcome;
    std::unordered_map<Value, std::size_t> tally;
    for (const Value v : values) {
        ++tally[v];
    }
    outcome.distinct = tally.size();
    bool first = true;
    for (const auto& [value, votes] : tally) {
        // Order-independent winner: more votes wins, smaller value breaks
        // ties — the unordered iteration order never shows.
        if (first || votes > outcome.winner_votes ||
            (votes == outcome.winner_votes && value < outcome.winner)) {
            outcome.winner = value;
            outcome.winner_votes = votes;
            first = false;
        }
    }
    outcome.outvoted = values.size() - outcome.winner_votes;
    outcome.conclusive = outcome.winner_votes > b;
    return outcome;
}

void BiquorumSystem::apply_vote(AccessResult& r, util::NodeId origin,
                                obs::TraceId trace) const {
    if (!r.ok) {
        return;  // a miss/timeout stays a miss — nothing to vote on
    }
    const VoteOutcome vote = vote_values(r.values, spec_.byzantine_b);
    r.winner_votes = vote.winner_votes;
    if (vote.conclusive) {
        r.value = vote.winner;
        obs::record(trace, obs::EventKind::kVoteWin, origin,
                    vote.winner_votes, vote.outvoted);
        return;
    }
    r.ok = false;
    r.inconclusive = true;
    r.value.reset();
    obs::record(trace, obs::EventKind::kVoteInconclusive, origin,
                vote.distinct, r.values.size());
}

BiquorumSystem::BiquorumSystem(net::World& world, BiquorumSpec spec,
                               membership::OracleMembership* membership)
    : spec_(spec), ctx_(world), router_(world) {
    spec_.resolve_sizes(world.params().n);
    ctx_.membership = membership;
    ctx_.reply_router = &router_;

    advertise_ = make_strategy(ctx_, spec_.advertise, kAdvertiseTag);
    lookup_ = make_strategy(ctx_, spec_.lookup, kLookupTag);

    router_.set_deliver(
        [this](util::NodeId origin, const ReverseReplyMsg& msg) {
            if (msg.strategy_tag == kAdvertiseTag) {
                advertise_->on_reverse_reply(origin, msg);
            } else if (msg.strategy_tag == kLookupTag) {
                lookup_->on_reverse_reply(origin, msg);
            }
        });
    // §7.1 caching: reply relays keep bystander copies of mappings.
    router_.set_cache([this](util::NodeId at, util::Key key, Value value) {
        ctx_.cache_value(at, key, value);
    });

    for (util::NodeId id = 0; id < world.node_count(); ++id) {
        attach_node(id);
    }
    world.add_spawn_listener([this](util::NodeId id) { attach_node(id); });
}

BiquorumSystem::~BiquorumSystem() {
    for (const auto& [token, id] : retry_timers_) {
        ctx_.world.simulator().cancel(id);
    }
}

void BiquorumSystem::attach_node(util::NodeId id) {
    router_.attach_node(id);
    advertise_->attach_node(id);
    lookup_->attach_node(id);
    if (spec_.advertise.enroute_cache) {
        // §7.1: nodes that forward a routed advertise keep a bystander
        // copy. (Distinct from RANDOM-OPT, whose en-route nodes become
        // full quorum members.)
        ctx_.world.stack(id).add_snoop_handler(
            [this, id](const net::Packet& packet) {
                const auto req =
                    std::dynamic_pointer_cast<const QuorumRequestMsg>(
                        packet.data().app);
                if (req && req->strategy_tag == kAdvertiseTag &&
                    req->kind == AccessKind::kAdvertise) {
                    ctx_.cache_value(id, req->key, req->value);
                }
                return false;  // never consumes the packet
            });
    }
}

double BiquorumSystem::intersection_guarantee() const {
    return 1.0 - nonintersection_upper_bound(spec_.advertise.quorum_size,
                                             spec_.lookup.quorum_size,
                                             ctx_.world.params().n);
}

void BiquorumSystem::advertise(util::NodeId origin, util::Key key,
                               Value value, AccessCallback done) {
    ctx_.load.count_access();
    const obs::TraceId trace = obs::maybe_new_trace();
    obs::record(trace, obs::EventKind::kSpanBegin, origin,
                static_cast<std::uint64_t>(AccessKind::kAdvertise), key);
    access_with_retry(AccessKind::kAdvertise, origin, key, value, trace,
                      ctx_.world.simulator().now(), std::move(done), 1);
}

void BiquorumSystem::lookup(util::NodeId origin, util::Key key,
                            AccessCallback done,
                            const std::vector<util::NodeId>& targets) {
    ctx_.load.count_access();
    const obs::TraceId trace = obs::maybe_new_trace();
    obs::record(trace, obs::EventKind::kSpanBegin, origin,
                static_cast<std::uint64_t>(AccessKind::kLookup), key);
    access_with_retry(AccessKind::kLookup, origin, key, 0, trace,
                      ctx_.world.simulator().now(), std::move(done), 1,
                      targets);
}

namespace {

// Exponential backoff before attempt `attempt + 1`.
sim::Time retry_delay(const RetryPolicy& policy, int attempt) {
    double delay = static_cast<double>(policy.backoff);
    for (int i = 1; i < attempt; ++i) {
        delay *= policy.backoff_factor;
    }
    return static_cast<sim::Time>(delay);
}

// Everything a deferred retry needs, heap-shared so the scheduled closure
// stays within the simulator's inline-callback budget.
struct RetryState {
    AccessKind kind;
    util::NodeId origin;
    util::Key key;
    Value value;
    obs::TraceId trace;
    sim::Time first_issue;
    AccessCallback done;
    int attempt;
};

}  // namespace

void BiquorumSystem::access_with_retry(
    AccessKind kind, util::NodeId origin, util::Key key, Value value,
    obs::TraceId trace, sim::Time first_issue, AccessCallback done,
    int attempt, const std::vector<util::NodeId>& targets) {
    AccessStrategy& strategy =
        kind == AccessKind::kAdvertise ? *advertise_ : *lookup_;
    auto on_attempt =
        [this, kind, origin, key, value, trace, first_issue, attempt,
         done = std::move(done)](const AccessResult& raw) mutable {
            AccessResult r = raw;
            if (kind == AccessKind::kLookup && spec_.byzantine_b > 0) {
                // Vote before the retry decision: an inconclusive attempt
                // is retried like any other failure.
                apply_vote(r, origin, trace);
            }
            const RetryPolicy& policy = ctx_.retry;
            if (!r.ok && attempt < policy.max_attempts &&
                ctx_.world.alive(origin)) {
                const sim::Time delay = retry_delay(policy, attempt);
                obs::record(trace, obs::EventKind::kRetryScheduled, origin,
                            static_cast<std::uint64_t>(attempt),
                            static_cast<std::uint64_t>(delay));
                auto state = std::make_shared<RetryState>(
                    RetryState{kind, origin, key, value, trace,
                               first_issue, std::move(done), attempt});
                const std::uint64_t token = next_retry_token_++;
                retry_timers_[token] = ctx_.world.simulator().schedule_in(
                    delay, [this, token, state] {
                        retry_timers_.erase(token);
                        access_with_retry(
                            state->kind, state->origin, state->key,
                            state->value, state->trace, state->first_issue,
                            std::move(state->done), state->attempt + 1);
                    });
                return;
            }
            if (r.timed_out) {
                obs::record(trace, obs::EventKind::kOpTimeout, origin);
            }
            // Final resolution (timeouts included — their timer fired):
            // this access now counts in the L(S) denominator. Ops still
            // in flight at teardown never reach this point.
            ctx_.load.count_access_resolved();
            obs::record(trace, obs::EventKind::kSpanEnd, origin,
                        static_cast<std::uint64_t>(kind),
                        static_cast<std::uint64_t>(r.ok));
            if (done) {
                AccessResult final_result = r;
                final_result.attempts = attempt;
                final_result.trace = trace;
                // The per-attempt strategy stamped only its own latency;
                // report end to end from the first issue instead.
                final_result.latency =
                    ctx_.world.simulator().now() - first_issue;
                done(final_result);
            }
        };
    strategy.access(kind, origin, key, value, trace, targets,
                    std::move(on_attempt));
}

}  // namespace pqs::core
