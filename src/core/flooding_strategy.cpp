#include "core/flooding_strategy.h"

#include <algorithm>

#include "net/node_stack.h"

namespace pqs::core {

namespace {
constexpr sim::Time kBroadcastJitter = 10 * sim::kMillisecond;
}

struct FloodingStrategy::FloodMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    int round_ttl = 0;  // TTL the round started with (identifies the round)
    int ttl = 0;        // remaining hops
    AccessKind kind = AccessKind::kLookup;
    util::Key key = 0;
    Value value = 0;
    util::NodeId origin = util::kInvalidNode;
    double join_probability = 1.0;  // advertise floods: P(store)
    std::shared_ptr<FloodTracker> tracker;
    std::shared_ptr<IntersectionProbe> probe;

    std::size_t size_bytes() const override { return 512; }
};

struct FloodingStrategy::FloodReplyMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    int round_ttl = 0;
    util::Key key = 0;
    Value value = 0;

    std::size_t size_bytes() const override { return 64; }
};

FloodingStrategy::FloodingStrategy(ServiceContext& ctx, StrategyConfig config,
                                   std::uint32_t tag)
    : AccessStrategy(ctx, config, tag),
      ops_(ctx.world.simulator()),
      rng_(ctx.world.rng().fork()) {}

sim::Time FloodingStrategy::settle_time(int ttl) const {
    // Per-ring rebroadcast jitter plus airtime, then reply time back.
    return (2 * ttl + 2) * (kBroadcastJitter + 15 * sim::kMillisecond) +
           500 * sim::kMillisecond;
}

void FloodingStrategy::attach_node(util::NodeId id) {
    if (parents_.size() <= id) {
        parents_.resize(id + 1);
    }
    ctx_.world.stack(id).add_app_handler(
        [this, id](util::NodeId prev, util::NodeId, const net::AppMsgPtr& msg) {
            if (const auto flood =
                    std::dynamic_pointer_cast<const FloodMsg>(msg);
                flood && flood->strategy_tag == tag_) {
                handle_flood(id, prev, flood);
                return true;
            }
            if (const auto reply =
                    std::dynamic_pointer_cast<const FloodReplyMsg>(msg);
                reply && reply->strategy_tag == tag_) {
                const RoundKey round{reply->op, reply->round_ttl};
                if (reply->op.origin == id) {
                    // Reached the flood's originator.
                    auto entry = ops_.find(reply->op);
                    if (entry) {
                        AccessResult result;
                        result.ok = true;
                        result.intersected = true;
                        result.value = reply->value;
                        result.nodes_contacted =
                            entry->state.tracker->covered;
                        ops_.resolve(reply->op, result);
                    }
                    return true;
                }
                // Relay along the recorded parent chain.
                const auto it = parents_[id].find(round);
                if (it != parents_[id].end()) {
                    ctx_.world.stack(id).send_unicast(it->second, msg,
                                                      nullptr);
                }
                return true;
            }
            return false;
        });
}

void FloodingStrategy::handle_flood(util::NodeId id, util::NodeId prev,
                                    std::shared_ptr<const FloodMsg> msg) {
    if (parents_.size() <= id) {
        parents_.resize(id + 1);
    }
    const RoundKey round{msg->op, msg->round_ttl};
    if (!parents_[id].emplace(round, prev).second) {
        return;  // duplicate copy of this flood round
    }
    ++msg->tracker->covered;
    ctx_.count_load(id);
    obs::record(msg->trace, obs::EventKind::kQuorumMemberReached, id,
                msg->tracker->covered);

    LocalStore& store = ctx_.store(id);
    if (msg->kind == AccessKind::kAdvertise) {
        if (msg->join_probability >= 1.0 ||
            rng_.bernoulli(msg->join_probability)) {
            ctx_.store_value(id, msg->key, msg->value,
                             config_.monotonic_store);
            ++msg->tracker->joined;
        }
    } else if (const std::optional<Value> found = store.find(msg->key)) {
        msg->tracker->hit = true;
        if (msg->probe) {
            msg->probe->intersected = true;
        }
        send_reply_chain(id, *msg, *found);
        // Flooding has no early halting (§4.4): the flood keeps expanding.
    }

    if (msg->ttl <= 1) {
        return;
    }
    auto fwd = std::make_shared<FloodMsg>(*msg);
    fwd->ttl = msg->ttl - 1;
    // Jitter the rebroadcast to desynchronize neighbors (§4.4).
    const sim::Time jitter = static_cast<sim::Time>(
        rng_.uniform_u64(static_cast<std::uint64_t>(kBroadcastJitter) + 1));
    // pqs-lint: fire-and-forget(strategy lives in the World-owned service
    // for the whole run; the body re-checks alive(id) before touching it)
    ctx_.world.simulator().schedule_in(jitter, [this, id, fwd] {
        if (ctx_.world.alive(id)) {
            ctx_.world.stack(id).send_broadcast(fwd);
        }
    });
}

void FloodingStrategy::send_reply_chain(util::NodeId id, const FloodMsg& msg,
                                        Value value) {
    auto reply = std::make_shared<FloodReplyMsg>();
    reply->trace = msg.trace;
    reply->strategy_tag = tag_;
    reply->op = msg.op;
    reply->round_ttl = msg.round_ttl;
    reply->key = msg.key;
    reply->value = value;
    const RoundKey round{msg.op, msg.round_ttl};
    const auto it = parents_[id].find(round);
    if (it == parents_[id].end()) {
        return;
    }
    if (it->second == id) {
        // We are the originator (hit in the local store).
        auto entry = ops_.find(msg.op);
        if (entry) {
            AccessResult result;
            result.ok = true;
            result.intersected = true;
            result.value = value;
            result.nodes_contacted = entry->state.tracker->covered;
            ops_.resolve(msg.op, result);
        }
        return;
    }
    ctx_.world.stack(id).send_unicast(it->second, reply, nullptr);
}

void FloodingStrategy::access(AccessKind kind, util::NodeId origin,
                              util::Key key, Value value,
                              obs::TraceId trace,
                              const std::vector<util::NodeId>& /*targets*/,
                              AccessCallback done) {
    const util::AccessId op = next_op(origin);
    auto tracker = std::make_shared<FloodTracker>();
    auto entry = ops_.open(op, std::move(done), ctx_.op_timeout,
                            [tracker](AccessResult& r) {
                                r.intersected = tracker->hit;
                                r.nodes_contacted = tracker->covered;
                            });
    entry->state.kind = kind;
    entry->state.key = key;
    entry->state.value = value;
    entry->state.tracker = std::move(tracker);
    entry->state.trace = trace;

    const int first_ttl = (config_.expanding_ring &&
                           kind == AccessKind::kLookup)
                              ? 1
                              : config_.flood_ttl;
    launch_round(op, origin, first_ttl);
}

void FloodingStrategy::launch_round(util::AccessId op, util::NodeId origin,
                                    int ttl) {
    auto entry = ops_.find(op);
    if (!entry || !ctx_.world.alive(origin)) {
        return;
    }
    OpState& state = entry->state;
    state.round_ttl = ttl;

    auto msg = std::make_shared<FloodMsg>();
    msg->trace = state.trace;
    msg->strategy_tag = tag_;
    msg->op = op;
    msg->round_ttl = ttl;
    // The originator "receives" its own flood below, which decrements the
    // TTL once before the first transmission; +1 keeps the usual TTL
    // semantics where a TTL-k flood covers nodes up to k hops away.
    msg->ttl = ttl + 1;
    msg->kind = state.kind;
    msg->key = state.key;
    msg->value = state.value;
    msg->origin = origin;
    msg->tracker = state.tracker;
    if (state.kind == AccessKind::kAdvertise && config_.quorum_size > 0) {
        // Whole-network advertise floods: each node joins w.p. |Q|/n (§4.4).
        const double n = static_cast<double>(
            std::max<std::size_t>(1, ctx_.world.alive_count()));
        msg->join_probability =
            std::min(1.0, static_cast<double>(config_.quorum_size) / n);
    }

    // The originator covers itself, then floods.
    if (parents_.size() <= origin) {
        parents_.resize(origin + 1);
    }
    handle_flood(origin, origin, msg);

    // Forget this round's parent pointers once replies can no longer be in
    // flight (bounds per-node state across long runs).
    // pqs-lint: fire-and-forget(GC sweep over this strategy's own maps;
    // the strategy is World-service-owned and outlives the event queue)
    ctx_.world.simulator().schedule_in(
        settle_time(ttl) + 10 * sim::kSecond, [this, op, ttl] {
            const RoundKey round{op, ttl};
            for (auto& per_node : parents_) {
                per_node.erase(round);
            }
        });

    // Round completion: resolve advertises; for lookups either escalate the
    // ring or declare a miss if no reply arrived.
    // pqs-lint: fire-and-forget(round-completion check; a resolved or
    // erased op makes the body a no-op via the ops_.find miss)
    ctx_.world.simulator().schedule_in(settle_time(ttl), [this, op, origin] {
        auto e = ops_.find(op);
        if (!e) {
            return;  // already resolved by a reply
        }
        OpState& s = e->state;
        if (s.kind == AccessKind::kAdvertise) {
            AccessResult result;
            result.ok = s.tracker->joined > 0;
            result.nodes_contacted = s.tracker->joined;
            ops_.resolve(op, result);
            return;
        }
        if (config_.expanding_ring && s.round_ttl < config_.flood_ttl) {
            launch_round(op, origin, s.round_ttl + 1);
            return;
        }
        AccessResult result;
        result.ok = false;
        result.intersected = s.tracker->hit;
        result.nodes_contacted = s.tracker->covered;
        ops_.resolve(op, result);
    });
}

}  // namespace pqs::core
