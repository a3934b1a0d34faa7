#include "core/random_opt_strategy.h"

#include <stdexcept>

#include "net/node_stack.h"

namespace pqs::core {

namespace {
constexpr sim::Time kReplyGrace = 3 * sim::kSecond;
}

RandomOptStrategy::RandomOptStrategy(ServiceContext& ctx,
                                     StrategyConfig config, std::uint32_t tag)
    : AccessStrategy(ctx, config, tag), ops_(ctx.world.simulator()) {
    if (ctx.membership == nullptr) {
        throw std::invalid_argument("RANDOM-OPT needs a membership service");
    }
    // Unused fork: dropping it would shift every later world-RNG fork.
    ctx.world.rng().fork();
}

RandomOptStrategy::~RandomOptStrategy() {
    ops_.for_each_state([this](OpState& state) {
        if (state.grace_timer != sim::kInvalidEvent) {
            ctx_.world.simulator().cancel(state.grace_timer);
            state.grace_timer = sim::kInvalidEvent;
        }
    });
}

bool RandomOptStrategy::act_on_request(util::NodeId id,
                                       const QuorumRequestMsg& req) {
    LocalStore& store = ctx_.store(id);
    ctx_.count_load(id);
    obs::record(req.trace, obs::EventKind::kQuorumMemberReached, id);
    if (req.kind == AccessKind::kAdvertise) {
        // Every traversed node joins the advertise quorum (§4.5).
        ctx_.store_value(id, req.key, req.value, config_.monotonic_store);
        return false;
    }
    const std::optional<Value> found = store.find(req.key);
    if (!found) {
        return false;
    }
    if (req.probe) {
        req.probe->intersected = true;
    }
    auto reply = std::make_shared<QuorumReplyMsg>();
    reply->trace = req.trace;
    reply->strategy_tag = tag_;
    reply->op = req.op;
    reply->key = req.key;
    reply->found = true;
    reply->value = *found;
    reply->responder = id;
    ctx_.world.stack(id).send_routed(req.origin, reply, nullptr);
    return true;
}

void RandomOptStrategy::attach_node(util::NodeId id) {
    net::NodeStack& stack = ctx_.world.stack(id);
    stack.add_app_handler(
        [this, id](util::NodeId, util::NodeId, const net::AppMsgPtr& msg) {
            if (const auto req =
                    std::dynamic_pointer_cast<const QuorumRequestMsg>(msg);
                req && req->strategy_tag == tag_) {
                act_on_request(id, *req);
                return true;
            }
            if (const auto reply =
                    std::dynamic_pointer_cast<const QuorumReplyMsg>(msg);
                reply && reply->strategy_tag == tag_) {
                if (reply->found) {
                    finish(reply->op, true, reply->value);
                }
                return true;
            }
            return false;
        });
    // The cross-layer hook: inspect data packets this node merely forwards.
    stack.add_snoop_handler([this, id](const net::Packet& packet) {
        const auto req = std::dynamic_pointer_cast<const QuorumRequestMsg>(
            packet.data().app);
        if (!req || req->strategy_tag != tag_) {
            return false;
        }
        const bool absorbed = act_on_request(id, *req);
        if (absorbed) {
            // The request stops here; from the origin's perspective the
            // send resolved (it reached a quorum member).
            obs::record(req->trace, obs::EventKind::kEarlyHalt, id);
            on_target_resolved(req->op, true);
        }
        return absorbed;
    });
}

void RandomOptStrategy::access(AccessKind kind, util::NodeId origin,
                               util::Key key, Value value,
                               obs::TraceId trace, AccessCallback done) {
    const util::AccessId op = next_op(origin);
    auto probe = std::make_shared<IntersectionProbe>();
    auto entry = ops_.open(op, std::move(done), ctx_.op_timeout,
                            [probe](AccessResult& r) {
                                r.intersected = probe->intersected;
                            });
    entry->state.kind = kind;
    entry->state.key = key;
    entry->state.value = value;
    entry->state.probe = std::move(probe);
    entry->state.trace = trace;

    const std::vector<util::NodeId> targets =
        ctx_.membership->sample(origin, config_.quorum_size);
    if (targets.empty()) {
        finish(op, false, 0);
        return;
    }
    // Fill in every counter before the first send: send_routed can deliver
    // locally and complete the op synchronously (reply -> finish -> resolve),
    // which erases the ops_ entry and would invalidate `entry` mid-loop.
    entry->state.targets = targets.size();
    entry->state.outstanding = targets.size();
    entry->state.all_sent = true;
    const std::shared_ptr<IntersectionProbe> op_probe = entry->state.probe;
    for (const util::NodeId target : targets) {
        auto msg = std::make_shared<QuorumRequestMsg>();
        msg->trace = trace;
        msg->strategy_tag = tag_;
        msg->op = op;
        msg->kind = kind;
        msg->key = key;
        msg->value = value;
        msg->origin = origin;
        msg->want_reply = kind == AccessKind::kLookup;
        msg->probe = op_probe;
        ctx_.world.stack(origin).send_routed(
            target, msg,
            [this, op](bool delivered) { on_target_resolved(op, delivered); });
    }
}

void RandomOptStrategy::on_target_resolved(util::AccessId op,
                                           bool delivered) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    if (entry->state.outstanding > 0) {
        --entry->state.outstanding;
    }
    if (delivered) {
        ++entry->state.delivered;
    }
    maybe_finish(op);
}

void RandomOptStrategy::maybe_finish(util::AccessId op) {
    auto entry = ops_.find(op);
    if (!entry || !entry->state.all_sent ||
        entry->state.outstanding > 0) {
        return;
    }
    OpState& state = entry->state;
    if (state.kind == AccessKind::kAdvertise) {
        finish(op, state.delivered == state.targets, 0);
        return;
    }
    if (state.grace_timer == sim::kInvalidEvent) {
        state.grace_timer = ctx_.world.simulator().schedule_in(
            kReplyGrace, [this, op] {
                if (auto e = ops_.find(op)) {
                    e->state.grace_timer = sim::kInvalidEvent;
                }
                finish(op, false, 0);
            });
    }
}

void RandomOptStrategy::finish(util::AccessId op, bool hit, Value value) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    OpState& state = entry->state;
    // A hit reply can beat the armed grace timer; the pending event holds
    // `this`, so it must not survive the op (or the strategy).
    if (state.grace_timer != sim::kInvalidEvent) {
        ctx_.world.simulator().cancel(state.grace_timer);
        state.grace_timer = sim::kInvalidEvent;
    }
    AccessResult result;
    result.ok = hit;
    result.intersected = hit || (state.probe && state.probe->intersected);
    if (hit && state.kind == AccessKind::kLookup) {
        result.value = value;
    }
    result.nodes_contacted = state.delivered;
    ops_.resolve(op, result);
}

}  // namespace pqs::core
