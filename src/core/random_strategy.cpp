#include "core/random_strategy.h"

#include <stdexcept>

#include "net/node_stack.h"
#include "net/tamper.h"

namespace pqs::core {

namespace {
constexpr sim::Time kReplyGrace = 3 * sim::kSecond;
// When a routed request fails (broken route, dead target), adapt by
// contacting a replacement random node instead (§6.2 "application
// adaptation"), up to this many times per access.
constexpr int kReplacementTargets = 3;
}

RandomStrategy::RandomStrategy(ServiceContext& ctx, StrategyConfig config,
                               std::uint32_t tag)
    : AccessStrategy(ctx, config, tag), ops_(ctx.world.simulator()) {
    if (ctx.membership == nullptr) {
        throw std::invalid_argument(strategy_name(config.kind) +
                                    " needs a membership service");
    }
    // A serial lookup stops asking at its first hit, so it could never
    // collect every member's value (byzantine_b > 0 forces collection).
    if (config.serial && config.collect_all_replies) {
        throw std::invalid_argument(
            strategy_name(config.kind) +
            ": serial lookups cannot collect all replies");
    }
    // Unused fork: dropping it would shift every later world-RNG fork.
    ctx.world.rng().fork();
}

RandomStrategy::~RandomStrategy() {
    ops_.for_each_state([this](OpState& state) {
        if (state.grace_timer != sim::kInvalidEvent) {
            ctx_.world.simulator().cancel(state.grace_timer);
            state.grace_timer = sim::kInvalidEvent;
        }
    });
}

void RandomStrategy::attach_node(util::NodeId id) {
    net::NodeStack& stack = ctx_.world.stack(id);
    stack.add_app_handler(
        [this, id](util::NodeId, util::NodeId, const net::AppMsgPtr& msg) {
            if (const auto req =
                    std::dynamic_pointer_cast<const QuorumRequestMsg>(msg);
                req && req->strategy_tag == tag_) {
                on_request(id, *req);
                return true;
            }
            if (const auto reply =
                    std::dynamic_pointer_cast<const QuorumReplyMsg>(msg);
                reply && reply->strategy_tag == tag_) {
                auto entry = ops_.find(reply->op);
                if (!entry) {
                    return true;  // late reply for a resolved op
                }
                OpState& state = entry->state;
                if (reply->found && !config_.collect_all_replies) {
                    finish(reply->op, true, reply->value);
                } else if (!reply->found && state.serial) {
                    send_to_target(reply->op, reply->op.origin,
                                   util::kInvalidNode);
                } else if (!state.answered(reply->responder)) {
                    if (reply->found) {
                        state.collected.push_back(reply->value);
                        state.responder_ids.push_back(reply->responder);
                    } else {
                        // A miss the lookup asked for: the member's answer,
                        // with no value, vote or responder.
                        state.missed.push_back(reply->responder);
                    }
                    maybe_finish(reply->op);
                }
                return true;
            }
            return false;
        });
    if (config_.kind == StrategyKind::kRandomOpt) {
        // The cross-layer hook: inspect data packets this node merely
        // forwards.
        stack.add_snoop_handler([this, id](const net::Packet& packet) {
            const auto req = std::dynamic_pointer_cast<const QuorumRequestMsg>(
                packet.data().app);
            return req && req->strategy_tag == tag_ && on_relay(id, *req);
        });
    }
}

std::optional<Value> RandomStrategy::serve(util::NodeId id,
                                           const QuorumRequestMsg& req) {
    ctx_.count_load(id);
    obs::record(req.trace, obs::EventKind::kQuorumMemberReached, id);
    if (req.kind == AccessKind::kAdvertise) {
        ctx_.store_value(id, req.key, req.value, config_.monotonic_store);
        return std::nullopt;
    }
    const std::optional<Value> found = ctx_.store(id).find(req.key);
    if (found && req.probe) {
        req.probe->intersected = true;
    }
    return found;
}

void RandomStrategy::on_request(util::NodeId id,
                                const QuorumRequestMsg& req) {
    const std::optional<Value> found = serve(id, req);
    if (req.kind == AccessKind::kAdvertise) {
        return;
    }
    if (found) {
        send_reply(id, req, true, *found);
        return;
    }
    // A miss. A Byzantine quorum member answers every query (the masking
    // threat model), so its tamper goes first, whether or not the lookup
    // asked for misses. An honest node answers a miss only when asked to
    // (serial and collect-all lookups) and otherwise stays silent.
    // One pointer load when no tamper is installed — bit-identical to the
    // pre-hook build.
    net::ReplyTamper* tamper = ctx_.world.tamper();
    Value lie = 0;
    if (tamper != nullptr && tamper->on_lookup_miss(id, req.key, lie)) {
        send_reply(id, req, true, lie);
    } else if (req.want_miss_reply) {
        send_reply(id, req, false, 0);
    }
}

bool RandomStrategy::on_relay(util::NodeId id, const QuorumRequestMsg& req) {
    // Every traversed node joins the advertise quorum, and a traversed
    // holder answers a lookup (§4.5).
    const std::optional<Value> found = serve(id, req);
    if (!found) {
        return false;  // forward the request on
    }
    send_reply(id, req, true, *found);
    // The request stops here; from the origin's perspective the send
    // resolved (it reached a quorum member).
    obs::record(req.trace, obs::EventKind::kEarlyHalt, id);
    on_target_resolved(req.op, req.op.origin, true);
    return true;
}

void RandomStrategy::send_reply(util::NodeId from,
                                const QuorumRequestMsg& req, bool found,
                                Value value) {
    auto reply = std::make_shared<QuorumReplyMsg>();
    reply->trace = req.trace;
    reply->strategy_tag = tag_;
    reply->op = req.op;
    reply->key = req.key;
    reply->found = found;
    reply->value = value;
    reply->responder = from;
    ctx_.world.stack(from).send_routed(req.op.origin, reply, nullptr);
}

void RandomStrategy::access(AccessKind kind, util::NodeId origin,
                            util::Key key, Value value, obs::TraceId trace,
                            const std::vector<util::NodeId>& targets,
                            AccessCallback done) {
    std::vector<util::NodeId> quorum;
    int replacements = 0;
    if (targets.empty()) {
        quorum = ctx_.membership->sample(origin, config_.quorum_size);
        // RANDOM-OPT runs without replacements, as Fig. 9 is measured.
        replacements = config_.kind == StrategyKind::kRandomOpt
                           ? 0
                           : kReplacementTargets;
    } else {
        // Exactly the given targets, no random top-up and no §6.2
        // replacements: a directed access aims at nodes known to hold the
        // key (prior responders). Padding or healing would re-pay the
        // random-quorum cost the cache exists to avoid, and hide a dead
        // cached target the caller must see miss to evict it.
        quorum.assign(targets.begin(),
                      targets.begin() +
                          std::min(targets.size(), config_.quorum_size));
    }
    const util::AccessId op = next_op(origin);
    auto probe = std::make_shared<IntersectionProbe>();
    auto entry = ops_.open(op, std::move(done), ctx_.op_timeout,
                           [probe](AccessResult& r) {
                               r.intersected = probe->intersected;
                           });
    OpState& state = entry->state;
    state.kind = kind;
    state.key = key;
    state.value = value;
    state.probe = std::move(probe);
    state.serial = config_.serial && kind == AccessKind::kLookup;
    state.replacements_left = replacements;
    state.trace = trace;
    state.targets = std::move(quorum);
    state.target_quorum = state.targets.size();
    if (state.targets.empty()) {
        finish(op, false, 0);
        return;
    }
    if (state.serial) {
        send_to_target(op, origin, util::kInvalidNode);  // advances cursor
        return;
    }
    // Parallel access to the whole quorum. Iterate a copy: a send can
    // deliver locally and resolve the op synchronously, erasing the ops_
    // entry (and the vector inside it) mid-loop.
    const std::vector<util::NodeId> sends = state.targets;
    for (const util::NodeId target : sends) {
        send_to_target(op, origin, target);
    }
    if (auto e = ops_.find(op)) {
        e->state.all_sent = true;
        maybe_finish(op);
    }
}

void RandomStrategy::send_to_target(util::AccessId op, util::NodeId origin,
                                    util::NodeId target) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    OpState& state = entry->state;
    if (target == util::kInvalidNode) {
        // Serial mode: take the next unvisited target.
        if (state.next_target >= state.targets.size()) {
            finish(op, false, 0);  // quorum exhausted without a hit
            return;
        }
        target = state.targets[state.next_target++];
        state.all_sent = state.next_target == state.targets.size();
    }
    auto msg = std::make_shared<QuorumRequestMsg>();
    msg->trace = state.trace;
    msg->strategy_tag = tag_;
    msg->op = op;
    msg->kind = state.kind;
    msg->key = state.key;
    msg->value = state.value;
    msg->origin = origin;
    msg->want_miss_reply = state.serial || config_.collect_all_replies;
    msg->probe = state.probe;
    ++state.outstanding;
    ctx_.world.stack(origin).send_routed(
        target, msg,
        [this, op, origin](bool delivered) {
            on_target_resolved(op, origin, delivered);
        });
}

void RandomStrategy::on_target_resolved(util::AccessId op,
                                        util::NodeId origin, bool delivered) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    OpState& state = entry->state;
    if (state.outstanding > 0) {
        --state.outstanding;
    }
    if (delivered) {
        ++state.delivered;
    } else if (state.serial) {
        // Unreachable target: adapt by moving on (§6.2, application
        // adaptation) instead of retrying the same node.
        send_to_target(op, origin, util::kInvalidNode);
        return;
    } else if (state.replacements_left > 0) {
        // Parallel mode: replace the unreachable target with a fresh
        // random node (§6.2) — resending to the same one would fail again.
        --state.replacements_left;
        const auto replacement = ctx_.membership->sample(origin, 1);
        if (!replacement.empty()) {
            state.targets.push_back(replacement.front());
            send_to_target(op, origin, replacement.front());
            return;
        }
    }
    maybe_finish(op);
}

void RandomStrategy::maybe_finish(util::AccessId op) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    OpState& state = entry->state;
    if (!state.all_sent || state.outstanding > 0) {
        return;
    }
    if (state.kind == AccessKind::kAdvertise) {
        finish(op, state.delivered >= state.target_quorum, 0);
        return;
    }
    if (state.serial) {
        return;  // serial lookups conclude via replies
    }
    // Parallel lookup, every request resolved. Once a distinct member has
    // answered each delivered request, no further answer can come: end
    // with the replies in hand (a miss if every answer was one). Otherwise
    // wait kReplyGrace for answers still in flight, then end with what
    // came (a miss if no value did); each answer inside the window runs
    // this test again.
    const std::size_t answers =
        state.responder_ids.size() + state.missed.size();
    if (answers > 0 && answers >= state.delivered) {
        finish(op, false, 0);
        return;
    }
    if (state.grace_timer == sim::kInvalidEvent) {
        state.grace_timer = ctx_.world.simulator().schedule_in(
            kReplyGrace, [this, op] {
                if (auto e = ops_.find(op)) {
                    e->state.grace_timer = sim::kInvalidEvent;
                    ++ctx_.world.counters().reply_grace_expiries;
                }
                finish(op, false, 0);
            });
    }
}

void RandomStrategy::finish(util::AccessId op, bool hit, Value value) {
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
    if (state.kind == AccessKind::kAdvertise) {
        result.ok = hit;  // "hit" carries full-coverage for advertises
        result.nodes_contacted = state.delivered;
    } else {
        result.ok = hit || !state.collected.empty();
        result.intersected =
            result.ok || (state.probe && state.probe->intersected);
        result.values = state.collected;
        result.responders = state.responder_ids;
        if (hit) {
            result.value = value;
        } else if (!state.collected.empty()) {
            result.value = state.collected.front();
        }
        result.nodes_contacted =
            state.serial ? state.next_target : state.delivered;
    }
    ops_.resolve(op, result);
}

}  // namespace pqs::core
