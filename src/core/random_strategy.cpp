#include "core/random_strategy.h"

#include <algorithm>
#include <cmath>

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

// Sampling-mode walk: a maximum-degree random walk of fixed length whose
// terminal node becomes the quorum member (§4.1, direct sampling).
struct RandomStrategy::SamplingWalkMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    AccessKind kind = AccessKind::kLookup;
    util::Key key = 0;
    Value value = 0;
    std::size_t remaining = 0;
    std::vector<util::NodeId> path;  // hop sequence from the origin
    std::shared_ptr<IntersectionProbe> probe;
    ReplyOptions reply_options;

    std::size_t size_bytes() const override { return 512 + 4 * path.size(); }
};

RandomStrategy::RandomStrategy(ServiceContext& ctx, StrategyConfig config,
                               std::uint32_t tag, Mode mode)
    : AccessStrategy(ctx, config, tag),
      mode_(mode),
      ops_(ctx.world.simulator()),
      rng_(ctx.world.rng().fork()) {}

RandomStrategy::~RandomStrategy() {
    ops_.for_each_state([this](OpState& state) {
        if (state.grace_timer != sim::kInvalidEvent) {
            ctx_.world.simulator().cancel(state.grace_timer);
            state.grace_timer = sim::kInvalidEvent;
        }
    });
}

std::string RandomStrategy::name() const {
    return mode_ == Mode::kMembership ? "RANDOM" : "RANDOM(sampling)";
}

std::vector<util::NodeId> RandomStrategy::pick_targets(util::NodeId origin,
                                                       std::size_t k) {
    if (ctx_.membership != nullptr) {
        return ctx_.membership->sample(origin, k);
    }
    // Fallback for worlds without a membership service: sample ground truth
    // (used in unit tests; real setups always attach a service).
    const util::AliveSet& alive = ctx_.world.alive_set();
    const std::size_t take = std::min(k, alive.count());
    std::vector<util::NodeId> out;
    out.reserve(take);
    for (const std::size_t idx :
         rng_.sample_without_replacement(alive.count(), take)) {
        out.push_back(alive.select(idx));
    }
    return out;
}

void RandomStrategy::attach_node(util::NodeId id) {
    ctx_.world.stack(id).add_app_handler(
        [this, id](util::NodeId, util::NodeId, const net::AppMsgPtr& msg) {
            if (const auto req =
                    std::dynamic_pointer_cast<const QuorumRequestMsg>(msg);
                req && req->strategy_tag == tag_) {
                LocalStore& store = ctx_.store(id);
                ctx_.count_load(id);
                obs::record(req->trace, obs::EventKind::kQuorumMemberReached,
                            id);
                if (req->kind == AccessKind::kAdvertise) {
                    ctx_.store_value(id, req->key, req->value,
                                     config_.monotonic_store);
                    return true;
                }
                const std::optional<Value> found = store.find(req->key);
                if (found && req->probe) {
                    req->probe->intersected = true;
                }
                if ((found && req->want_reply) ||
                    (!found && req->want_miss_reply)) {
                    auto reply = std::make_shared<QuorumReplyMsg>();
                    reply->trace = req->trace;
                    reply->strategy_tag = tag_;
                    reply->op = req->op;
                    reply->key = req->key;
                    reply->found = found.has_value();
                    reply->value = found.value_or(0);
                    reply->responder = id;
                    ctx_.world.stack(id).send_routed(req->op.origin, reply,
                                                     nullptr);
                } else if (!found && req->want_reply) {
                    // An honest node stays silent on a miss; a Byzantine
                    // quorum member answers every query (the masking
                    // threat model). One pointer load when no tamper is
                    // installed — bit-identical to the pre-hook build.
                    net::ReplyTamper* tamper = ctx_.world.tamper();
                    Value lie = 0;
                    if (tamper != nullptr &&
                        tamper->on_lookup_miss(id, req->key, lie)) {
                        auto reply = std::make_shared<QuorumReplyMsg>();
                        reply->trace = req->trace;
                        reply->strategy_tag = tag_;
                        reply->op = req->op;
                        reply->key = req->key;
                        reply->found = true;
                        reply->value = lie;
                        reply->responder = id;
                        ctx_.world.stack(id).send_routed(req->op.origin,
                                                         reply, nullptr);
                    }
                }
                return true;
            }
            if (const auto reply =
                    std::dynamic_pointer_cast<const QuorumReplyMsg>(msg);
                reply && reply->strategy_tag == tag_) {
                auto entry = ops_.find(reply->op);
                if (!entry) {
                    return true;  // late reply for a resolved op
                }
                if (reply->found) {
                    if (config_.collect_all_replies) {
                        entry->state.collected.push_back(reply->value);
                        entry->state.responder_ids.push_back(
                            reply->responder);
                        maybe_finish(reply->op);
                    } else {
                        finish(reply->op, true, reply->value);
                    }
                } else if (entry->state.serial) {
                    send_to_target(reply->op, reply->op.origin,
                                   util::kInvalidNode);
                }
                return true;
            }
            if (const auto walk =
                    std::dynamic_pointer_cast<const SamplingWalkMsg>(msg);
                walk && walk->strategy_tag == tag_) {
                sampling_visit(id, walk);
                return true;
            }
            return false;
        });
}

void RandomStrategy::access(AccessKind kind, util::NodeId origin,
                            util::Key key, Value value, obs::TraceId trace,
                            AccessCallback done) {
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
    entry->state.serial = config_.serial && kind == AccessKind::kLookup;
    entry->state.replacements_left = kReplacementTargets;
    entry->state.trace = trace;

    if (mode_ == Mode::kSampling) {
        launch_sampling_walks(op, origin);
        return;
    }

    entry->state.targets = pick_targets(origin, config_.quorum_size);
    launch_targets(op, origin);
}

void RandomStrategy::access_directed(AccessKind kind, util::NodeId origin,
                                     util::Key key, Value value,
                                     const std::vector<util::NodeId>& targets,
                                     obs::TraceId trace, AccessCallback done) {
    if (mode_ == Mode::kSampling || targets.empty()) {
        // Walk terminals are not addressable; an empty hint means the
        // caller has nothing cached. Either way: a plain access.
        access(kind, origin, key, value, trace, std::move(done));
        return;
    }
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
    entry->state.serial = config_.serial && kind == AccessKind::kLookup;
    // No §6.2 replacements: a dead cached target must produce a visible
    // miss, not a silently healed quorum (the caller owns invalidation).
    entry->state.replacements_left = 0;
    entry->state.trace = trace;
    // Exactly the given targets, no random top-up: a directed access aims
    // at nodes *known* to hold the key (prior responders), so padding to
    // |Qℓ| would re-pay the random-quorum message cost the cache exists
    // to avoid — and would silently heal a dead cached set, hiding the
    // staleness the caller is responsible for evicting on.
    entry->state.targets = targets;
    if (entry->state.targets.size() > config_.quorum_size) {
        entry->state.targets.resize(config_.quorum_size);
    }
    launch_targets(op, origin);
}

void RandomStrategy::launch_targets(util::AccessId op, util::NodeId origin) {
    auto entry = ops_.find(op);
    if (!entry) {
        return;
    }
    entry->state.target_quorum = entry->state.targets.size();
    if (entry->state.targets.empty()) {
        finish(op, false, 0);
        return;
    }
    if (entry->state.serial) {
        send_to_target(op, origin, util::kInvalidNode);  // advances cursor
        return;
    }
    // Parallel access to the whole quorum. Iterate a copy: a send can
    // deliver locally and resolve the op synchronously, erasing the ops_
    // entry (and the vector inside it) mid-loop.
    const std::vector<util::NodeId> targets = entry->state.targets;
    for (const util::NodeId target : targets) {
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
    msg->want_reply = state.kind == AccessKind::kLookup;
    msg->want_miss_reply = state.serial;
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
        const auto replacement = pick_targets(origin, 1);
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
    // Parallel lookup: every request resolved; give hit replies a grace
    // window to arrive, then declare a miss.
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
    if (mode_ == Mode::kSampling) {
        result.nodes_contacted = state.walks_ended;
    }
    ops_.resolve(op, result);
}

void RandomStrategy::on_reverse_reply(util::NodeId /*origin*/,
                                      const ReverseReplyMsg& msg) {
    // Sampling-mode lookups reply along the walk's reverse path.
    if (ops_.find(msg.op)) {
        finish(msg.op, true, msg.value);
    }
}

// ---------------- sampling mode ----------------

void RandomStrategy::launch_sampling_walks(util::AccessId op,
                                           util::NodeId origin) {
    auto entry = ops_.find(op);
    const std::size_t n = ctx_.world.params().n;
    const std::size_t length = config_.sampling_walk_length != 0
                                   ? config_.sampling_walk_length
                                   : std::max<std::size_t>(1, n / 2);
    const std::size_t count = config_.quorum_size;
    entry->state.targets.resize(count);  // walk bookkeeping only
    for (std::size_t i = 0; i < count; ++i) {
        auto msg = std::make_shared<SamplingWalkMsg>();
        msg->trace = entry->state.trace;
        msg->strategy_tag = tag_;
        msg->op = op;
        msg->kind = entry->state.kind;
        msg->key = entry->state.key;
        msg->value = entry->state.value;
        msg->remaining = length;
        msg->probe = entry->state.probe;
        msg->reply_options = ReplyOptions{
            config_.reply_path_reduction, config_.reply_local_repair,
            config_.reply_repair_ttl, config_.reply_global_repair_fallback,
            config_.cache_replies};
        sampling_visit(origin, std::move(msg));
    }
}

void RandomStrategy::sampling_visit(
    util::NodeId at, std::shared_ptr<const SamplingWalkMsg> msg) {
    auto stamped = std::make_shared<SamplingWalkMsg>(*msg);
    if (stamped->path.empty() || stamped->path.back() != at) {
        stamped->path.push_back(at);
    }
    if (stamped->remaining == 0) {
        sampling_terminal(at, std::move(stamped));
        return;
    }
    sampling_forward(at, std::move(stamped), config_.salvage_retries);
}

void RandomStrategy::sampling_forward(
    util::NodeId at, std::shared_ptr<const SamplingWalkMsg> msg,
    int salvage_left) {
    // awake(), not alive(): an asleep node's radio cannot forward either —
    // the walk terminates where it stands, same as on a crashed node.
    if (!ctx_.world.awake(at)) {
        sampling_terminal(at, std::move(msg));  // walk dies where it stands
        return;
    }
    net::NodeStack& stack = ctx_.world.stack(at);
    const std::vector<util::NodeId> neighbors = stack.neighbors();
    if (neighbors.empty()) {
        sampling_terminal(at, std::move(msg));
        return;
    }
    // Maximum-degree transition: uniform neighbor w.p. deg/d_max, else a
    // (free) self-loop. d_max is estimated from the target density.
    const std::size_t d_max = std::max<std::size_t>(
        neighbors.size(),
        static_cast<std::size_t>(
            std::ceil(3.0 * ctx_.world.params().avg_degree)));
    const std::size_t slot = rng_.index(d_max);
    auto next = std::make_shared<SamplingWalkMsg>(*msg);
    next->remaining = msg->remaining - 1;
    if (slot >= neighbors.size()) {
        if (next->remaining == 0) {
            sampling_terminal(at, std::move(next));
            return;
        }
        // pqs-lint: fire-and-forget(walk continuation owns its message via
        // shared_ptr; sampling_visit re-validates liveness at the next hop)
        ctx_.world.simulator().schedule_in(
            1 * sim::kMillisecond,
            [this, at, next] { sampling_visit(at, next); });
        return;
    }
    const util::NodeId next_hop = neighbors[slot];
    stack.send_unicast(next_hop, next,
                       [this, at, msg, salvage_left](bool ok) {
                           if (ok || salvage_left <= 0) {
                               return;
                           }
                           // RW salvation (§6.2).
                           sampling_forward(at, msg, salvage_left - 1);
                       });
}

void RandomStrategy::sampling_terminal(
    util::NodeId at, std::shared_ptr<const SamplingWalkMsg> msg) {
    LocalStore& store = ctx_.store(at);
    ctx_.count_load(at);
    obs::record(msg->trace, obs::EventKind::kQuorumMemberReached, at);
    if (msg->kind == AccessKind::kAdvertise) {
        ctx_.store_value(at, msg->key, msg->value, /*monotonic=*/false);
    } else if (const std::optional<Value> found = store.find(msg->key)) {
        if (msg->probe) {
            msg->probe->intersected = true;
        }
        ctx_.reply_router->start_reply(at, tag_, msg->op, msg->key, *found,
                                       msg->path, msg->reply_options,
                                       std::make_shared<ReplyTracker>(),
                                       msg->trace);
    }
    auto entry = ops_.find(msg->op);
    if (!entry) {
        return;
    }
    OpState& state = entry->state;
    ++state.walks_ended;
    if (state.walks_ended < state.targets.size()) {
        return;
    }
    if (state.kind == AccessKind::kAdvertise) {
        finish(msg->op, true, 0);
    } else if (state.grace_timer == sim::kInvalidEvent) {
        state.grace_timer = ctx_.world.simulator().schedule_in(
            kReplyGrace, [this, op = msg->op] {
                if (auto e = ops_.find(op)) {
                    e->state.grace_timer = sim::kInvalidEvent;
                }
                finish(op, false, 0);
            });
    }
}

}  // namespace pqs::core
