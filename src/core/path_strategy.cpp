#include "core/path_strategy.h"

#include <algorithm>

#include "net/node_stack.h"

namespace pqs::core {

struct PathStrategy::WalkMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    AccessKind kind = AccessKind::kLookup;
    util::Key key = 0;
    Value value = 0;
    std::size_t target_unique = 0;
    bool early_halt = true;
    bool replied = false;  // a reply was already sent for this lookup
    // Distinct nodes in first-visit order (also the paper's header list
    // used to count coverage), and the full hop path for the reply.
    std::vector<util::NodeId> visited;
    std::vector<util::NodeId> path;
    std::shared_ptr<WalkTracker> tracker;
    std::shared_ptr<ReplyTracker> reply_tracker;
    ReplyOptions reply_options;

    // 512-byte payload plus the visited-list header (§4.2).
    std::size_t size_bytes() const override {
        return 512 + 4 * visited.size();
    }
};

PathStrategy::PathStrategy(ServiceContext& ctx, StrategyConfig config,
                           std::uint32_t tag, bool unique)
    : AccessStrategy(ctx, config, tag),
      unique_(unique),
      ops_(ctx.world.simulator()),
      rng_(ctx.world.rng().fork()) {}

void PathStrategy::attach_node(util::NodeId id) {
    net::NodeStack& stack = ctx_.world.stack(id);
    stack.add_app_handler(
        [this, id](util::NodeId, util::NodeId, const net::AppMsgPtr& msg) {
            const auto walk = std::dynamic_pointer_cast<const WalkMsg>(msg);
            if (!walk || walk->strategy_tag != tag_) {
                return false;
            }
            visit(id, walk);
            return true;
        });
    if (config_.overhearing) {
        // §7.2: a promiscuous neighbor holding the item answers the walk it
        // overheard and stops it at its next hop.
        stack.add_overhear_handler([this, id](const net::Packet& packet) {
            if (!packet.is_data()) {
                return;
            }
            const auto walk =
                std::dynamic_pointer_cast<const WalkMsg>(packet.data().app);
            if (!walk || walk->strategy_tag != tag_ ||
                walk->kind != AccessKind::kLookup || walk->replied ||
                walk->tracker->halted) {
                return;
            }
            const std::optional<Value> found = ctx_.store(id).find(walk->key);
            if (!found) {
                return;
            }
            walk->tracker->hit = true;
            walk->tracker->halted = true;
            obs::record(walk->trace, obs::EventKind::kEarlyHalt, id,
                        walk->visited.size());
            std::vector<util::NodeId> path = walk->path;
            path.push_back(id);
            ctx_.reply_router->start_reply(id, tag_, walk->op, walk->key,
                                           *found, path, walk->reply_options,
                                           walk->reply_tracker, walk->trace);
        });
    }
}

void PathStrategy::access(AccessKind kind, util::NodeId origin,
                          util::Key key, Value value, obs::TraceId trace,
                          const std::vector<util::NodeId>& /*targets*/,
                          AccessCallback done) {
    const util::AccessId op = next_op(origin);
    auto tracker = std::make_shared<WalkTracker>();
    auto reply_tracker = std::make_shared<ReplyTracker>();
    auto entry =
        ops_.open(op, std::move(done), ctx_.op_timeout,
                  [tracker, reply_tracker](AccessResult& r) {
                      r.intersected = tracker->hit;
                      r.nodes_contacted = tracker->unique;
                  });
    entry->state.kind = kind;
    entry->state.key = key;
    entry->state.tracker = tracker;
    entry->state.reply_tracker = reply_tracker;

    auto msg = std::make_shared<WalkMsg>();
    msg->trace = trace;
    msg->strategy_tag = tag_;
    msg->op = op;
    msg->kind = kind;
    msg->key = key;
    msg->value = value;
    msg->target_unique = std::max<std::size_t>(1, config_.quorum_size);
    msg->early_halt = config_.early_halt && kind == AccessKind::kLookup;
    msg->tracker = tracker;
    msg->reply_tracker = reply_tracker;
    msg->reply_options = ReplyOptions{
        config_.reply_path_reduction, config_.reply_local_repair,
        config_.reply_repair_ttl, config_.reply_global_repair_fallback,
        config_.cache_replies};

    // The walk terminal event resolves advertises (full coverage) and
    // lookup misses; lookup hits resolve when the reply message arrives.
    // Captured weakly: the tracker owning a closure that owns the tracker
    // is a shared_ptr cycle, and a walk still in flight at simulation end
    // never fires terminal() to break it.
    tracker->on_terminal = [this, op,
                            weak = std::weak_ptr<WalkTracker>(tracker)] {
        const auto walk = weak.lock();
        if (!walk) {
            return;
        }
        auto e = ops_.find(op);
        if (!e) {
            return;
        }
        if (e->state.kind == AccessKind::kAdvertise) {
            AccessResult result;
            result.ok = walk->covered;
            result.nodes_contacted = walk->unique;
            ops_.resolve(op, result);
            return;
        }
        if (!walk->hit) {
            // The walk ended without touching an advertiser: definite miss.
            AccessResult result;
            result.ok = false;
            result.nodes_contacted = walk->unique;
            ops_.resolve(op, result);
        }
        // Otherwise wait for the reverse-path reply (or the op timeout if
        // the reply is lost — exactly the Fig. 13 failure mode).
    };

    // The originator is the walk's first member (§8.3).
    visit(origin, std::move(msg));
}

void PathStrategy::visit(util::NodeId at,
                         std::shared_ptr<const WalkMsg> msg) {
    if (msg->tracker->halted) {
        // An overhearing neighbor already answered (§7.2).
        msg->tracker->terminal();
        return;
    }
    auto m = std::make_shared<WalkMsg>(*msg);
    if (std::find(m->visited.begin(), m->visited.end(), at) ==
        m->visited.end()) {
        m->visited.push_back(at);
        m->tracker->unique = m->visited.size();
        ctx_.count_load(at);  // this node serves as a quorum member
        obs::record(m->trace, obs::EventKind::kQuorumMemberReached, at,
                    m->visited.size());
    }
    if (m->path.empty() || m->path.back() != at) {
        m->path.push_back(at);
    }

    LocalStore& store = ctx_.store(at);
    if (m->kind == AccessKind::kAdvertise) {
        ctx_.store_value(at, m->key, m->value, config_.monotonic_store);
    } else if (!m->replied) {
        if (const std::optional<Value> found = store.find(m->key)) {
            m->tracker->hit = true;
            m->replied = true;
            ctx_.reply_router->start_reply(at, tag_, m->op, m->key, *found,
                                           m->path, m->reply_options,
                                           m->reply_tracker, m->trace);
            if (m->early_halt) {
                obs::record(m->trace, obs::EventKind::kEarlyHalt, at,
                            m->visited.size());
                m->tracker->terminal();
                return;
            }
        }
    }

    if (m->visited.size() >= m->target_unique) {
        m->tracker->covered = true;
        m->tracker->terminal();
        return;
    }
    forward(at, std::move(m), config_.salvage_retries, {});
}

void PathStrategy::forward(util::NodeId at,
                           std::shared_ptr<const WalkMsg> msg,
                           int salvage_left,
                           std::vector<util::NodeId> excluded_hops) {
    // awake(), not alive(): a walk stranded on a node whose radio went to
    // sleep cannot take another hop — without this the forward below fails
    // silently and the tracker never reaches terminal(), hanging the op
    // until its timeout instead of accounting the death.
    if (!ctx_.world.awake(at)) {
        obs::record(msg->trace, obs::EventKind::kWalkDied, at);
        msg->tracker->died = true;
        msg->tracker->terminal();
        return;
    }
    net::NodeStack& stack = ctx_.world.stack(at);
    std::vector<util::NodeId> neighbors = stack.neighbors();
    // Never bounce back through hops that just failed (salvation).
    std::erase_if(neighbors, [&](util::NodeId v) {
        return std::find(excluded_hops.begin(), excluded_hops.end(), v) !=
               excluded_hops.end();
    });
    util::NodeId next = util::kInvalidNode;
    if (unique_) {
        // Self-avoiding step: prefer unvisited neighbors (§4.3).
        std::vector<util::NodeId> fresh;
        for (const util::NodeId v : neighbors) {
            if (std::find(msg->visited.begin(), msg->visited.end(), v) ==
                msg->visited.end()) {
                fresh.push_back(v);
            }
        }
        if (!fresh.empty()) {
            next = fresh[rng_.index(fresh.size())];
        }
    }
    if (next == util::kInvalidNode) {
        if (neighbors.empty()) {
            obs::record(msg->trace, obs::EventKind::kWalkDied, at);
            msg->tracker->died = true;
            msg->tracker->terminal();
            return;
        }
        next = neighbors[rng_.index(neighbors.size())];
    }

    ++msg->tracker->steps;
    stack.send_unicast(
        next, msg,
        [this, at, msg, salvage_left, next,
         excluded = std::move(excluded_hops)](bool ok) mutable {
            if (ok) {
                return;
            }
            if (salvage_left <= 0) {
                obs::record(msg->trace, obs::EventKind::kWalkDied, at);
                msg->tracker->died = true;
                msg->tracker->terminal();
                return;
            }
            // RW salvation (§6.2): same step, different neighbor.
            obs::record(msg->trace, obs::EventKind::kSalvation, at,
                        static_cast<std::uint64_t>(salvage_left));
            excluded.push_back(next);
            forward(at, msg, salvage_left - 1, std::move(excluded));
        });
}

void PathStrategy::on_reverse_reply(util::NodeId /*origin*/,
                                    const ReverseReplyMsg& msg) {
    auto entry = ops_.find(msg.op);
    if (!entry) {
        return;  // duplicate or post-timeout reply
    }
    AccessResult result;
    result.ok = true;
    result.intersected = true;
    result.value = msg.value;
    result.nodes_contacted = entry->state.tracker->unique;
    ops_.resolve(msg.op, result);
}

}  // namespace pqs::core
