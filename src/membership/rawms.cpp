#include "membership/rawms.h"

#include <cmath>

#include "geom/random_walk.h"
#include "util/logging.h"

namespace pqs::membership {

struct RawmsMembership::WalkMsg final : net::AppMessage {
    util::NodeId origin = util::kInvalidNode;
    std::size_t remaining = 0;

    std::size_t size_bytes() const override { return 32; }
};

RawmsMembership::RawmsMembership(net::World& world, RawmsParams params)
    : world_(world), params_(params), rng_(world.rng().fork()) {
    const std::size_t n = world.params().n;
    if (params_.view_size == 0) {
        params_.view_size = default_view_size(n);
    }
    if (params_.walk_length == 0) {
        params_.walk_length = std::max<std::size_t>(1, n / 2);
    }
    if (params_.max_degree_estimate == 0) {
        params_.max_degree_estimate = static_cast<std::size_t>(
            std::ceil(3.0 * world.params().avg_degree));
    }
    views_.resize(world.node_count());
}

void RawmsMembership::start() {
    if (params_.prefill) {
        prefill_views();
    }
    world_.alive_set().for_each([this](util::NodeId id) {
        world_.stack(id).add_app_handler(
            [this, id](util::NodeId, util::NodeId,
                       const net::AppMsgPtr& msg) {
                const auto* walk = dynamic_cast<const WalkMsg*>(msg.get());
                if (walk == nullptr) {
                    return false;
                }
                if (walk->remaining == 0) {
                    deposit(id, walk->origin);
                } else {
                    forward(id, std::static_pointer_cast<const WalkMsg>(msg),
                            params_.salvage_retries);
                }
                return true;
            });
        schedule_next_launch(id);
    });
}

void RawmsMembership::schedule_next_launch(util::NodeId origin) {
    // Jittered periodic launches.
    const auto period = static_cast<std::uint64_t>(params_.advertise_period);
    const sim::Time delay = static_cast<sim::Time>(
        period / 2 + rng_.uniform_u64(period));
    // pqs-lint: fire-and-forget(membership service is World-owned for the
    // whole run; the body re-checks alive(origin) before launching)
    world_.simulator().schedule_in(delay, [this, origin] {
        if (world_.alive(origin)) {
            // Launch only while the radio is on: a walk from a sleeping
            // node dies on its first hop. Either way keep the launch chain
            // alive — asleep is not crashed, and the node resumes
            // refreshing its view after it wakes.
            if (world_.awake(origin)) {
                launch_walk(origin);
            }
            schedule_next_launch(origin);
        }
    });
}

void RawmsMembership::launch_walk(util::NodeId origin) {
    auto msg = std::make_shared<WalkMsg>();
    msg->origin = origin;
    msg->remaining = params_.walk_length;
    forward(origin, msg, params_.salvage_retries);
}

void RawmsMembership::forward(util::NodeId at,
                              std::shared_ptr<const WalkMsg> msg,
                              int salvage_left) {
    if (!world_.awake(at)) {  // dead or radio-off: the walk ends here
        return;
    }
    net::NodeStack& stack = world_.stack(at);
    const std::vector<util::NodeId> neighbors = stack.neighbors();
    if (neighbors.empty()) {
        return;  // isolated: the walk dies
    }
    // Maximum-degree transition rule: move to a uniform neighbor w.p.
    // deg/d_max, otherwise self-loop. Self-loops consume a step for free.
    const std::size_t d_max =
        std::max(params_.max_degree_estimate, neighbors.size());
    const std::size_t slot = rng_.index(d_max);
    if (slot >= neighbors.size()) {
        auto next = std::make_shared<WalkMsg>(*msg);
        next->remaining = msg->remaining - 1;
        if (next->remaining == 0) {
            deposit(at, next->origin);
            return;
        }
        // Re-examine locally after a short beat (no transmission).
        // pqs-lint: fire-and-forget(salvage retry owns its message via
        // shared_ptr; forward() re-validates node liveness on entry)
        world_.simulator().schedule_in(1 * sim::kMillisecond, [this, at, next] {
            forward(at, next, params_.salvage_retries);
        });
        return;
    }
    const util::NodeId next_hop = neighbors[slot];
    auto next = std::make_shared<WalkMsg>(*msg);
    next->remaining = msg->remaining - 1;
    ++world_.counters().membership_msgs;
    stack.send_unicast(
        next_hop, next, [this, at, msg, salvage_left](bool ok) {
            if (ok || salvage_left <= 0) {
                return;
            }
            // RW salvation (§6.2): the chosen neighbor is gone; retry the
            // same step through another neighbor.
            forward(at, msg, salvage_left - 1);
        });
}

void RawmsMembership::deposit(util::NodeId at, util::NodeId origin) {
    if (at >= views_.size()) {
        views_.resize(at + 1);
    }
    View& view = views_[at];
    if (view.members.contains(origin)) {
        return;
    }
    view.order.push_back(origin);
    view.members.insert(origin);
    while (view.order.size() > params_.view_size) {
        view.members.erase(view.order.front());
        view.order.pop_front();
    }
}

void RawmsMembership::prefill_views() {
    const geom::Graph graph = world_.snapshot_graph();
    const std::vector<util::NodeId> alive = world_.alive_nodes();
    const double total_steps = static_cast<double>(alive.size()) *
                               static_cast<double>(params_.view_size) *
                               static_cast<double>(params_.walk_length);
    const bool cheap = total_steps > 5e6;
    if (cheap) {
        PQS_INFO("rawms: prefill via uniform deposits ("
                 << total_steps << " walk steps would be too slow)");
    }
    for (const util::NodeId origin : alive) {
        for (std::size_t i = 0; i < params_.view_size; ++i) {
            util::NodeId terminal;
            if (cheap) {
                terminal = alive[rng_.index(alive.size())];
            } else {
                terminal = geom::md_walk_sample(graph, origin,
                                                params_.walk_length, rng_);
            }
            deposit(terminal, origin);
        }
    }
}

std::vector<util::NodeId> RawmsMembership::sample(util::NodeId node,
                                                  std::size_t k) {
    if (node >= views_.size()) {
        return {};
    }
    const View& view = views_[node];
    const std::size_t take = std::min(k, view.order.size());
    std::vector<util::NodeId> out;
    out.reserve(take);
    for (const std::size_t idx :
         rng_.sample_without_replacement(view.order.size(), take)) {
        out.push_back(view.order[idx]);
    }
    return out;
}

std::size_t RawmsMembership::view_size(util::NodeId node) const {
    return node < views_.size() ? views_[node].order.size() : 0;
}

double RawmsMembership::protocol_messages() const {
    return static_cast<double>(world_.counters().membership_msgs);
}

}  // namespace pqs::membership
