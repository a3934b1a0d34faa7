#include "net/aodv.h"

#include <algorithm>

#include "net/node_stack.h"
#include "net/world.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/search.h"

namespace pqs::net {

namespace {
std::uint64_t rreq_key(util::NodeId origin, std::uint32_t rreq_id) {
    return (static_cast<std::uint64_t>(origin) << 32) | rreq_id;
}

// Sequence-number comparison (no wraparound handling; runs are short).
bool seq_newer(util::SeqNum a, util::SeqNum b) { return a > b; }

// First route whose dst is not below `dst` (const or mutable table).
template <class Routes>
auto lower_bound_dst(Routes& routes, util::NodeId dst) {
    return routes.begin() +
           static_cast<std::ptrdiff_t>(util::branchless_lower_bound(
               routes.data(), routes.size(), dst,
               [](const auto& route) { return route.dst; }));
}

template <class Routes>
auto find_dst(Routes& routes, util::NodeId dst) -> decltype(routes.data()) {
    const auto it = lower_bound_dst(routes, dst);
    return it != routes.end() && it->dst == dst ? &*it : nullptr;
}
}  // namespace

Aodv::Aodv(NodeStack& stack, AodvParams params)
    : stack_(stack), params_(params) {}

Aodv::Route* Aodv::find_route(util::NodeId dst) {
    return find_dst(routes_, dst);
}

const Aodv::Route* Aodv::find_route(util::NodeId dst) const {
    return find_dst(routes_, dst);
}

std::vector<Aodv::Discovery>::iterator Aodv::find_pending(util::NodeId dst) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [dst](const Discovery& d) { return d.dst == dst; });
}

Aodv::Discovery Aodv::take_pending(std::vector<Discovery>::iterator it) {
    Discovery d = std::move(*it);
    pending_.erase(it);
    if (d.timer != sim::kInvalidEvent) {
        stack_.world().simulator().cancel(d.timer);
    }
    return d;
}

bool Aodv::route_usable(const Route& route) const {
    return route.valid && route.expiry > stack_.world().simulator().now();
}

void Aodv::touch_route(Route& route) {
    // Active routes stay alive (RFC 3561 ACTIVE_ROUTE_TIMEOUT semantics):
    // every use pushes the expiry out.
    route.expiry = stack_.world().simulator().now() + params_.route_lifetime;
}

bool Aodv::has_valid_route(util::NodeId dst) const {
    const Route* route = find_route(dst);
    return route != nullptr && route_usable(*route);
}

std::uint16_t Aodv::route_hops(util::NodeId dst) const {
    const Route* route = find_route(dst);
    return route != nullptr && route_usable(*route) ? route->hops : 0;
}

Aodv::Route* Aodv::install_route(util::NodeId dst, util::NodeId next_hop,
                                 std::uint16_t hops, util::SeqNum seq,
                                 bool seq_known, sim::Time lifetime) {
    if (dst == stack_.id()) {
        return nullptr;
    }
    auto it = lower_bound_dst(routes_, dst);
    if (it == routes_.end() || it->dst != dst) {
        it = routes_.insert(it, Route{.dst = dst});
    }
    Route& route = *it;
    // Prefer fresher sequence numbers; among equal freshness prefer fewer
    // hops; always replace an invalid route.
    const bool replace = !route_usable(route) ||
                         (seq_known && !route.seq_known) ||
                         (seq_known && route.seq_known &&
                          seq_newer(seq, route.seq)) ||
                         (seq_known == route.seq_known && seq == route.seq &&
                          hops < route.hops);
    if (!replace) {
        return &route;
    }
    route.next_hop = next_hop;
    route.hops = hops;
    route.seq = seq;
    route.seq_known = seq_known;
    route.valid = true;
    route.expiry = stack_.world().simulator().now() + lifetime;
    return &route;
}

void Aodv::send_data(util::NodeId dst, AppMsgPtr msg,
                     std::shared_ptr<DeliveryTracker> tracker,
                     int max_discovery_ttl, std::uint8_t repairs) {
    if (has_valid_route(dst)) {
        transmit_data(dst, std::move(msg), std::move(tracker), repairs);
        return;
    }
    QueuedData queued{std::move(msg), std::move(tracker), repairs};
    if (const auto it = find_pending(dst); it != pending_.end()) {
        it->queue.push_back(std::move(queued));
        return;
    }
    const obs::TraceId trace = queued.msg ? queued.msg->trace : 0;
    Discovery& d = pending_.emplace_back();
    d.dst = dst;
    d.max_ttl = max_discovery_ttl;
    d.retries_left = max_discovery_ttl >= 0 ? 0 : params_.rreq_retries;
    d.ttl = max_discovery_ttl >= 0
                ? std::min(params_.ttl_start, max_discovery_ttl)
                : params_.ttl_start;
    d.queue.push_back(std::move(queued));
    obs::record(trace, obs::EventKind::kRouteDiscovery, stack_.id(), dst);
    broadcast_rreq(dst, d.ttl);
}

void Aodv::transmit_data(util::NodeId dst, AppMsgPtr msg,
                         std::shared_ptr<DeliveryTracker> tracker,
                         std::uint8_t repairs) {
    Route* route = find_route(dst);
    if (route == nullptr || !route_usable(*route)) {
        obs::record(msg ? msg->trace : 0, obs::EventKind::kPacketDrop,
                    stack_.id(), dst);
        if (tracker) {
            tracker->resolve(false);
        }
        return;
    }
    touch_route(*route);
    const util::NodeId next_hop = route->next_hop;
    auto packet = stack_.world().new_packet();
    packet->link_src = stack_.id();
    packet->link_dst = next_hop;
    packet->trace = msg ? msg->trace : 0;
    packet->body = DataBody{stack_.id(), dst, std::move(msg), tracker,
                            repairs};
    PacketPtr p = packet;
    stack_.link_unicast(p, [this, dst, next_hop, p](bool ok) {
        if (ok) {
            return;
        }
        // Cross-layer notification: the hop is gone. Invalidate every
        // route through it and tell the neighborhood (§6.2).
        handle_broken_link(next_hop);
        const DataBody& data = p->data();
        if (data.repairs_left > 0) {
            // Rediscover and retry (RFC 3561 §6.12 repair at the source).
            send_data(dst, data.app, data.tracker, -1,
                      static_cast<std::uint8_t>(data.repairs_left - 1));
            return;
        }
        obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(),
                    next_hop);
        if (data.tracker) {
            data.tracker->resolve(false);
        }
    });
}

void Aodv::forward_data(PacketPtr p) {
    const DataBody& data = p->data();
    const util::NodeId dst = data.net_dst;
    if (p->ttl <= 1) {
        ++stack_.world().counters().ttl_expired_drops;
        obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(), dst);
        if (data.tracker) {
            data.tracker->resolve(false);
        }
        return;
    }
    Route* route = find_route(dst);
    if (route == nullptr || !route_usable(*route)) {
        if (route != nullptr && route->valid) {
            ++stack_.world().counters().expired_route_forwards;
        }
        // No route at an intermediate node: warn the neighborhood, then
        // try a local repair (rediscover from here) if budget remains.
        RerrBody rerr;
        rerr.unreachable.emplace_back(dst,
                                      route == nullptr ? 0 : route->seq);
        auto out = stack_.world().new_packet();
        out->link_src = stack_.id();
        out->link_dst = kBroadcast;
        out->ttl = 1;
        out->body = std::move(rerr);
        stack_.link_broadcast(std::move(out));
        if (data.repairs_left > 0) {
            send_data(dst, data.app, data.tracker, -1,
                      static_cast<std::uint8_t>(data.repairs_left - 1));
        } else {
            obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(),
                        dst);
            if (data.tracker) {
                data.tracker->resolve(false);
            }
        }
        return;
    }
    touch_route(*route);
    const util::NodeId next_hop = route->next_hop;
    auto fwd = stack_.world().clone_packet(*p);
    fwd->link_src = stack_.id();
    fwd->link_dst = next_hop;
    fwd->ttl = p->ttl - 1;
    PacketPtr fwd_const = fwd;
    stack_.link_unicast(fwd_const, [this, dst, next_hop,
                                    fwd_const](bool ok) {
        if (ok) {
            return;
        }
        handle_broken_link(next_hop);
        const DataBody& broken = fwd_const->data();
        if (broken.repairs_left > 0) {
            // Local repair (RFC 3561 §6.12): this node rediscovers the
            // destination and resumes forwarding the packet itself.
            send_data(dst, broken.app, broken.tracker, -1,
                      static_cast<std::uint8_t>(broken.repairs_left - 1));
            return;
        }
        obs::record(fwd_const->trace, obs::EventKind::kPacketDrop,
                    stack_.id(), next_hop);
        if (broken.tracker) {
            broken.tracker->resolve(false);
        }
    });
}

void Aodv::handle_broken_link(util::NodeId next_hop) {
    RerrBody rerr;
    for (Route& route : routes_) {
        if (route.valid && route.next_hop == next_hop) {
            route.valid = false;
            rerr.unreachable.emplace_back(route.dst, route.seq);
        }
    }
    if (rerr.unreachable.empty()) {
        return;
    }
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = std::move(rerr);
    stack_.link_broadcast(std::move(p));
}

void Aodv::broadcast_rreq(util::NodeId dst, int ttl) {
    RreqBody rreq;
    rreq.origin = stack_.id();
    rreq.target = dst;
    rreq.origin_seq = ++my_seq_;
    rreq.rreq_id = next_rreq_id_++;
    if (const Route* route = find_route(dst);
        route != nullptr && route->seq_known) {
        rreq.target_seq = route->seq;
        rreq.target_seq_unknown = false;
    }

    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = ttl;
    p->body = rreq;
    stack_.link_broadcast(std::move(p));

    const auto it = find_pending(dst);
    PQS_DCHECK(it != pending_.end(),
               "aodv: node " << stack_.id() << " sent a RREQ for " << dst
                             << " with no discovery in flight");
    const sim::Time wait =
        2 * static_cast<sim::Time>(ttl) * params_.node_traversal_time;
    it->timer = stack_.world().simulator().schedule_in(
        wait, [this, dst] { discovery_timeout(dst); });
}

void Aodv::discovery_timeout(util::NodeId dst) {
    const auto it = find_pending(dst);
    if (it == pending_.end()) {
        return;
    }
    if (has_valid_route(dst)) {
        discovery_succeeded(dst);
        return;
    }
    Discovery& d = *it;
    int next_ttl = d.ttl;
    if (d.ttl < params_.ttl_threshold) {
        next_ttl = d.ttl + params_.ttl_increment;
    } else if (d.ttl < params_.net_diameter) {
        next_ttl = params_.net_diameter;
    } else if (d.retries_left > 0) {
        --d.retries_left;
        next_ttl = params_.net_diameter;
    } else {
        discovery_failed(dst);
        return;
    }
    if (d.max_ttl >= 0 && next_ttl > d.max_ttl) {
        // Scoped search: never expand beyond the cap.
        if (d.ttl >= d.max_ttl) {
            discovery_failed(dst);
            return;
        }
        next_ttl = d.max_ttl;
    }
    d.ttl = next_ttl;
    broadcast_rreq(dst, d.ttl);
}

// Both ends of a discovery take it out of pending_ before walking its
// queue: a tracker can resolve into an app callback that sends again and
// appends to pending_, which may reallocate it.
void Aodv::discovery_succeeded(util::NodeId dst) {
    const auto it = find_pending(dst);
    if (it == pending_.end()) {
        return;
    }
    Discovery d = take_pending(it);
    for (auto& queued : d.queue) {
        transmit_data(dst, std::move(queued.msg), std::move(queued.tracker),
                      queued.repairs);
    }
}

void Aodv::discovery_failed(util::NodeId dst) {
    const auto it = find_pending(dst);
    if (it == pending_.end()) {
        return;
    }
    Discovery d = take_pending(it);
    PQS_DEBUG("aodv: node " << stack_.id() << " failed discovery of " << dst);
    for (auto& queued : d.queue) {
        obs::record(queued.msg ? queued.msg->trace : 0,
                    obs::EventKind::kPacketDrop, stack_.id(), dst);
        if (queued.tracker) {
            queued.tracker->resolve(false);
        }
    }
}

void Aodv::on_rreq(util::NodeId from, const RreqBody& body, int ttl) {
    const sim::Time now = stack_.world().simulator().now();
    // Forget ids first heard PATH_DISCOVERY_TIME ago or earlier (RFC 3561
    // §6.3). Time only moves forward, so they form a prefix. Every RREQ
    // heard prunes, a node's own echoed back by a neighbor included.
    rreq_seen_.erase(rreq_seen_.begin(),
                     std::find_if(rreq_seen_.begin(), rreq_seen_.end(),
                                  [now](const SeenRreq& seen) {
                                      return seen.expiry > now;
                                  }));
    if (body.origin == stack_.id()) {
        return;
    }
    // Copies of one RREQ arrive from each neighbor within milliseconds,
    // so search newest first.
    const std::uint64_t key = rreq_key(body.origin, body.rreq_id);
    if (std::any_of(rreq_seen_.rbegin(), rreq_seen_.rend(),
                    [key](const SeenRreq& seen) { return seen.key == key; })) {
        return;  // duplicate
    }
    rreq_seen_.push_back({key, now + params_.path_discovery_time()});
    // Reverse route to the origin through the neighbor we heard this from.
    install_route(body.origin, from,
                  static_cast<std::uint16_t>(body.hop_count + 1),
                  body.origin_seq, /*seq_known=*/true,
                  params_.route_lifetime);

    if (body.target == stack_.id()) {
        my_seq_ = std::max(my_seq_, body.target_seq);
        RrepBody rrep;
        rrep.origin = body.origin;
        rrep.target = stack_.id();
        rrep.target_seq = ++my_seq_;
        rrep.hop_count = 0;
        rrep.lifetime = params_.route_lifetime;
        send_rrep_towards(body.origin, rrep);
        return;
    }
    // Intermediate reply when we have a fresh-enough route — with enough
    // remaining lifetime that the data following the RREP will still find
    // it usable here. The RREP hands on only that remainder (RFC 3561
    // §6.6.2), so no copy of the route outlives it.
    const Route* route = find_route(body.target);
    const sim::Time min_remaining = 10 * params_.node_traversal_time;
    if (route != nullptr && route_usable(*route) &&
        route->expiry - now > min_remaining && route->seq_known &&
        (body.target_seq_unknown || !seq_newer(body.target_seq, route->seq))) {
        RrepBody rrep;
        rrep.origin = body.origin;
        rrep.target = body.target;
        rrep.target_seq = route->seq;
        rrep.hop_count = route->hops;
        rrep.lifetime = route->expiry - now;
        send_rrep_towards(body.origin, rrep);
        return;
    }
    if (ttl <= 1) {
        return;
    }
    RreqBody fwd = body;
    fwd.hop_count = static_cast<std::uint16_t>(body.hop_count + 1);
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = ttl - 1;
    p->body = fwd;
    // Forwarding jitter desynchronizes neighbor rebroadcasts (RFC 5148).
    const sim::Time jitter = static_cast<sim::Time>(stack_.rng().uniform_u64(
        static_cast<std::uint64_t>(params_.rreq_jitter) + 1));
    // pqs-lint: fire-and-forget(Aodv lives inside the arena-placed
    // NodeStack for the whole run; the body re-checks running() first)
    stack_.world().simulator().schedule_in(jitter, [this, p] {
        if (stack_.running()) {
            stack_.link_broadcast(p);
        }
    });
}

void Aodv::send_rrep_towards(util::NodeId origin, const RrepBody& body) {
    const Route* route = find_route(origin);
    if (route == nullptr || !route_usable(*route)) {
        return;  // reverse route evaporated; the origin will retry
    }
    const util::NodeId next_hop = route->next_hop;
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = next_hop;
    p->ttl = params_.net_diameter;
    p->body = body;
    PacketPtr pc = p;
    stack_.link_unicast(pc, [this, next_hop](bool ok) {
        if (!ok) {
            handle_broken_link(next_hop);
        }
    });
}

void Aodv::on_rrep(util::NodeId from, const RrepBody& body) {
    // Forward route to the target through the RREP sender, for as long as
    // the RREP allows (RFC 3561 §6.7).
    const Route* route =
        install_route(body.target, from,
                      static_cast<std::uint16_t>(body.hop_count + 1),
                      body.target_seq, /*seq_known=*/true, body.lifetime);
    if (body.origin == stack_.id()) {
        discovery_succeeded(body.target);
        return;
    }
    // The origin's copy leads through this node's own route: the RREP's,
    // unless the route kept above was better. Hand on what is left of it,
    // as an intermediate reply does (§6.6.2).
    RrepBody fwd = body;
    fwd.hop_count = static_cast<std::uint16_t>(body.hop_count + 1);
    if (route != nullptr) {
        fwd.lifetime = route->expiry - stack_.world().simulator().now();
    }
    send_rrep_towards(body.origin, fwd);
}

void Aodv::on_rerr(util::NodeId from, const RerrBody& body) {
    RerrBody propagated;
    for (const auto& [dst, seq] : body.unreachable) {
        Route* route = find_route(dst);
        if (route != nullptr && route->valid && route->next_hop == from) {
            route->valid = false;
            propagated.unreachable.emplace_back(dst, seq);
        }
    }
    if (propagated.unreachable.empty()) {
        return;
    }
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = std::move(propagated);
    stack_.link_broadcast(std::move(p));
}

}  // namespace pqs::net
