// Ad hoc On-demand Distance Vector routing (simplified RFC 3561), used by
// the RANDOM / RANDOM-OPT strategies and by the reply-path local-repair
// technique (TTL-3 scoped discovery, §6.2).
//
// Implemented features: expanding-ring RREQ search, reverse-route
// installation, destination and intermediate-node RREPs, hop-by-hop data
// forwarding over MAC-acknowledged unicasts, RERR propagation on link
// breakage, route lifetimes, data queuing during discovery, and a caller
// supplied TTL cap for scoped discovery. Omitted: gratuitous RREPs,
// precursor lists (RERRs are one-hop broadcasts re-propagated by affected
// nodes) and local repair at intermediate nodes.
//
// Route lifetimes follow RFC 3561 §6.6.1, §6.6.2 and §6.7: every RREP
// carries what is left of its sender's own route to the target — the
// destination's route_lifetime, or the remainder of an intermediate's or
// a relay's route — and each node it reaches installs the forward route
// for exactly that long. A copy of a route thus never outlives the route
// it leads through, so it cannot answer that route's rediscovery with a
// path back through the node that lost it (a two-node loop). Unlike §6.7,
// a relay whose own route beat the RREP's still forwards it, with its own
// route's remainder. Reverse routes from RREQs last route_lifetime, and
// every use of a route extends it to route_lifetime from then.
//
// Per-node state is flat. A node remembers each RREQ id for
// PATH_DISCOVERY_TIME (RFC 3561 §6.3) in arrival order, so its memory
// follows the recent RREQ rate, not the length of the run. Routes sit in
// one vector sorted by destination id, so RERR lists ascend by id.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace pqs::net {

class NodeStack;

struct AodvParams {
    int ttl_start = 2;
    int ttl_increment = 2;
    int ttl_threshold = 7;
    int net_diameter = 35;
    int rreq_retries = 2;  // extra attempts at full diameter
    // Per-ring wait is 2 * ttl * node_traversal_time.
    sim::Time node_traversal_time = 20 * sim::kMillisecond;
    sim::Time route_lifetime = 60 * sim::kSecond;
    // Random forwarding jitter applied before RREQ rebroadcast.
    sim::Time rreq_jitter = 10 * sim::kMillisecond;

    // How long a node remembers an RREQ id: 2 * NET_TRAVERSAL_TIME, where
    // NET_TRAVERSAL_TIME = 2 * node_traversal_time * net_diameter.
    sim::Time path_discovery_time() const {
        return 4 * node_traversal_time * net_diameter;
    }
};

class Aodv {
public:
    Aodv(NodeStack& stack, AodvParams params);

    // Sends application data to `dst`, discovering a route if needed.
    // max_discovery_ttl >= 0 caps the search ring (single attempt, no
    // escalation beyond the cap) — used for scoped local repair.
    // The tracker (optional) resolves true on end-to-end delivery and false
    // on discovery failure or a broken forwarding hop that exhausted its
    // local-repair budget (`repairs`).
    void send_data(util::NodeId dst, AppMsgPtr msg,
                   std::shared_ptr<DeliveryTracker> tracker,
                   int max_discovery_ttl = -1, std::uint8_t repairs = 1);

    // Control-plane input from the stack.
    void on_rreq(util::NodeId from, const RreqBody& body, int ttl);
    void on_rrep(util::NodeId from, const RrepBody& body);
    void on_rerr(util::NodeId from, const RerrBody& body);
    // Data packet addressed past this node.
    void forward_data(PacketPtr p);

    bool has_valid_route(util::NodeId dst) const;
    // Hop count of the valid route to dst (0 if none).
    std::uint16_t route_hops(util::NodeId dst) const;
    // RREQ ids in the duplicate cache, expired ones not yet dropped.
    std::size_t rreq_ids_held() const { return rreq_seen_.size(); }

private:
    struct Route {
        util::NodeId dst = util::kInvalidNode;
        util::NodeId next_hop = util::kInvalidNode;
        util::SeqNum seq = 0;
        std::uint16_t hops = 0;
        bool seq_known = false;
        bool valid = false;
        sim::Time expiry = 0;
    };

    struct QueuedData {
        AppMsgPtr msg;
        std::shared_ptr<DeliveryTracker> tracker;
        std::uint8_t repairs = 1;
    };

    struct Discovery {
        util::NodeId dst = util::kInvalidNode;
        int ttl = 0;
        int retries_left = 0;
        int max_ttl = -1;  // -1: unrestricted
        std::vector<QueuedData> queue;
        sim::EventId timer = sim::kInvalidEvent;
    };

    struct SeenRreq {
        std::uint64_t key = 0;  // origin<<32 | rreq_id
        sim::Time expiry = 0;   // first heard + PATH_DISCOVERY_TIME
    };

    // The route to dst, or null. Only install_route inserts, so the
    // pointer is good until the next RREQ or RREP arrives.
    Route* find_route(util::NodeId dst);
    const Route* find_route(util::NodeId dst) const;
    // The discovery in flight for dst, or pending_.end().
    std::vector<Discovery>::iterator find_pending(util::NodeId dst);
    // Removes a discovery from pending_, cancels its timer and returns it.
    Discovery take_pending(std::vector<Discovery>::iterator it);
    bool route_usable(const Route& route) const;
    void touch_route(Route& route);
    // Installs a route expiring `lifetime` from now unless the usable
    // route already held is better. Returns dst's entry, installed or
    // kept; null for this node itself.
    Route* install_route(util::NodeId dst, util::NodeId next_hop,
                         std::uint16_t hops, util::SeqNum seq,
                         bool seq_known, sim::Time lifetime);
    void transmit_data(util::NodeId dst, AppMsgPtr msg,
                       std::shared_ptr<DeliveryTracker> tracker,
                       std::uint8_t repairs);
    void broadcast_rreq(util::NodeId dst, int ttl);
    void discovery_timeout(util::NodeId dst);
    void discovery_succeeded(util::NodeId dst);
    void discovery_failed(util::NodeId dst);
    void handle_broken_link(util::NodeId next_hop);
    void send_rrep_towards(util::NodeId origin, const RrepBody& body);

    NodeStack& stack_;
    AodvParams params_;
    std::vector<Route> routes_;        // ascending dst
    std::vector<Discovery> pending_;   // in no order; a few in flight
    std::vector<SeenRreq> rreq_seen_;  // arrival order = expiry order
    util::SeqNum my_seq_ = 1;
    std::uint32_t next_rreq_id_ = 1;
};

}  // namespace pqs::net
