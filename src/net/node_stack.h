// Per-node protocol stack: heartbeat neighbor discovery, AODV, and the
// one-hop / multihop send primitives that the quorum access strategies in
// src/core are written against.
#pragma once

#include <functional>
#include <vector>

#include "net/aodv.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/ids.h"
#include "util/rng.h"

namespace pqs::net {

class World;

struct RouteSendOptions {
    // >= 0 caps AODV discovery to this ring TTL (scoped local repair).
    int max_discovery_ttl = -1;
};

class NodeStack {
public:
    NodeStack(World& world, util::NodeId id, util::Rng rng);

    // A stack destroyed while its heartbeat is pending (teardown with
    // live nodes, container reallocation) would leave the simulator a
    // callback into freed memory; shutdown() cancels the timer.
    ~NodeStack() { shutdown(); }

    util::NodeId id() const { return id_; }
    World& world() { return world_; }
    util::Rng& rng() { return rng_; }
    Aodv& aodv() { return aodv_; }

    // Schedules the heartbeat loop (jittered within the first cycle).
    // Callable again after shutdown() — a warm restart on node revival.
    void start();

    // --- one-hop primitives ---
    // Unicast an application message to a (presumed) neighbor. `done`
    // reports MAC ack/failure — the cross-layer notification of §6.2.
    void send_unicast(util::NodeId to, AppMsgPtr msg, LinkTxCallback done);
    // One-hop application broadcast (the building block of FLOODING).
    void send_broadcast(AppMsgPtr msg);

    // --- multihop ---
    using RoutedCallback = std::function<void(bool delivered)>;
    void send_routed(util::NodeId dst, AppMsgPtr msg, RoutedCallback done,
                     RouteSendOptions opts = {});

    // Current one-hop neighbors: the hello-driven table (possibly stale
    // under mobility) or ground truth when the world uses oracle neighbors.
    std::vector<util::NodeId> neighbors() const;
    bool is_neighbor(util::NodeId id) const;

    // Application upcall: (previous hop, network source, message). Several
    // protocols can coexist on one node; each handler returns true iff it
    // consumed the message.
    using AppHandler = std::function<bool(util::NodeId prev_hop,
                                          util::NodeId net_src,
                                          const AppMsgPtr& msg)>;
    void add_app_handler(AppHandler handler) {
        app_handlers_.push_back(std::move(handler));
    }

    // Cross-layer snoop on data packets this node merely *forwards*
    // (RANDOM-OPT, §4.5). Returning true consumes the packet — it is not
    // forwarded further.
    using SnoopHandler = std::function<bool(const Packet& packet)>;
    void add_snoop_handler(SnoopHandler handler) {
        snoop_handlers_.push_back(std::move(handler));
    }

    // Promiscuous overhearing (§7.2): invoked for packets this node heard
    // on the air but that were not addressed to it. Requires the world to
    // run with promiscuous delivery enabled.
    using OverhearHandler = std::function<void(const Packet& packet)>;
    void add_overhear_handler(OverhearHandler handler) {
        overhear_handlers_.push_back(std::move(handler));
    }
    // Called by the link layer.
    void on_overhear(const PacketPtr& p);

    // Called by World for every packet but a hello, once it has checked
    // the run bits and refreshed this node's hello row.
    void on_receive(PacketPtr p);

    // Node failure: stops heartbeats and drops pending work. The run
    // bits live in World (World::running / World::suspended), where a
    // reception tests them without touching the stack.
    void shutdown();
    bool running() const;

    // Duty-cycle sleep: pauses the heartbeat loop but — unlike
    // shutdown() — keeps every installed app/snoop/overhear handler, so
    // the node wakes with its protocol state (and stored values) intact.
    // No spawn listeners fire on resume(); services must not reinstall
    // handlers for a node that merely slept.
    void suspend();
    void resume();
    bool suspended() const;

    // Used by Aodv (and strategies) to emit link packets.
    void link_unicast(PacketPtr p, LinkTxCallback done);
    void link_broadcast(PacketPtr p);

private:
    void heartbeat();
    void deliver_local(util::NodeId prev_hop, util::NodeId net_src,
                       const AppMsgPtr& msg);

    World& world_;
    util::NodeId id_;
    util::Rng rng_;
    Aodv aodv_;
    std::vector<AppHandler> app_handlers_;
    std::vector<SnoopHandler> snoop_handlers_;
    std::vector<OverhearHandler> overhear_handlers_;
    // Pending heartbeat event, cancelled on shutdown so a revived node's
    // restart() can't race a stale [this] callback from its previous life.
    sim::EventId heartbeat_timer_ = sim::kInvalidEvent;
};

}  // namespace pqs::net
