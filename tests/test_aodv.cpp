#include "net/aodv.h"

#include <gtest/gtest.h>

#include "net/node_stack.h"
#include "net/world.h"

namespace pqs::net {
namespace {

struct Ping final : AppMessage {};

WorldParams abstract_world(std::size_t n, std::uint64_t seed = 1) {
    WorldParams p;
    p.n = n;
    p.seed = seed;
    p.oracle_neighbors = true;  // no warm-up needed
    return p;
}

// Farthest alive node from `from` (guaranteed multihop at our densities).
util::NodeId farthest(World& w, util::NodeId from) {
    util::NodeId best_node = from;
    double best = -1.0;
    for (const util::NodeId v : w.alive_nodes()) {
        const double d = geom::distance(w.position(from), w.position(v));
        if (d > best) {
            best = d;
            best_node = v;
        }
    }
    return best_node;
}

TEST(Aodv, DiscoversRouteAndDelivers) {
    World w(abstract_world(80));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    ASSERT_GT(geom::distance(w.position(0), w.position(dst)), w.range());

    int received = 0;
    w.stack(dst).add_app_handler(
        [&](util::NodeId, util::NodeId src, const AppMsgPtr&) {
            EXPECT_EQ(src, 0u);
            ++received;
            return true;
        });
    bool delivered = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(received, 1);
    EXPECT_TRUE(w.stack(0).aodv().has_valid_route(dst));
    EXPECT_GT(w.kernel_stats().routing_tx, 0u);
}

TEST(Aodv, RouteReuseAvoidsRediscovery) {
    World w(abstract_world(80));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    int delivered = 0;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered += ok; });
    w.simulator().run_until(30 * sim::kSecond);
    const std::uint64_t routing_after_first = w.kernel_stats().routing_tx;
    for (int i = 0; i < 5; ++i) {
        w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                               [&](bool ok) { delivered += ok; });
    }
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(delivered, 6);
    // Reuse: no further route discovery traffic.
    EXPECT_EQ(w.kernel_stats().routing_tx, routing_after_first);
}

TEST(Aodv, LoopbackDeliversLocally) {
    World w(abstract_world(30));
    w.start();
    int received = 0;
    w.stack(3).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++received;
            return true;
        });
    bool ok = false;
    w.stack(3).send_routed(3, std::make_shared<Ping>(),
                           [&](bool d) { ok = d; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(received, 1);
    EXPECT_EQ(w.kernel_stats().data_tx, 0u);
}

TEST(Aodv, ScopedDiscoveryFailsForFarTarget) {
    World w(abstract_world(150, 3));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    const auto hops = w.snapshot_graph().bfs_distances(0)[dst];
    ASSERT_GT(hops, 3u) << "topology too small for a scoped-failure test";

    bool failed = false;
    RouteSendOptions opts;
    opts.max_discovery_ttl = 2;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { failed = !ok; }, opts);
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(failed);
    EXPECT_FALSE(w.stack(0).aodv().has_valid_route(dst));
}

TEST(Aodv, ScopedDiscoveryReachesNearTarget) {
    World w(abstract_world(150, 3));
    w.start();
    // A node exactly 2 hops away.
    const auto dist = w.snapshot_graph().bfs_distances(0);
    util::NodeId dst = util::kInvalidNode;
    for (util::NodeId v = 0; v < w.node_count(); ++v) {
        if (dist[v] == 2) {
            dst = v;
            break;
        }
    }
    ASSERT_NE(dst, util::kInvalidNode);
    bool delivered = false;
    RouteSendOptions opts;
    opts.max_discovery_ttl = 3;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; }, opts);
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(delivered);
}

TEST(Aodv, BrokenRouteReportsFailure) {
    World w(abstract_world(100, 5));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);
    // Kill the destination: the next send must fail (and may need the MAC
    // retry budget to notice).
    w.fail_node(dst);
    bool second_ok = true;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { second_ok = ok; });
    w.simulator().run_until(90 * sim::kSecond);
    EXPECT_FALSE(second_ok);
}

TEST(Aodv, IntermediateFailureTriggersRerrAndFailureCallback) {
    World w(abstract_world(100, 8));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);
    // Kill every neighbor of the destination: any cached route must break
    // at its last hop.
    for (const util::NodeId v : w.physical_neighbors(dst)) {
        w.fail_node(v);
    }
    bool ok2 = true;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { ok2 = ok; });
    w.simulator().run_until(120 * sim::kSecond);
    EXPECT_FALSE(ok2);
}

TEST(Aodv, ManyConcurrentSendsAllDeliver) {
    World w(abstract_world(100, 11));
    w.start();
    util::Rng rng(99);
    int delivered = 0;
    const int kSends = 30;
    for (int i = 0; i < kSends; ++i) {
        const auto src = static_cast<util::NodeId>(rng.index(100));
        const auto dst = static_cast<util::NodeId>(rng.index(100));
        w.stack(src).send_routed(dst, std::make_shared<Ping>(),
                                 [&](bool ok) { delivered += ok; });
    }
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(delivered, kSends);
}

TEST(Aodv, LocalRepairSurvivesMidPathBreak) {
    // Deliver once to warm the route, break an interior hop, then send
    // again: the node holding the packet rediscovers (RFC 3561 §6.12) and
    // the packet still arrives.
    World w(abstract_world(120, 21));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);

    // Kill the first hop of the shortest path toward dst: any cached route
    // through it breaks at the first transmission.
    const auto dist = w.snapshot_graph().bfs_distances(dst);
    util::NodeId first_hop = util::kInvalidNode;
    for (const util::NodeId v : w.physical_neighbors(0)) {
        if (dist[v] + 1 == dist[0]) {
            first_hop = v;
            break;
        }
    }
    ASSERT_NE(first_hop, util::kInvalidNode);
    w.fail_node(first_hop);

    bool second = false;
    bool resolved = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(), [&](bool ok) {
        second = ok;
        resolved = true;
    });
    w.simulator().run_until(120 * sim::kSecond);
    ASSERT_TRUE(resolved);
    EXPECT_TRUE(second);  // repaired around the dead hop
}

TEST(Aodv, RouteLifetimeRefreshOnUse) {
    // A route used continuously must not expire even past route_lifetime.
    WorldParams params = abstract_world(80, 23);
    params.aodv.route_lifetime = 5 * sim::kSecond;
    World w(params);
    w.start();
    const util::NodeId dst = farthest(w, 0);
    int delivered = 0;
    const int sends = 30;  // spread over 15 s > route_lifetime
    std::function<void(int)> send_next = [&](int i) {
        if (i >= sends) {
            return;
        }
        w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                               [&, i](bool ok) {
                                   delivered += ok ? 1 : 0;
                                   w.simulator().schedule_in(
                                       500 * sim::kMillisecond,
                                       [&, i] { send_next(i + 1); });
                               });
    };
    send_next(0);
    w.simulator().run_until(120 * sim::kSecond);
    EXPECT_EQ(delivered, sends);
}

TEST(Aodv, RouteHopsReasonable) {
    World w(abstract_world(120, 13));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool done = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool) { done = true; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(done);
    const auto shortest = w.snapshot_graph().bfs_distances(0)[dst];
    const auto via_aodv = w.stack(0).aodv().route_hops(dst);
    EXPECT_GE(via_aodv, shortest);
    EXPECT_LE(via_aodv, shortest + 3);
}

}  // namespace
}  // namespace pqs::net
