#include "net/aodv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

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

// n nodes 150 m apart on a line: with the 200 m range each hears only its
// neighbours on either side.
std::unique_ptr<World> line_world(std::size_t n, WorldParams params) {
    params.n = n;
    params.ensure_connected = false;
    auto w = std::make_unique<World>(params);
    for (util::NodeId id = 0; id < n; ++id) {
        w->set_position(id, {150.0 * id, 0.0});
    }
    w->start();
    return w;
}

std::unique_ptr<World> line_world(std::size_t n) {
    return line_world(n, abstract_world(n, 5));
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

// RFC 3561 §6.3: an RREQ id is remembered while
// now < first heard + PATH_DISCOVERY_TIME, and forgotten from then on.
TEST(Aodv, RreqIdIsForgottenAtPathDiscoveryTime) {
    World w(abstract_world(80));
    w.start();
    const sim::Time pdt = w.params().aodv.path_discovery_time();
    ASSERT_EQ(pdt, 2800 * sim::kMillisecond);  // 2 * NET_TRAVERSAL_TIME
    const std::vector<util::NodeId> nbrs = w.physical_neighbors(0);
    ASSERT_GE(nbrs.size(), 2u);
    Aodv& aodv = w.stack(0).aodv();

    RreqBody rreq;
    rreq.origin = farthest(w, 0);
    rreq.target = farthest(w, nbrs[0]);
    ASSERT_NE(rreq.target, 0u);
    rreq.origin_seq = 5;
    rreq.rreq_id = 42;
    rreq.hop_count = 4;
    const sim::Time first_heard = w.simulator().now();
    // ttl 1: node 0 installs the reverse route and forwards nothing.
    aodv.on_rreq(nbrs[0], rreq, 1);
    EXPECT_EQ(aodv.route_hops(rreq.origin), 5u);

    // The same id over a shorter path, 1 ns before the boundary: still a
    // duplicate, so the reverse route keeps its 5 hops.
    rreq.hop_count = 0;
    w.simulator().run_until(first_heard + pdt - 1);
    aodv.on_rreq(nbrs[1], rreq, 1);
    EXPECT_EQ(aodv.route_hops(rreq.origin), 5u);

    // At the boundary the id is forgotten: the copy is processed and its
    // one-hop route replaces the 5-hop one.
    w.simulator().run_until(first_heard + pdt);
    aodv.on_rreq(nbrs[1], rreq, 1);
    EXPECT_EQ(aodv.route_hops(rreq.origin), 1u);
}

// Minutes of steady discoveries between random pairs: a node's RREQ cache
// holds what it heard in the last PATH_DISCOVERY_TIME, never the run's
// history. What a node heard in that window is bounded by the routing
// packets sent on air in it (plus one link delay).
TEST(Aodv, RreqCacheFollowsRecentRateNotRunLength) {
    WorldParams params = abstract_world(80, 31);
    // Short-lived routes keep discoveries coming for the whole run.
    params.aodv.route_lifetime = 2 * sim::kSecond;
    World w(params);
    w.start();
    const sim::Time pdt = params.aodv.path_discovery_time();
    const sim::Time tick = 100 * sim::kMillisecond;
    const sim::Time run = 5 * 60 * sim::kSecond;
    // A window of pdt plus one tick covers pdt plus a link delay.
    ASSERT_LT(params.abstract_link.delay_max, tick);
    const auto window_ticks = static_cast<std::size_t>(pdt / tick + 1);

    util::Rng rng(7);
    int resolved = 0;
    std::function<void()> send_next = [&] {
        const auto src = static_cast<util::NodeId>(rng.index(80));
        const auto dst = static_cast<util::NodeId>(rng.index(80));
        w.stack(src).send_routed(dst, std::make_shared<Ping>(),
                                 [&](bool) { ++resolved; });
        w.simulator().schedule_in(2 * tick, send_next);
    };
    send_next();

    // routing_tx[k] is the count at k ticks.
    std::vector<std::uint64_t> routing_tx{w.kernel_stats().routing_tx};
    std::size_t max_held = 0;
    for (sim::Time t = tick; t <= run; t += tick) {
        w.simulator().run_until(t);
        routing_tx.push_back(w.kernel_stats().routing_tx);
        const std::size_t k = routing_tx.size() - 1;
        if (k < window_ticks) {
            continue;
        }
        // Routing packets sent in the window: an upper bound on the RREQ
        // ids any node first heard within pdt of now.
        const std::uint64_t heard_bound =
            routing_tx[k] - routing_tx[k - window_ticks];
        for (util::NodeId v = 0; v < w.node_count(); ++v) {
            Aodv& aodv = w.stack(v).aodv();
            // Hearing its own RREQ echoed back makes v drop expired ids.
            RreqBody echo;
            echo.origin = v;
            aodv.on_rreq(v, echo, 1);
            max_held = std::max(max_held, aodv.rreq_ids_held());
            ASSERT_LE(aodv.rreq_ids_held(), heard_bound)
                << "node " << v << " at t=" << t;
        }
    }
    EXPECT_GT(resolved, 1000);
    EXPECT_GT(max_held, 0u);
}

// A relay whose route is still marked valid but has outlived its
// lifetime cannot forward; kernel_stats().expired_route_forwards counts
// each such data packet. On a line D - A - S, A learns its route to D one
// second before S does (two injected RREQs from D), so between the two
// expiries S still sends and A must refuse.
TEST(Aodv, ForwardOverExpiredRouteIsCounted) {
    WorldParams params = abstract_world(4, 5);
    params.aodv.route_lifetime = 5 * sim::kSecond;
    const auto world = line_world(4, params);
    World& w = *world;
    const util::NodeId d = 0;
    const util::NodeId a = 1;
    const util::NodeId s = 2;
    RreqBody rreq;
    rreq.origin = d;
    rreq.target = 3;  // neither A nor S: ttl 1, nobody replies or forwards
    rreq.origin_seq = 5;
    rreq.rreq_id = 1;
    w.stack(a).aodv().on_rreq(d, rreq, 1);
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    rreq.origin_seq = 6;
    rreq.rreq_id = 2;
    rreq.hop_count = 1;
    w.stack(s).aodv().on_rreq(a, rreq, 1);
    w.simulator().run_until(w.simulator().now() +
                            params.aodv.route_lifetime -
                            500 * sim::kMillisecond);
    ASSERT_FALSE(w.stack(a).aodv().has_valid_route(d));
    ASSERT_TRUE(w.stack(s).aodv().has_valid_route(d));
    EXPECT_EQ(w.kernel_stats().expired_route_forwards, 0u);

    bool delivered = false;
    w.stack(s).send_routed(d, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; });
    w.simulator().run_until(w.simulator().now() + 10 * sim::kSecond);
    EXPECT_EQ(w.kernel_stats().expired_route_forwards, 1u);
    EXPECT_TRUE(delivered);  // A's local repair rediscovers D
}

// RFC 3561 §6.6.1 and §6.7: a destination's RREP carries route_lifetime,
// and every node it passes on the way back installs the forward route for
// that long. On a line D - A - S, S's RREQ reaches D through A; A's and
// S's routes to D both last route_lifetime from the RREP's arrival.
TEST(Aodv, DestinationRrepGivesTheFullRouteLifetime) {
    const auto world = line_world(3);
    World& w = *world;
    const util::NodeId d = 0;
    const util::NodeId a = 1;
    const util::NodeId s = 2;
    const sim::Time lifetime = w.params().aodv.route_lifetime;
    // The RREP is back at S within A's forwarding jitter plus three hops.
    const sim::Time settle = w.params().aodv.rreq_jitter +
                             3 * w.params().abstract_link.delay_max;
    const sim::Time sent = w.simulator().now();
    // ttl 2: A has no route to D, so it rebroadcasts and D answers.
    w.stack(a).aodv().on_rreq(
        s, {.origin = s, .target = d, .origin_seq = 1, .rreq_id = 1}, 2);
    w.simulator().run_until(sent + settle);
    ASSERT_EQ(w.stack(s).aodv().route_hops(d), 2u);
    ASSERT_EQ(w.stack(a).aodv().route_hops(d), 1u);

    w.simulator().run_until(sent + lifetime);
    EXPECT_TRUE(w.stack(a).aodv().has_valid_route(d));
    EXPECT_TRUE(w.stack(s).aodv().has_valid_route(d));
    w.simulator().run_until(sent + settle + lifetime);
    EXPECT_FALSE(w.stack(a).aodv().has_valid_route(d));
    EXPECT_FALSE(w.stack(s).aodv().has_valid_route(d));
}

// RFC 3561 §6.6.2: an intermediate node answers with what is left of its
// own route, so the origin's copy expires with it and not a full
// route_lifetime later. On a line D - A - S, A learns its route to D from
// a RREQ of D's and answers S's RREQ for D halfway through that route's
// life.
TEST(Aodv, IntermediateRrepHandsOnItsRemainingLifetime) {
    const auto world = line_world(3);
    World& w = *world;
    const util::NodeId d = 0;
    const util::NodeId a = 1;
    const util::NodeId s = 2;
    const sim::Time lifetime = w.params().aodv.route_lifetime;
    const sim::Time delay_max = w.params().abstract_link.delay_max;
    const sim::Time learned = w.simulator().now();
    // ttl 1: A neither answers nor forwards D's RREQ for S.
    w.stack(a).aodv().on_rreq(
        d, {.origin = d, .target = s, .origin_seq = 5, .rreq_id = 1}, 1);

    w.simulator().run_until(learned + lifetime / 2);
    w.stack(a).aodv().on_rreq(
        s, {.origin = s, .target = d, .origin_seq = 1, .rreq_id = 1}, 1);
    w.simulator().run_until(learned + lifetime / 2 + delay_max);
    ASSERT_EQ(w.stack(s).aodv().route_hops(d), 2u);

    w.simulator().run_until(learned + lifetime - 1);
    ASSERT_TRUE(w.stack(a).aodv().has_valid_route(d));
    EXPECT_TRUE(w.stack(s).aodv().has_valid_route(d));
    // A's route is gone at learned + lifetime; S's copy outlives it only
    // by the RREP's one-hop delay.
    w.simulator().run_until(learned + lifetime + delay_max);
    ASSERT_FALSE(w.stack(a).aodv().has_valid_route(d));
    EXPECT_FALSE(w.stack(s).aodv().has_valid_route(d));
}

// A relay that keeps its own, better route to the target still forwards
// the RREP, and the origin's copy leads through the relay's route; so the
// RREP carries that route's remainder, not the lifetime it arrived with.
// On a line T - R - O - X, R learns a one-hop route to T; 40 s later a
// RREP for O offering a full-lifetime route to T, no shorter, reaches R.
TEST(Aodv, RelayKeepingItsOwnRouteHandsOnThatRoutesLifetime) {
    const auto world = line_world(4);
    World& w = *world;
    const util::NodeId t = 0;
    const util::NodeId r = 1;
    const util::NodeId o = 2;
    const util::NodeId x = 3;
    const sim::Time lifetime = w.params().aodv.route_lifetime;
    const sim::Time delay_max = w.params().abstract_link.delay_max;
    const sim::Time learned = w.simulator().now();
    // ttl 1: R neither answers nor forwards T's RREQ for O.
    w.stack(r).aodv().on_rreq(
        t, {.origin = t, .target = o, .origin_seq = 5, .rreq_id = 1}, 1);

    w.simulator().run_until(learned + 40 * sim::kSecond);
    // R's reverse route to O, from O's RREQ for X (R has no route to X).
    w.stack(r).aodv().on_rreq(
        o, {.origin = o, .target = x, .origin_seq = 1, .rreq_id = 1}, 1);
    // hop_count 0 makes R's candidate one hop: no better than its own.
    w.stack(r).aodv().on_rrep(t, {.origin = o,
                                  .target = t,
                                  .target_seq = 5,
                                  .hop_count = 0,
                                  .lifetime = lifetime});
    w.simulator().run_until(learned + 40 * sim::kSecond + delay_max);
    ASSERT_EQ(w.stack(o).aodv().route_hops(t), 2u);

    w.simulator().run_until(learned + lifetime - 1);
    ASSERT_TRUE(w.stack(r).aodv().has_valid_route(t));
    EXPECT_TRUE(w.stack(o).aodv().has_valid_route(t));
    w.simulator().run_until(learned + lifetime + delay_max);
    ASSERT_FALSE(w.stack(r).aodv().has_valid_route(t));
    EXPECT_FALSE(w.stack(o).aodv().has_valid_route(t));
}

// The routing loop that copied routes used to close. On a line
// D - B - C - A - S, A discovers D and delivers; half a route lifetime
// later S learns its route to D from A's RREP. Once A's route has
// expired, A rediscovers D. S still held a fresh copy, so it answered
// A's first ring through A itself, and the data circled A and S until its
// TTL ran out. Now S's copy expires with A's route, D answers the next
// ring, and the data arrives.
TEST(Aodv, ExpiredRouteIsNotAnsweredByItsOwnCopy) {
    const auto world = line_world(5);
    World& w = *world;
    const util::NodeId d = 0;
    const util::NodeId a = 3;
    const util::NodeId s = 4;
    const sim::Time lifetime = w.params().aodv.route_lifetime;
    const sim::Time start = w.simulator().now();
    bool first = false;
    w.stack(a).send_routed(d, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(start + lifetime / 2);
    ASSERT_TRUE(first);
    ASSERT_EQ(w.stack(a).aodv().route_hops(d), 3u);

    w.stack(a).aodv().on_rreq(
        s, {.origin = s, .target = d, .origin_seq = 1, .rreq_id = 1}, 1);
    w.simulator().run_until(start + lifetime + sim::kSecond);
    ASSERT_FALSE(w.stack(a).aodv().has_valid_route(d));

    bool second = false;
    w.stack(a).send_routed(d, std::make_shared<Ping>(),
                           [&](bool ok) { second = ok; });
    w.simulator().run_until(w.simulator().now() + 10 * sim::kSecond);
    EXPECT_TRUE(second);
    EXPECT_EQ(w.stack(a).aodv().route_hops(d), 3u);
    EXPECT_EQ(w.kernel_stats().ttl_expired_drops, 0u);
}

// A data packet whose TTL runs out at a relay is dropped and counted in
// kernel_stats().ttl_expired_drops. Two injected RREPs point A's and S's
// routes to D at each other, and A's packet circles them.
TEST(Aodv, TtlExpiryDropIsCounted) {
    const auto world = line_world(3);
    World& w = *world;
    const util::NodeId d = 0;
    const util::NodeId a = 1;
    const util::NodeId s = 2;
    RrepBody rrep{.origin = a,
                  .target = d,
                  .target_seq = 5,
                  .hop_count = 1,
                  .lifetime = 10 * sim::kSecond};
    w.stack(a).aodv().on_rrep(s, rrep);
    rrep.origin = s;
    w.stack(s).aodv().on_rrep(a, rrep);
    ASSERT_TRUE(w.stack(a).aodv().has_valid_route(d));
    ASSERT_TRUE(w.stack(s).aodv().has_valid_route(d));

    bool resolved = false;
    bool delivered = true;
    w.stack(a).send_routed(d, std::make_shared<Ping>(), [&](bool ok) {
        resolved = true;
        delivered = ok;
    });
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    ASSERT_TRUE(resolved);
    EXPECT_FALSE(delivered);
    EXPECT_EQ(w.kernel_stats().ttl_expired_drops, 1u);
    // One transmission per TTL value: 64 down to 1.
    EXPECT_EQ(w.kernel_stats().data_tx, 64u);
}

// A tracker resolved while a discovery drains its queue runs app code
// synchronously; that code may send again and start new discoveries.
TEST(Aodv, FailureCallbackMayStartNewDiscoveries) {
    World w(abstract_world(150, 3));
    w.start();
    const util::NodeId far = farthest(w, 0);
    ASSERT_GT(w.snapshot_graph().bfs_distances(0)[far], 3u);

    std::vector<util::NodeId> targets;
    for (util::NodeId v = 1; targets.size() < 8; ++v) {
        if (v != far) {
            targets.push_back(v);
        }
    }
    int failed = 0;
    int delivered = 0;
    RouteSendOptions scoped;
    scoped.max_discovery_ttl = 2;
    // Two sends queue behind one scoped discovery that cannot succeed. The
    // first failure callback starts eight discoveries, growing the pending
    // list while the second queued send still waits to be failed.
    w.stack(0).send_routed(
        far, std::make_shared<Ping>(),
        [&](bool ok) {
            failed += ok ? 0 : 1;
            for (const util::NodeId v : targets) {
                w.stack(0).send_routed(v, std::make_shared<Ping>(),
                                       [&](bool d) { delivered += d; });
            }
        },
        scoped);
    w.stack(0).send_routed(far, std::make_shared<Ping>(),
                           [&](bool ok) { failed += ok ? 0 : 1; });
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(failed, 2);
    EXPECT_EQ(delivered, static_cast<int>(targets.size()));
}

}  // namespace
}  // namespace pqs::net
