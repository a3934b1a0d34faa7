#include "net/world.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/node_stack.h"

namespace pqs::net {
namespace {

WorldParams small_world(std::size_t n = 60, std::uint64_t seed = 1) {
    WorldParams p;
    p.n = n;
    p.seed = seed;
    p.avg_degree = 10.0;
    return p;
}

TEST(World, ConstructionBasics) {
    World w(small_world());
    EXPECT_EQ(w.node_count(), 60u);
    EXPECT_EQ(w.alive_count(), 60u);
    EXPECT_EQ(w.alive_nodes().size(), 60u);
    EXPECT_GT(w.side(), 0.0);
    EXPECT_TRUE(w.snapshot_graph().is_connected());
}

TEST(World, DeterministicPlacementForSeed) {
    World a(small_world(40, 7));
    World b(small_world(40, 7));
    for (util::NodeId i = 0; i < 40; ++i) {
        EXPECT_EQ(a.position(i), b.position(i));
    }
    World c(small_world(40, 8));
    bool differs = false;
    for (util::NodeId i = 0; i < 40; ++i) {
        differs |= !(a.position(i) == c.position(i));
    }
    EXPECT_TRUE(differs);
}

TEST(World, PhysicalNeighborsRespectRange) {
    World w(small_world());
    for (const util::NodeId v : w.alive_nodes()) {
        for (const util::NodeId u : w.physical_neighbors(v)) {
            EXPECT_LE(geom::distance(w.position(v), w.position(u)),
                      w.range() + 1e-9);
            EXPECT_NE(u, v);
        }
    }
}

TEST(World, FailNodeRemovesFromTopology) {
    World w(small_world());
    const util::NodeId victim = 5;
    const auto before = w.physical_neighbors(victim);
    ASSERT_FALSE(before.empty());
    w.fail_node(victim);
    EXPECT_FALSE(w.alive(victim));
    EXPECT_EQ(w.alive_count(), 59u);
    // Dead node invisible to its former neighbors.
    const auto neigh = w.physical_neighbors(before.front());
    EXPECT_EQ(std::count(neigh.begin(), neigh.end(), victim), 0);
    // Snapshot graph isolates it.
    EXPECT_EQ(w.snapshot_graph().degree(victim), 0u);
    // Idempotent.
    w.fail_node(victim);
    EXPECT_EQ(w.alive_count(), 59u);
}

TEST(World, SpawnNodeJoins) {
    World w(small_world());
    util::NodeId seen = util::kInvalidNode;
    w.add_spawn_listener([&](util::NodeId id) { seen = id; });
    const util::NodeId id = w.spawn_node();
    EXPECT_EQ(id, 60u);
    EXPECT_EQ(seen, 60u);
    EXPECT_TRUE(w.alive(id));
    EXPECT_EQ(w.alive_count(), 61u);
    EXPECT_LE(w.position(id).x, w.side());
}

TEST(World, HeartbeatPopulatesNeighborTables) {
    WorldParams p = small_world();
    p.oracle_neighbors = false;
    World w(p);
    w.start();
    // Before any heartbeat: tables empty.
    EXPECT_TRUE(w.stack(0).neighbors().empty());
    // After one full cycle everyone has beaconed.
    w.simulator().run_until(11 * sim::kSecond);
    for (const util::NodeId v : w.alive_nodes()) {
        auto table = w.stack(v).neighbors();
        auto truth = w.physical_neighbors(v);
        std::sort(table.begin(), table.end());
        std::sort(truth.begin(), truth.end());
        EXPECT_EQ(table, truth) << "node " << v;
    }
}

// The run bits as a reception sees them. A node that is alive but not
// started hears nothing: a hello delivered before World::start() leaves
// its table empty, and the same hello after start() is heard.
TEST(World, HelloBeforeStartLeavesTableEmpty) {
    WorldParams p = small_world();
    p.oracle_neighbors = false;
    World w(p);
    const auto near = w.physical_neighbors(0);
    ASSERT_FALSE(near.empty());
    w.link().broadcast(make_hello(w.packet_pool(), 0));
    w.simulator().run_until(sim::kSecond);
    for (const util::NodeId v : near) {
        EXPECT_TRUE(w.stack(v).neighbors().empty()) << "node " << v;
    }
    w.start();
    w.link().broadcast(make_hello(w.packet_pool(), 0));
    w.simulator().run_until(w.simulator().now() + 10 * sim::kMillisecond);
    for (const util::NodeId v : near) {
        EXPECT_TRUE(w.stack(v).is_neighbor(0)) << "node " << v;
    }
}

// An asleep node hears no hello and wakes with the table it had. After a
// 5 s nap it lists exactly the neighbors it listed when it fell asleep;
// after a 40 s nap, longer than the 2.5-heartbeat expiry, it lists none,
// although every neighbor kept beaconing meanwhile.
TEST(World, AsleepNodeHearsNoHelloAndWakesWithItsTable) {
    WorldParams p = small_world();
    p.oracle_neighbors = false;
    World w(p);
    w.start();
    const util::NodeId v = 0;
    w.simulator().run_until(30 * sim::kSecond);
    const std::vector<util::NodeId> before = w.stack(v).neighbors();
    auto truth = w.physical_neighbors(v);
    std::sort(truth.begin(), truth.end());
    ASSERT_EQ(before, truth);

    w.sleep_node(v);
    w.simulator().run_until(35 * sim::kSecond);
    ASSERT_TRUE(w.wake_node(v));
    EXPECT_EQ(w.stack(v).neighbors(), before);

    w.simulator().run_until(40 * sim::kSecond);
    w.sleep_node(v);
    w.simulator().run_until(80 * sim::kSecond);
    ASSERT_TRUE(w.wake_node(v));
    EXPECT_TRUE(w.stack(v).neighbors().empty());
}

// Warm restart: a node revived within 2.5 heartbeats of its failure still
// lists the neighbors it heard before it died.
TEST(World, RevivedNodeKeepsTheNeighborsItHeard) {
    WorldParams p = small_world();
    p.oracle_neighbors = false;
    World w(p);
    w.start();
    const util::NodeId v = 0;
    w.simulator().run_until(30 * sim::kSecond);
    const std::vector<util::NodeId> before = w.stack(v).neighbors();
    ASSERT_FALSE(before.empty());
    w.fail_node(v);
    w.simulator().run_until(40 * sim::kSecond);
    ASSERT_TRUE(w.revive_node(v));
    EXPECT_EQ(w.stack(v).neighbors(), before);
    for (const util::NodeId u : before) {
        EXPECT_TRUE(w.stack(v).is_neighbor(u)) << "node " << u;
    }
}

TEST(World, StackDestructionCancelsHeartbeat) {
    WorldParams p = small_world();
    p.oracle_neighbors = false;
    World w(p);
    // A stack created and destroyed outside the world's arena must not
    // leave its heartbeat in the event queue: the callback captures `this`
    // and would fire into freed memory.
    const std::size_t before = w.simulator().pending_events();
    {
        NodeStack extra(w, 0, util::Rng(99));
        extra.start();
        EXPECT_EQ(w.simulator().pending_events(), before + 1);
    }
    EXPECT_EQ(w.simulator().pending_events(), before);
}

TEST(World, OracleNeighborsImmediate) {
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    EXPECT_EQ(w.stack(0).neighbors().size(),
              w.physical_neighbors(0).size());
}

TEST(World, StartTwiceThrows) {
    World w(small_world());
    w.start();
    EXPECT_THROW(w.start(), std::logic_error);
}

TEST(World, UnicastBetweenNeighbors) {
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    const util::NodeId a = 0;
    const auto neighbors = w.physical_neighbors(a);
    ASSERT_FALSE(neighbors.empty());
    const util::NodeId b = neighbors.front();

    struct Ping final : AppMessage {};
    int received = 0;
    w.stack(b).add_app_handler(
        [&](util::NodeId from, util::NodeId src, const AppMsgPtr& msg) {
            EXPECT_EQ(from, a);
            EXPECT_EQ(src, a);
            EXPECT_NE(dynamic_cast<const Ping*>(msg.get()), nullptr);
            ++received;
            return true;
        });
    bool acked = false;
    w.stack(a).send_unicast(b, std::make_shared<Ping>(),
                            [&](bool ok) { acked = ok; });
    w.simulator().run_until(sim::kSecond);
    EXPECT_EQ(received, 1);
    EXPECT_TRUE(acked);
    EXPECT_EQ(w.kernel_stats().data_tx, 1u);
}

TEST(World, TransmissionsCountedByCategory) {
    // The world is not started: no heartbeat fires and no stack reacts to
    // what it receives, so each send below is the only one of its kind.
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    struct Ping final : AppMessage {};
    w.link().broadcast(make_hello(w.packet_pool(), 0));
    w.stack(0).send_unicast(neighbors.front(), std::make_shared<Ping>(),
                            nullptr);
    // No route yet: AODV broadcasts one route request, and its first
    // retry is 80 ms away.
    w.stack(0).send_routed(neighbors.front(), std::make_shared<Ping>(),
                           nullptr);
    w.simulator().run_until(10 * sim::kMillisecond);

    const util::KernelStats k = w.kernel_stats();
    EXPECT_EQ(k.hello_tx, 1u);
    EXPECT_EQ(k.data_tx, 1u);
    EXPECT_EQ(k.routing_tx, 1u);
    // The string-keyed view perfbench/driver.cpp reads.
    EXPECT_EQ(w.metrics().counter("net.hello.tx"), 1.0);
    EXPECT_EQ(w.metrics().counter("net.data.tx"), 1.0);
    EXPECT_EQ(w.metrics().counter("net.routing.tx"), 1.0);
    EXPECT_EQ(w.metrics().counter("net.unknown.tx"), 0.0);
}

TEST(World, UnicastToFarNodeFails) {
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    // Find the farthest pair; they cannot be one-hop neighbors.
    util::NodeId far = 1;
    double best = 0.0;
    for (const util::NodeId v : w.alive_nodes()) {
        const double d = geom::distance(w.position(0), w.position(v));
        if (d > best) {
            best = d;
            far = v;
        }
    }
    ASSERT_GT(best, w.range());
    struct Ping final : AppMessage {};
    bool failed = false;
    w.stack(0).send_unicast(far, std::make_shared<Ping>(),
                            [&](bool ok) { failed = !ok; });
    w.simulator().run_until(sim::kSecond);
    EXPECT_TRUE(failed);
}

TEST(World, BroadcastReachesNeighbors) {
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    struct Ping final : AppMessage {};
    int received = 0;
    for (const util::NodeId v : w.alive_nodes()) {
        if (v == 0) {
            continue;
        }
        w.stack(v).add_app_handler(
            [&](util::NodeId, util::NodeId, const AppMsgPtr& msg) {
                if (dynamic_cast<const Ping*>(msg.get()) != nullptr) {
                    ++received;
                    return true;
                }
                return false;
            });
    }
    w.stack(0).send_broadcast(std::make_shared<Ping>());
    w.simulator().run_until(sim::kSecond);
    EXPECT_EQ(static_cast<std::size_t>(received),
              w.physical_neighbors(0).size());
}

TEST(World, MobileWorldChangesTopologyOverTime) {
    WorldParams p = small_world(80, 3);
    p.mobile = true;
    p.waypoint.min_speed = 5.0;
    p.waypoint.max_speed = 10.0;
    p.waypoint.pause = sim::kSecond;
    World w(p);
    w.start();
    const auto before = w.physical_neighbors(0);
    w.simulator().run_until(120 * sim::kSecond);
    auto after = w.physical_neighbors(0);
    std::vector<util::NodeId> b = before;
    std::sort(b.begin(), b.end());
    std::sort(after.begin(), after.end());
    EXPECT_NE(b, after);
}

TEST(World, DeliverToDeadNodeDropped) {
    WorldParams p = small_world();
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    const util::NodeId b = neighbors.front();
    struct Ping final : AppMessage {};
    int received = 0;
    w.stack(b).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++received;
            return true;
        });
    w.fail_node(b);
    bool cb_ok = true;
    w.stack(0).send_unicast(b, std::make_shared<Ping>(),
                            [&](bool ok) { cb_ok = ok; });
    w.simulator().run_until(sim::kSecond);
    EXPECT_EQ(received, 0);
    EXPECT_FALSE(cb_ok);
}

}  // namespace
}  // namespace pqs::net
