// Abstract link-layer behaviours: latency bounds, residual loss models,
// promiscuous overhearing, and a hidden-terminal stress test on the full
// MAC stack.
#include <gtest/gtest.h>

#include "net/node_stack.h"
#include "net/world.h"

namespace pqs::net {
namespace {

struct Ping final : AppMessage {};

TEST(AbstractLink, UnicastLatencyWithinConfiguredBounds) {
    WorldParams p;
    p.n = 40;
    p.seed = 1;
    p.oracle_neighbors = true;
    p.abstract_link.delay_min = 5 * sim::kMillisecond;
    p.abstract_link.delay_max = 9 * sim::kMillisecond;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    for (int i = 0; i < 20; ++i) {
        sim::Time sent = w.simulator().now();
        sim::Time got = -1;
        bool done = false;
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                [&](bool) {
                                    got = w.simulator().now();
                                    done = true;
                                });
        while (!done && w.simulator().step()) {
        }
        const sim::Time latency = got - sent;
        EXPECT_GE(latency, p.abstract_link.delay_min);
        EXPECT_LE(latency, p.abstract_link.delay_max);
    }
}

TEST(AbstractLink, ResidualUnicastLossRate) {
    WorldParams p;
    p.n = 40;
    p.seed = 2;
    p.oracle_neighbors = true;
    p.abstract_link.unicast_loss = 0.3;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    int ok = 0;
    const int sends = 300;
    int done_count = 0;
    for (int i = 0; i < sends; ++i) {
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                [&](bool success) {
                                    ok += success ? 1 : 0;
                                    ++done_count;
                                });
    }
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(done_count, sends);
    EXPECT_NEAR(static_cast<double>(ok) / sends, 0.7, 0.08);
}

TEST(AbstractLink, BroadcastLossIsPerReceiver) {
    WorldParams p;
    p.n = 60;
    p.seed = 3;
    p.oracle_neighbors = true;
    p.abstract_link.broadcast_loss = 0.5;
    World w(p);
    w.start();
    int received = 0;
    for (const util::NodeId v : w.alive_nodes()) {
        if (v == 0) continue;
        w.stack(v).add_app_handler(
            [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
                ++received;
                return true;
            });
    }
    const int rounds = 50;
    for (int i = 0; i < rounds; ++i) {
        w.stack(0).send_broadcast(std::make_shared<Ping>());
        w.simulator().run_until(w.simulator().now() + 100 * sim::kMillisecond);
    }
    const double per_round =
        static_cast<double>(received) / rounds;
    const double neighbors =
        static_cast<double>(w.physical_neighbors(0).size());
    EXPECT_NEAR(per_round / neighbors, 0.5, 0.12);
}

TEST(AbstractLink, PromiscuousDeliversToBystanders) {
    WorldParams p;
    p.n = 50;
    p.seed = 4;
    p.oracle_neighbors = true;
    p.abstract_link.promiscuous = true;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_GE(neighbors.size(), 2u);
    int overheard = 0;
    for (const util::NodeId v : neighbors) {
        if (v == neighbors[0]) continue;
        w.stack(v).add_overhear_handler(
            [&](const Packet& packet) {
                if (packet.is_data()) {
                    ++overheard;
                }
            });
    }
    w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(), nullptr);
    w.simulator().run_until(sim::kSecond);
    EXPECT_GT(overheard, 0);
}

TEST(AbstractLink, NonPromiscuousNoOverhearing) {
    WorldParams p;
    p.n = 50;
    p.seed = 4;
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_GE(neighbors.size(), 2u);
    int overheard = 0;
    for (const util::NodeId v : w.alive_nodes()) {
        w.stack(v).add_overhear_handler(
            [&](const Packet&) { ++overheard; });
    }
    w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(), nullptr);
    w.simulator().run_until(sim::kSecond);
    EXPECT_EQ(overheard, 0);
}

TEST(AbstractLink, FaultInjectionDropSuppressesDelivery) {
    WorldParams p;
    p.n = 40;
    p.seed = 6;
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    int delivered = 0;
    w.stack(neighbors[0]).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++delivered;
            return true;
        });

    w.link().set_fault_injection(LinkFaults{1.0, 0.0});
    EXPECT_TRUE(w.link().fault_injection().active());
    for (int i = 0; i < 20; ++i) {
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                nullptr);
    }
    w.simulator().run_until(w.simulator().now() + 5 * sim::kSecond);
    EXPECT_EQ(delivered, 0);

    // Clearing the faults restores normal delivery on the same link.
    w.link().set_fault_injection(LinkFaults{});
    EXPECT_FALSE(w.link().fault_injection().active());
    w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(), nullptr);
    w.simulator().run_until(w.simulator().now() + 5 * sim::kSecond);
    EXPECT_EQ(delivered, 1);
}

TEST(AbstractLink, FaultInjectionDuplicateDeliversTwice) {
    WorldParams p;
    p.n = 40;
    p.seed = 7;
    p.oracle_neighbors = true;
    World w(p);
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_FALSE(neighbors.empty());
    int delivered = 0;
    w.stack(neighbors[0]).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++delivered;
            return true;
        });
    w.link().set_fault_injection(LinkFaults{0.0, 1.0});
    const int sends = 10;
    for (int i = 0; i < sends; ++i) {
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                nullptr);
    }
    w.simulator().run_until(w.simulator().now() + 5 * sim::kSecond);
    EXPECT_EQ(delivered, 2 * sends);
}

// A send from an asleep node never goes on the air, so neither link layer
// counts it; awake again, each send counts once.
TEST(LinkCounters, AsleepSenderIsNotCounted) {
    for (const Fidelity fidelity : {Fidelity::kAbstract, Fidelity::kFull}) {
        SCOPED_TRACE(fidelity == Fidelity::kAbstract ? "abstract" : "full");
        WorldParams p;
        p.n = 40;
        p.seed = 8;
        p.oracle_neighbors = true;
        p.fidelity = fidelity;
        World w(p);  // not started: no heartbeats
        const auto neighbors = w.physical_neighbors(0);
        ASSERT_FALSE(neighbors.empty());
        const auto sent = [&w] {
            const util::KernelStats k = w.kernel_stats();
            return k.hello_tx + k.routing_tx + k.data_tx;
        };

        w.sleep_node(0);
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                nullptr);
        w.stack(0).send_broadcast(std::make_shared<Ping>());
        w.simulator().run_until(sim::kSecond);
        EXPECT_EQ(sent(), 0u);

        ASSERT_TRUE(w.wake_node(0));
        w.stack(0).send_unicast(neighbors[0], std::make_shared<Ping>(),
                                nullptr);
        EXPECT_EQ(sent(), 1u);
        w.stack(0).send_broadcast(std::make_shared<Ping>());
        EXPECT_EQ(sent(), 2u);
    }
}

// Hidden terminal on the full MAC: A and C are out of carrier-sense range
// of each other but both reach B. Concurrent bursts collide at B, yet the
// ack/retry machinery eventually delivers everything.
TEST(FullMac, HiddenTerminalRetriesResolveCollisions) {
    WorldParams p;
    p.n = 3;
    p.seed = 5;
    p.fidelity = Fidelity::kFull;
    p.ensure_connected = false;
    p.oracle_neighbors = true;
    World w(p);
    // Place A - B - C on a line: A-B and B-C within 200 m decode range,
    // A-C at 360 m (beyond the 299 m carrier-sense range).
    w.set_position(0, {0.0, 0.0});
    w.set_position(1, {180.0, 0.0});
    w.set_position(2, {360.0, 0.0});
    w.start();

    int received = 0;
    w.stack(1).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++received;
            return true;
        });
    int acked = 0;
    const int per_sender = 10;
    for (int i = 0; i < per_sender; ++i) {
        w.stack(0).send_unicast(1, std::make_shared<Ping>(),
                                [&](bool ok) { acked += ok ? 1 : 0; });
        w.stack(2).send_unicast(1, std::make_shared<Ping>(),
                                [&](bool ok) { acked += ok ? 1 : 0; });
    }
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_EQ(acked, 2 * per_sender);
    EXPECT_EQ(received, 2 * per_sender);
}

}  // namespace
}  // namespace pqs::net
