#include "core/reply_path.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/graph.h"
#include "net/node_stack.h"
#include "net/world.h"

namespace pqs::core {
namespace {

struct ReplyFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<ReplyPathRouter> router;
    std::vector<std::pair<util::NodeId, ReverseReplyMsg>> delivered;

    void build(std::size_t n, std::uint64_t seed = 1, bool mobile = false) {
        net::WorldParams p;
        p.n = n;
        p.seed = seed;
        p.oracle_neighbors = true;
        p.mobile = mobile;
        world = std::make_unique<net::World>(p);
        router = std::make_unique<ReplyPathRouter>(*world);
        router->set_deliver(
            [this](util::NodeId origin, const ReverseReplyMsg& msg) {
                delivered.emplace_back(origin, msg);
            });
        for (util::NodeId id = 0; id < world->node_count(); ++id) {
            router->attach_node(id);
        }
        world->start();
    }

    // A shortest path in the current topology from a to b (inclusive).
    std::vector<util::NodeId> path_between(util::NodeId a, util::NodeId b) {
        const geom::Graph g = world->snapshot_graph();
        const auto dist = g.bfs_distances(a);
        EXPECT_NE(dist[b], geom::kUnreachable);
        std::vector<util::NodeId> rpath{b};
        util::NodeId cur = b;
        while (cur != a) {
            for (const util::NodeId nb : g.neighbors(cur)) {
                if (dist[nb] + 1 == dist[cur]) {
                    cur = nb;
                    rpath.push_back(cur);
                    break;
                }
            }
        }
        return {rpath.rbegin(), rpath.rend()};
    }
};

TEST_F(ReplyFixture, DeliversAlongReversePath) {
    build(80);
    // Forward path from origin 0 to some multi-hop node.
    util::NodeId far = 0;
    const auto dist = world->snapshot_graph().bfs_distances(0);
    for (util::NodeId v = 0; v < world->node_count(); ++v) {
        if (dist[v] != geom::kUnreachable && dist[v] >= 3) {
            far = v;
            break;
        }
    }
    ASSERT_NE(far, 0u);
    const auto fwd = path_between(0, far);
    auto tracker = std::make_shared<ReplyTracker>();
    ReplyOptions opts;
    opts.path_reduction = false;
    router->start_reply(far, /*tag=*/7, util::AccessId{0, 1}, /*key=*/42,
                        /*value=*/99, fwd, opts, tracker);
    world->simulator().run_until(30 * sim::kSecond);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].first, 0u);
    EXPECT_EQ(delivered[0].second.key, 42u);
    EXPECT_EQ(delivered[0].second.value, 99u);
    EXPECT_EQ(delivered[0].second.strategy_tag, 7u);
    EXPECT_TRUE(tracker->delivered);
    EXPECT_FALSE(tracker->dropped);
}

TEST_F(ReplyFixture, ImmediateDeliveryWhenAtOrigin) {
    build(30);
    auto tracker = std::make_shared<ReplyTracker>();
    router->start_reply(5, 1, util::AccessId{5, 1}, 1, 2, {5}, ReplyOptions{},
                        tracker);
    world->simulator().run_until(sim::kSecond);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].first, 5u);
    EXPECT_TRUE(tracker->delivered);
}

TEST_F(ReplyFixture, PathReductionShortcutsNeighborOrigin) {
    build(80, 2);
    // Construct an artificially long forward path that wanders among the
    // origin's neighborhood: with reduction the reply jumps straight home.
    const auto neigh = world->physical_neighbors(0);
    ASSERT_GE(neigh.size(), 2u);
    std::vector<util::NodeId> fwd{0, neigh[0], neigh[1]};
    const std::uint64_t before = world->kernel_stats().data_tx;
    ReplyOptions opts;
    opts.path_reduction = true;
    auto tracker = std::make_shared<ReplyTracker>();
    router->start_reply(neigh[1], 1, util::AccessId{0, 2}, 1, 2, fwd, opts,
                        tracker);
    world->simulator().run_until(10 * sim::kSecond);
    ASSERT_EQ(delivered.size(), 1u);
    // One hop (neigh[1] -> 0) instead of two.
    EXPECT_EQ(world->kernel_stats().data_tx - before, 1u);
}

TEST_F(ReplyFixture, WithoutReductionTakesFullPath) {
    build(80, 2);
    const auto neigh = world->physical_neighbors(0);
    ASSERT_GE(neigh.size(), 2u);
    // Find a pair of node 0's neighbors that are also mutual neighbors
    // (a triangle), so each reverse-path leg is a valid one-hop unicast.
    util::NodeId a = util::kInvalidNode;
    util::NodeId b = util::kInvalidNode;
    for (std::size_t i = 0; i < neigh.size() && a == util::kInvalidNode;
         ++i) {
        const auto ni = world->physical_neighbors(neigh[i]);
        for (std::size_t j = i + 1; j < neigh.size(); ++j) {
            if (std::find(ni.begin(), ni.end(), neigh[j]) != ni.end()) {
                a = neigh[i];
                b = neigh[j];
                break;
            }
        }
    }
    ASSERT_NE(a, util::kInvalidNode)
        << "no triangle around node 0 at this density (d_avg=10: "
           "essentially impossible)";
    std::vector<util::NodeId> fwd{0, a, b};
    const std::uint64_t before = world->kernel_stats().data_tx;
    ReplyOptions opts;
    opts.path_reduction = false;
    router->start_reply(b, 1, util::AccessId{0, 3}, 1, 2, fwd, opts,
                        std::make_shared<ReplyTracker>());
    world->simulator().run_until(10 * sim::kSecond);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(world->kernel_stats().data_tx - before, 2u);
}

TEST_F(ReplyFixture, LocalRepairSkipsDeadHop) {
    build(100, 4);
    // Forward path 0 -> ... -> far; kill an interior hop, reply must still
    // arrive via TTL-scoped routing around it.
    const auto dist = world->snapshot_graph().bfs_distances(0);
    util::NodeId far = 0;
    for (util::NodeId v = 0; v < world->node_count(); ++v) {
        if (dist[v] != geom::kUnreachable && dist[v] >= 4) {
            far = v;
            break;
        }
    }
    ASSERT_NE(far, 0u);
    const auto fwd = path_between(0, far);
    ASSERT_GE(fwd.size(), 5u);
    const util::NodeId victim = fwd[fwd.size() - 2];  // hop next to `far`
    world->fail_node(victim);

    ReplyOptions opts;
    opts.path_reduction = false;
    opts.local_repair = true;
    opts.repair_ttl = 3;
    auto tracker = std::make_shared<ReplyTracker>();
    router->start_reply(far, 1, util::AccessId{0, 4}, 10, 20, fwd, opts,
                        tracker);
    world->simulator().run_until(120 * sim::kSecond);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_TRUE(tracker->delivered);
    EXPECT_GE(tracker->repairs, 1u);
}

TEST_F(ReplyFixture, NoRepairDropsOnDeadHop) {
    build(100, 4);
    const auto dist = world->snapshot_graph().bfs_distances(0);
    util::NodeId far = 0;
    for (util::NodeId v = 0; v < world->node_count(); ++v) {
        if (dist[v] != geom::kUnreachable && dist[v] >= 4) {
            far = v;
            break;
        }
    }
    const auto fwd = path_between(0, far);
    const util::NodeId victim = fwd[fwd.size() - 2];
    world->fail_node(victim);

    ReplyOptions opts;
    opts.path_reduction = false;
    opts.local_repair = false;
    auto tracker = std::make_shared<ReplyTracker>();
    bool drop_seen = false;
    tracker->on_dropped = [&] { drop_seen = true; };
    router->start_reply(far, 1, util::AccessId{0, 5}, 10, 20, fwd, opts,
                        tracker);
    world->simulator().run_until(120 * sim::kSecond);
    EXPECT_TRUE(delivered.empty());
    EXPECT_TRUE(tracker->dropped);
    EXPECT_TRUE(drop_seen);
}

TEST_F(ReplyFixture, TrackerDropIsIdempotent) {
    ReplyTracker t;
    int drops = 0;
    t.on_dropped = [&] { ++drops; };
    t.mark_dropped();
    t.mark_dropped();
    EXPECT_EQ(drops, 1);
    ReplyTracker t2;
    t2.delivered = true;
    t2.mark_dropped();
    EXPECT_FALSE(t2.dropped);
}

}  // namespace
}  // namespace pqs::core
