#include "membership/oracle_membership.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pqs::membership {
namespace {

net::WorldParams world_params(std::size_t n, std::uint64_t seed = 1) {
    net::WorldParams p;
    p.n = n;
    p.seed = seed;
    p.oracle_neighbors = true;
    return p;
}

TEST(DefaultViewSize, TwoSqrtN) {
    EXPECT_EQ(default_view_size(800), 57u);  // ceil(2*sqrt(800)) = 57
    EXPECT_EQ(default_view_size(100), 20u);
}

TEST(OracleMembership, ViewSizeDefaults) {
    net::World w(world_params(100));
    OracleMembership m(w);
    const auto view = m.view(0);
    EXPECT_EQ(view.size(), default_view_size(100));
}

TEST(OracleMembership, SampleDistinctAndAlive) {
    net::World w(world_params(100));
    OracleMembership m(w);
    const auto sample = m.sample(3, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<util::NodeId> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const util::NodeId id : sample) {
        EXPECT_TRUE(w.alive(id));
    }
}

TEST(OracleMembership, SampleCappedByView) {
    net::World w(world_params(50));
    OracleMembershipParams p;
    p.view_size = 5;
    OracleMembership m(w, p);
    EXPECT_EQ(m.sample(0, 50).size(), 5u);
}

TEST(OracleMembership, ViewStableWithinRefreshPeriod) {
    net::World w(world_params(100));
    OracleMembership m(w);
    const auto v1 = m.view(0);
    const auto v2 = m.view(0);
    EXPECT_EQ(v1, v2);
}

TEST(OracleMembership, ViewRefreshesAfterPeriod) {
    net::World w(world_params(100));
    OracleMembershipParams p;
    p.refresh_period = 10 * sim::kSecond;
    OracleMembership m(w, p);
    const auto v1 = m.view(0);
    w.simulator().run_until(11 * sim::kSecond);
    const auto v2 = m.view(0);
    EXPECT_NE(v1, v2);  // resampled (astronomically unlikely to repeat)
}

TEST(OracleMembership, StaleViewsRetainDeadNodes) {
    net::World w(world_params(100));
    OracleMembership m(w);
    const auto view = m.view(0);
    // Kill a view member; before the refresh period it stays in the view.
    const util::NodeId victim = view.front();
    w.fail_node(victim);
    const auto again = m.view(0);
    EXPECT_NE(std::find(again.begin(), again.end(), victim), again.end());
    // After the refresh period it is gone.
    w.simulator().run_until(11 * sim::kSecond);
    const auto fresh = m.view(0);
    EXPECT_EQ(std::find(fresh.begin(), fresh.end(), victim), fresh.end());
}

TEST(OracleMembership, ApproximatelyUniform) {
    net::World w(world_params(60));
    OracleMembershipParams p;
    p.view_size = 10;
    p.refresh_period = sim::kMillisecond;  // fresh view for every sample
    OracleMembership m(w, p);
    std::vector<int> counts(60, 0);
    for (int round = 0; round < 600; ++round) {
        w.simulator().run_until(w.simulator().now() + sim::kMillisecond * 2);
        for (const util::NodeId id : m.sample(0, 10)) {
            ++counts[id];
        }
    }
    // Each node expected 100 appearances; allow generous tolerance.
    for (const int c : counts) {
        EXPECT_GT(c, 40);
        EXPECT_LT(c, 180);
    }
}

}  // namespace
}  // namespace pqs::membership
