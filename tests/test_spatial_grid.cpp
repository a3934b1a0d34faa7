#include "geom/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace pqs::geom {
namespace {

// The grid keeps cells, not positions: like World, each test owns the
// positions it places, and a range query is the grid's cell candidates
// kept when their position is in range (the RGG builder's test).
class Placed {
public:
    explicit Placed(double side, double cell, Metric metric = Metric::kPlane)
        : grid(side, cell, metric) {}

    void insert(util::NodeId id, Vec2 p) {
        grid.insert(id, p);
        slot(id) = p;
    }
    void move(util::NodeId id, Vec2 p) {
        grid.move(id, p);
        slot(id) = p;
    }
    void remove(util::NodeId id) { grid.remove(id); }

    std::vector<util::NodeId> query(
        Vec2 center, double radius,
        util::NodeId exclude = util::kInvalidNode) const {
        std::vector<util::NodeId> out;
        grid.query_cells(center, radius, out, exclude);
        std::erase_if(out, [&](util::NodeId id) {
            if (grid.metric() == Metric::kTorus) {
                const double d = torus_distance(center, pos_[id], grid.side());
                return d * d > radius * radius;
            }
            return !in_range(center, pos_[id], radius);
        });
        return out;
    }

    SpatialGrid grid;

private:
    Vec2& slot(util::NodeId id) {
        if (pos_.size() <= id) {
            pos_.resize(id + 1);
        }
        return pos_[id];
    }
    std::vector<Vec2> pos_;
};

std::vector<util::NodeId> brute_force(const std::vector<Vec2>& pts,
                                      Vec2 center, double radius,
                                      util::NodeId exclude, Metric metric,
                                      double side) {
    std::vector<util::NodeId> out;
    for (util::NodeId i = 0; i < pts.size(); ++i) {
        if (i == exclude) {
            continue;
        }
        const bool hit =
            metric == Metric::kPlane
                ? in_range(center, pts[i], radius)
                : torus_distance(center, pts[i], side) <= radius;
        if (hit) {
            out.push_back(i);
        }
    }
    return out;
}

TEST(SpatialGrid, RejectsBadParams) {
    EXPECT_THROW(SpatialGrid(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(SpatialGrid(1.0, 0.0), std::invalid_argument);
}

TEST(SpatialGrid, InsertQueryRemove) {
    Placed placed(100.0, 10.0);
    placed.insert(0, {5.0, 5.0});
    placed.insert(1, {8.0, 5.0});
    placed.insert(2, {50.0, 50.0});
    EXPECT_EQ(placed.grid.size(), 3u);

    auto near = placed.query({5.0, 5.0}, 5.0);
    std::sort(near.begin(), near.end());
    EXPECT_EQ(near, (std::vector<util::NodeId>{0, 1}));

    near = placed.query({5.0, 5.0}, 5.0, /*exclude=*/0);
    EXPECT_EQ(near, (std::vector<util::NodeId>{1}));

    placed.remove(1);
    EXPECT_EQ(placed.grid.size(), 2u);
    EXPECT_FALSE(placed.grid.contains(1));
    near = placed.query({5.0, 5.0}, 5.0);
    EXPECT_EQ(near, (std::vector<util::NodeId>{0}));
}

TEST(SpatialGrid, DoubleInsertThrows) {
    SpatialGrid grid(10.0, 1.0);
    grid.insert(3, {1.0, 1.0});
    EXPECT_THROW(grid.insert(3, {2.0, 2.0}), std::logic_error);
}

TEST(SpatialGrid, RemoveMissingThrows) {
    SpatialGrid grid(10.0, 1.0);
    EXPECT_THROW(grid.remove(0), std::logic_error);
    EXPECT_THROW(grid.move(0, {1.0, 1.0}), std::logic_error);
}

TEST(SpatialGrid, MoveAcrossCells) {
    Placed placed(100.0, 10.0);
    placed.insert(0, {5.0, 5.0});
    placed.move(0, {95.0, 95.0});
    std::vector<util::NodeId> cells;
    placed.grid.query_cells({5.0, 5.0}, 8.0, cells);
    EXPECT_TRUE(cells.empty());
    placed.grid.query_cells({95.0, 95.0}, 8.0, cells);
    EXPECT_EQ(cells, (std::vector<util::NodeId>{0}));
    EXPECT_EQ(placed.query({95.0, 95.0}, 8.0).size(), 1u);
}

TEST(SpatialGrid, QueryMatchesBruteForcePlane) {
    util::Rng rng(99);
    const double side = 200.0;
    Placed placed(side, 25.0);
    std::vector<Vec2> pts;
    for (util::NodeId i = 0; i < 300; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
        placed.insert(i, pts.back());
    }
    for (int trial = 0; trial < 50; ++trial) {
        const Vec2 center{rng.uniform(0.0, side), rng.uniform(0.0, side)};
        const double radius = rng.uniform(1.0, 60.0);
        auto got = placed.query(center, radius);
        auto want = brute_force(pts, center, radius, util::kInvalidNode,
                                Metric::kPlane, side);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

TEST(SpatialGrid, QueryMatchesBruteForceTorus) {
    util::Rng rng(7);
    const double side = 100.0;
    Placed placed(side, 20.0, Metric::kTorus);
    std::vector<Vec2> pts;
    for (util::NodeId i = 0; i < 200; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
        placed.insert(i, pts.back());
    }
    for (int trial = 0; trial < 50; ++trial) {
        const Vec2 center{rng.uniform(0.0, side), rng.uniform(0.0, side)};
        const double radius = rng.uniform(1.0, 45.0);
        auto got = placed.query(center, radius);
        auto want = brute_force(pts, center, radius, util::kInvalidNode,
                                Metric::kTorus, side);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "trial " << trial;
    }
}

TEST(SpatialGrid, TorusWrapsAcrossBoundary) {
    Placed placed(100.0, 10.0, Metric::kTorus);
    placed.insert(0, {1.0, 50.0});
    placed.insert(1, {99.0, 50.0});
    const auto near = placed.query({1.0, 50.0}, 5.0, 0);
    EXPECT_EQ(near, (std::vector<util::NodeId>{1}));
}

TEST(SpatialGrid, SparseIdsSupported) {
    Placed placed(10.0, 1.0);
    placed.insert(1000, {5.0, 5.0});
    EXPECT_TRUE(placed.grid.contains(1000));
    EXPECT_FALSE(placed.grid.contains(999));
    EXPECT_EQ(placed.query({5.0, 5.0}, 1.0).front(), 1000u);
}

TEST(SpatialGridMove, SameCellUpdatesPositionWithoutCrossing) {
    Placed placed(100.0, 10.0);
    placed.insert(0, {5.0, 5.0});
    placed.move(0, {9.0, 9.0});  // stays inside cell (0,0)
    EXPECT_EQ(placed.grid.stats().grid_moves, 1u);
    EXPECT_EQ(placed.grid.stats().grid_cell_crossings, 0u);
    // The cell still holds the node, and the caller's updated position —
    // not the insert-time one — decides the range test.
    EXPECT_EQ(placed.query({9.5, 9.5}, 1.0).size(), 1u);
    EXPECT_TRUE(placed.query({5.0, 5.0}, 1.0).empty());
}

TEST(SpatialGridMove, CellBoundaryCrossings) {
    Placed placed(100.0, 10.0);
    placed.insert(0, {9.999, 5.0});
    // Cross the x boundary by a hair: cell (0,0) -> (1,0).
    placed.move(0, {10.0, 5.0});
    EXPECT_EQ(placed.grid.stats().grid_cell_crossings, 1u);
    EXPECT_EQ(placed.query({10.5, 5.0}, 1.0).size(), 1u);
    // Exactly on the boundary going back below it.
    placed.move(0, {9.999, 5.0});
    EXPECT_EQ(placed.grid.stats().grid_cell_crossings, 2u);
    // Diagonal crossing (both axes at once).
    placed.move(0, {15.0, 15.0});
    EXPECT_EQ(placed.grid.stats().grid_cell_crossings, 3u);
    EXPECT_EQ(placed.grid.stats().grid_moves, 3u);
    EXPECT_EQ(placed.query({15.0, 15.0}, 1.0).size(), 1u);
    EXPECT_EQ(placed.grid.size(), 1u);
}

TEST(SpatialGridMove, CornerCellsAndClamping) {
    Placed placed(100.0, 10.0);
    placed.insert(0, {50.0, 50.0});
    // All four corners, including the far corner where side/cell lands
    // exactly on the last cell boundary (x=100 clamps to index 9).
    for (const Vec2 corner : {Vec2{0.0, 0.0}, Vec2{100.0, 0.0},
                              Vec2{0.0, 100.0}, Vec2{100.0, 100.0}}) {
        placed.move(0, corner);
        const auto near = placed.query(corner, 0.5);
        ASSERT_EQ(near.size(), 1u) << "corner " << corner.x << ","
                                   << corner.y;
        EXPECT_EQ(near.front(), 0u);
    }
    // Slightly out-of-range coordinates clamp into the edge cells rather
    // than indexing out of bounds (mobility integration can overshoot by
    // an epsilon before the waypoint model reflects).
    placed.move(0, {-0.25, 100.25});
    EXPECT_EQ(placed.query({0.0, 100.0}, 1.0).size(), 1u);
    EXPECT_EQ(placed.grid.size(), 1u);
}

TEST(SpatialGridMove, SwapRemoveKeepsCohabitantsConsistent) {
    // Three nodes in one cell; moving the middle one out exercises the
    // swap-remove slot fixup, then moving it back appends it after the
    // survivor whose slot changed.
    Placed placed(100.0, 10.0);
    placed.insert(10, {1.0, 1.0});
    placed.insert(11, {2.0, 2.0});
    placed.insert(12, {3.0, 3.0});
    placed.move(11, {55.0, 55.0});
    auto near = placed.query({2.0, 2.0}, 5.0);
    std::sort(near.begin(), near.end());
    EXPECT_EQ(near, (std::vector<util::NodeId>{10, 12}));
    placed.move(11, {2.0, 2.0});
    near = placed.query({2.0, 2.0}, 5.0);
    std::sort(near.begin(), near.end());
    EXPECT_EQ(near, (std::vector<util::NodeId>{10, 11, 12}));
    // And removing the node whose slot was fixed up must still unlink
    // cleanly (regression guard for stale Entry::slot).
    placed.remove(12);
    near = placed.query({2.0, 2.0}, 5.0);
    std::sort(near.begin(), near.end());
    EXPECT_EQ(near, (std::vector<util::NodeId>{10, 11}));
}

TEST(SpatialGridMove, RandomWalkMatchesBruteForce) {
    // Mobility-shaped differential: 60 nodes take 200 random clamped
    // steps each; after every batch the grid must agree with brute force.
    util::Rng rng(1234);
    const double side = 120.0;
    Placed placed(side, 15.0);
    std::vector<Vec2> pts;
    for (util::NodeId i = 0; i < 60; ++i) {
        pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
        placed.insert(i, pts.back());
    }
    for (int round = 0; round < 200; ++round) {
        for (util::NodeId i = 0; i < 60; ++i) {
            Vec2 p = pts[i];
            p.x = std::clamp(p.x + rng.uniform(-20.0, 20.0), 0.0, side);
            p.y = std::clamp(p.y + rng.uniform(-20.0, 20.0), 0.0, side);
            pts[i] = p;
            placed.move(i, p);
        }
        const Vec2 center{rng.uniform(0.0, side), rng.uniform(0.0, side)};
        const double radius = rng.uniform(1.0, 30.0);
        auto got = placed.query(center, radius);
        auto want = brute_force(pts, center, radius, util::kInvalidNode,
                                Metric::kPlane, side);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "round " << round;
    }
    EXPECT_EQ(placed.grid.stats().grid_moves, 60u * 200u);
    EXPECT_GT(placed.grid.stats().grid_cell_crossings, 0u);
    EXPECT_LT(placed.grid.stats().grid_cell_crossings, 60u * 200u);
}

TEST(Vec2, Arithmetic) {
    const Vec2 a{1.0, 2.0};
    const Vec2 b{3.0, 4.0};
    EXPECT_EQ((a + b), (Vec2{4.0, 6.0}));
    EXPECT_EQ((b - a), (Vec2{2.0, 2.0}));
    EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
    EXPECT_DOUBLE_EQ((Vec2{3.0, 4.0}).norm(), 5.0);
    EXPECT_DOUBLE_EQ(distance_sq(a, b), 8.0);
}

// The plane's one range predicate decides on the squared distance.
TEST(InRange, BoundaryIsDecidedOnTheSquaredDistance) {
    const Vec2 origin{0.0, 0.0};
    // 3^2 + 4^2 = 5^2 exactly: a point on the circle is in range.
    EXPECT_TRUE(in_range(origin, {3.0, 4.0}, 5.0));
    // One double further out, or one double less radius, is out.
    EXPECT_FALSE(in_range(origin, {3.0, std::nextafter(4.0, 5.0)}, 5.0));
    EXPECT_FALSE(in_range(origin, {3.0, 4.0}, std::nextafter(5.0, 0.0)));
    // Where hypot and the squared sum round to different sides of r, the
    // squared sum decides. hypot(0.174, 0.232) rounds to 0.29, but
    // 0.174^2 + 0.232^2 rounds to 0.08410000000000001 > 0.29^2: out.
    EXPECT_EQ(std::hypot(0.174, 0.232), 0.29);
    EXPECT_EQ(distance_sq(origin, {0.174, 0.232}), 0.08410000000000001);
    EXPECT_EQ(0.29 * 0.29, 0.0841);
    EXPECT_FALSE(in_range(origin, {0.174, 0.232}, 0.29));
    // And the other way: hypot(1.002, 1.336) rounds above 1.67, while the
    // squared sum equals 1.67^2: in.
    EXPECT_GT(std::hypot(1.002, 1.336), 1.67);
    EXPECT_EQ(distance_sq(origin, {1.002, 1.336}), 1.67 * 1.67);
    EXPECT_TRUE(in_range(origin, {1.002, 1.336}, 1.67));
    // 0.3^2 + 0.4^2 rounds to exactly 0.25 = 0.5^2: in.
    EXPECT_EQ(distance_sq(origin, {0.3, 0.4}), 0.25);
    EXPECT_TRUE(in_range(origin, {0.3, 0.4}, 0.5));
}

TEST(InRange, IsSymmetric) {
    util::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Vec2 a{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
        const Vec2 b{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
        // At the boundary (a rounded true distance) and at any radius.
        for (const double r : {std::sqrt(distance_sq(a, b)),
                               rng.uniform(0.0, 1500.0)}) {
            ASSERT_EQ(in_range(a, b, r), in_range(b, a, r));
        }
    }
}

TEST(Vec2, TorusDistance) {
    EXPECT_DOUBLE_EQ(torus_distance({0.5, 0.0}, {99.5, 0.0}, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(torus_distance({0.0, 1.0}, {0.0, 99.0}, 100.0), 2.0);
    EXPECT_DOUBLE_EQ(torus_distance({10.0, 10.0}, {20.0, 10.0}, 100.0), 10.0);
}

}  // namespace
}  // namespace pqs::geom
