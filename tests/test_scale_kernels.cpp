// Units and differential tests for the scale-out kernels behind the SoA
// world: the bump Arena, the rank/select AliveSet (vs. the sorted
// alive_nodes() snapshot it replaces), the BlockPool packet recycler,
// and the flat-storage SpatialGrid (vs. the frozen vector-of-vectors
// implementation in legacy_spatial_grid.h — identical results in
// identical order under random insert/remove/move/query interleavings).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/spatial_grid.h"
#include "legacy_spatial_grid.h"
#include "util/alive_set.h"
#include "util/arena.h"
#include "util/pool.h"
#include "util/rng.h"

namespace pqs {
namespace {

TEST(Arena, BumpAllocatesAlignedAndTracksHighWater) {
    util::Arena arena(256);  // small chunks to force chunk growth
    std::vector<void*> ptrs;
    for (int i = 0; i < 100; ++i) {
        void* p = arena.allocate(24, 8);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
        for (void* q : ptrs) {
            EXPECT_NE(p, q);
        }
        ptrs.push_back(p);
    }
    EXPECT_GE(arena.bytes_allocated(), 100u * 24u);
    EXPECT_EQ(arena.high_water(), arena.bytes_allocated());

    // Oversized request (bigger than the chunk) still succeeds.
    void* big = arena.allocate(1024, 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
}

TEST(Arena, CreateRunsConstructorDestroyRunsDestructor) {
    struct Probe {
        explicit Probe(int* flag) : flag_(flag) { *flag_ = 1; }
        ~Probe() { *flag_ = 2; }
        int* flag_;
        char pad[40] = {};
    };
    util::Arena arena;
    int flag = 0;
    Probe* p = arena.create<Probe>(&flag);
    EXPECT_EQ(flag, 1);
    util::Arena::destroy(p);
    EXPECT_EQ(flag, 2);
}

// Reference for AliveSet: the world's historical snapshot — ascending ids
// of set bits.
std::vector<util::NodeId> snapshot(const std::vector<bool>& alive) {
    std::vector<util::NodeId> out;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        if (alive[i]) {
            out.push_back(static_cast<util::NodeId>(i));
        }
    }
    return out;
}

TEST(AliveSet, SelectMatchesSortedSnapshotUnderChurn) {
    util::Rng rng(0xa11e5e7);
    constexpr std::size_t kN = 700;  // spans several 512-bit blocks
    util::AliveSet set(kN, true);
    std::vector<bool> ref(kN, true);

    for (int step = 0; step < 2000; ++step) {
        const auto id = static_cast<util::NodeId>(rng.index(kN));
        if (rng.uniform01() < 0.5) {
            set.reset(id);
            ref[id] = false;
        } else {
            set.set(id);
            ref[id] = true;
        }
        if (step % 50 != 0) {
            continue;
        }
        const std::vector<util::NodeId> want = snapshot(ref);
        ASSERT_EQ(set.count(), want.size());
        // Every rank, not just a sample: select(r) must equal the old
        // alive_nodes()[r] exactly — that equivalence is what keeps the
        // RNG streams (and golden fingerprints) bit-identical.
        for (std::size_t r = 0; r < want.size(); ++r) {
            ASSERT_EQ(set.select(r), want[r]) << "rank " << r;
        }
        std::vector<util::NodeId> walked;
        set.for_each([&walked](util::NodeId n) { walked.push_back(n); });
        ASSERT_EQ(walked, want);
    }
}

TEST(AliveSet, PushBackGrowsDensely) {
    util::AliveSet set;
    std::vector<bool> ref;
    util::Rng rng(9);
    for (int i = 0; i < 300; ++i) {
        const bool value = rng.uniform01() < 0.7;
        set.push_back(value);
        ref.push_back(value);
    }
    EXPECT_EQ(set.size(), ref.size());
    const std::vector<util::NodeId> want = snapshot(ref);
    ASSERT_EQ(set.count(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(set.select(r), want[r]);
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(set.test(static_cast<util::NodeId>(i)), ref[i]);
    }
}

TEST(BlockPool, RecyclesSameSizeBlocks) {
    util::BlockPool pool;
    void* a = pool.acquire(64);
    void* b = pool.acquire(64);
    EXPECT_EQ(pool.fresh_allocs(), 2u);
    pool.release(64, a);
    pool.release(64, b);
    EXPECT_EQ(pool.free_blocks(), 2u);
    void* c = pool.acquire(64);
    void* d = pool.acquire(64);
    EXPECT_EQ(pool.reuses(), 2u);
    EXPECT_TRUE((c == a && d == b) || (c == b && d == a));
    // A different size passes through without touching the free list.
    void* misfit = pool.acquire(128);
    EXPECT_EQ(pool.misfit_allocs(), 1u);
    pool.release(128, misfit);
    pool.release(64, c);
    pool.release(64, d);
}

TEST(BlockPool, AllocateSharedRoundTripReusesOneBlock) {
    util::BlockPool pool;
    struct Payload {
        std::uint64_t bytes[6] = {};
    };
    {
        auto p = std::allocate_shared<Payload>(
            util::PoolAllocator<Payload>{&pool});
        p->bytes[0] = 1;
    }
    EXPECT_EQ(pool.fresh_allocs(), 1u);
    EXPECT_EQ(pool.free_blocks(), 1u);
    {
        auto p = std::allocate_shared<Payload>(
            util::PoolAllocator<Payload>{&pool});
        p->bytes[0] = 2;
    }
    // Same size class: the control-block+object allocation was recycled.
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.fresh_allocs(), 1u);
}

// Flat grid vs. the frozen legacy grid: random interleavings, exact
// output (values AND order) required. Run on both metrics; the torus
// wrap path and its dedup guard are part of the contract. The flat grid
// keeps no positions, so its range query is its cell candidates filtered
// against the positions this test holds, as World and the RGG builder do.
void grid_differential(std::uint64_t seed, geom::Metric metric) {
    util::Rng rng(seed);
    const double side = 100.0;
    const double cell = 10.0;
    geom::SpatialGrid flat(side, cell, metric);
    test::LegacySpatialGrid legacy(side, cell, metric);

    constexpr std::size_t kIds = 160;
    std::vector<bool> present(kIds, false);
    std::vector<geom::Vec2> positions(kIds);
    const auto random_pos = [&rng, side] {
        return geom::Vec2{rng.uniform01() * side, rng.uniform01() * side};
    };

    for (int step = 0; step < 6000; ++step) {
        const auto id = static_cast<util::NodeId>(rng.index(kIds));
        const double dice = rng.uniform01();
        if (dice < 0.30) {
            if (!present[id]) {
                const geom::Vec2 pos = random_pos();
                flat.insert(id, pos);
                legacy.insert(id, pos);
                positions[id] = pos;
                present[id] = true;
            }
        } else if (dice < 0.40) {
            if (present[id]) {
                flat.remove(id);
                legacy.remove(id);
                present[id] = false;
            }
        } else if (dice < 0.80) {
            if (present[id]) {
                // Mostly small drifts (cell-local), sometimes teleports
                // (cell crossings into possibly-full destination cells —
                // the rebuild path).
                geom::Vec2 pos;
                if (rng.uniform01() < 0.7) {
                    const geom::Vec2 old = positions[id];
                    const auto clamp = [side](double v) {
                        return v < 0.0 ? 0.0 : (v > side ? side : v);
                    };
                    pos = geom::Vec2{
                        clamp(old.x + (rng.uniform01() - 0.5) * 15.0),
                        clamp(old.y + (rng.uniform01() - 0.5) * 15.0)};
                } else {
                    pos = random_pos();
                }
                flat.move(id, pos);
                legacy.move(id, pos);
                positions[id] = pos;
            }
        } else {
            const geom::Vec2 center = random_pos();
            const double radius = rng.uniform01() * 25.0;
            const auto exclude = static_cast<util::NodeId>(rng.index(kIds));
            std::vector<util::NodeId> got;
            std::vector<util::NodeId> want;
            flat.query_cells(center, radius, got, exclude);
            std::erase_if(got, [&](util::NodeId candidate) {
                const geom::Vec2 p = positions[candidate];
                if (metric == geom::Metric::kTorus) {
                    const double d = geom::torus_distance(center, p, side);
                    return d * d > radius * radius;
                }
                return !geom::in_range(center, p, radius);
            });
            legacy.query(center, radius, want, exclude);
            ASSERT_EQ(got, want)
                << "query diverged at step " << step << " seed " << seed;
        }
        ASSERT_EQ(flat.size(), legacy.size());
    }
    EXPECT_GT(flat.stats().grid_rebuilds, 0u)
        << "script never exercised the overflow/rebuild path";
}

TEST(FlatSpatialGrid, DifferentialVsLegacyPlane) {
    grid_differential(11, geom::Metric::kPlane);
    grid_differential(0xfeedULL, geom::Metric::kPlane);
}

TEST(FlatSpatialGrid, DifferentialVsLegacyTorus) {
    grid_differential(13, geom::Metric::kTorus);
    grid_differential(0xbeefULL, geom::Metric::kTorus);
}

TEST(FlatSpatialGrid, TorusDedupeLeavesEarlierOutputAlone) {
    // 2 x 2 cells: a one-cell reach wraps onto cells it already visited,
    // so the query sorts and dedupes, but only the ids it appended.
    geom::SpatialGrid grid(20.0, 10.0, geom::Metric::kTorus);
    grid.insert(1, geom::Vec2{15.0, 15.0});
    grid.insert(0, geom::Vec2{5.0, 5.0});
    std::vector<util::NodeId> out{99};
    grid.query_cells(geom::Vec2{5.0, 5.0}, 10.0, out);
    EXPECT_EQ(out, (std::vector<util::NodeId>{99, 0, 1}));
}

}  // namespace
}  // namespace pqs
