// Microbenchmarks of the hot simulation kernels (google-benchmark): RNG
// draws, the event queue, spatial-grid queries, random-walk stepping,
// two-ray propagation, the range test with and without hypot, and one
// end-to-end mini-scenario. The SINR PHY and the MAC are measured end to
// end by bench_kernel's e2e_80211_n80 row.
#include <benchmark/benchmark.h>

#include "core/scenario.h"
#include "geom/random_walk.h"
#include "geom/rgg.h"
#include "geom/spatial_grid.h"
#include "phy/propagation.h"
#include "sim/event_queue.h"
#include "util/rng.h"

using namespace pqs;

namespace {

void BM_RngUniform(benchmark::State& state) {
    util::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.uniform_u64(1000));
    }
}
BENCHMARK(BM_RngUniform);

void BM_EventQueueScheduleFire(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    util::Rng rng(2);
    for (auto _ : state) {
        sim::EventQueue q;
        for (std::size_t i = 0; i < batch; ++i) {
            q.schedule(static_cast<sim::Time>(rng.uniform_u64(1000000)),
                       [] {});
        }
        while (!q.empty()) {
            q.pop().fn();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(10000);

void BM_SpatialGridQuery(benchmark::State& state) {
    util::Rng rng(3);
    const double side = 3000.0;
    geom::SpatialGrid grid(side, 200.0);
    std::vector<geom::Vec2> pos;
    for (util::NodeId i = 0; i < 800; ++i) {
        pos.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
        grid.insert(i, pos.back());
    }
    std::vector<util::NodeId> out;
    for (auto _ : state) {
        out.clear();
        const geom::Vec2 center{rng.uniform(0.0, side),
                                rng.uniform(0.0, side)};
        grid.query_cells(center, 200.0, out);
        std::size_t found = 0;
        for (const util::NodeId id : out) {
            found += geom::in_range(center, pos[id], 200.0) ? 1 : 0;
        }
        benchmark::DoNotOptimize(found);
    }
}
BENCHMARK(BM_SpatialGridQuery);

void BM_RandomWalkStep(benchmark::State& state) {
    util::Rng rng(4);
    const geom::Rgg rgg = geom::make_connected_rgg({400, 200.0, 10.0}, rng);
    util::NodeId cur = 0;
    for (auto _ : state) {
        cur = geom::walk_step(rgg.graph, cur, geom::WalkKind::kSimple, rng);
        benchmark::DoNotOptimize(cur);
    }
}
BENCHMARK(BM_RandomWalkStep);

// The channel's per-listener law: received power from d^2.
void BM_TwoRayPropagation(benchmark::State& state) {
    const phy::TwoRayLaw law{phy::PropagationParams{}};
    double d = 1.0;
    for (auto _ : state) {
        d = d >= 1200.0 ? 1.0 : d + 1.0;
        benchmark::DoNotOptimize(law.rx_power_mw(d * d));
    }
}
BENCHMARK(BM_TwoRayPropagation);

// The per-reception range test over random pairs in a 1,000 m square at
// r = 200 m, two ways: hypot(dx, dy) <= r, the test geom::in_range
// replaced, and geom::in_range itself, dx^2 + dy^2 <= r^2.
template <class InRange>
void BM_RangeTest(benchmark::State& state, InRange in_range) {
    util::Rng rng(5);
    std::vector<geom::Vec2> points(1024);
    for (geom::Vec2& v : points) {
        v = {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            in_range(points[i & 1023], points[(i + 1) & 1023]));
        ++i;
    }
}
BENCHMARK_CAPTURE(BM_RangeTest, hypot, [](geom::Vec2 a, geom::Vec2 b) {
    return geom::distance(a, b) <= 200.0;
});
BENCHMARK_CAPTURE(BM_RangeTest, squared, [](geom::Vec2 a, geom::Vec2 b) {
    return geom::in_range(a, b, 200.0);
});

void BM_MiniScenario(benchmark::State& state) {
    for (auto _ : state) {
        core::ScenarioParams p;
        p.world.n = 80;
        p.world.seed = 1;
        p.world.oracle_neighbors = true;
        p.spec.advertise.kind = core::StrategyKind::kRandom;
        p.spec.lookup.kind = core::StrategyKind::kUniquePath;
        p.advertise_count = 5;
        p.lookup_count = 20;
        p.warmup = sim::kSecond;
        benchmark::DoNotOptimize(core::run_scenario(p));
    }
}
BENCHMARK(BM_MiniScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
