// Microbenchmarks of the hot simulation kernels (google-benchmark): RNG
// draws, the event queue, spatial-grid queries, random-walk stepping,
// two-ray propagation, and one end-to-end mini-scenario. The SINR PHY and
// the MAC are measured end to end by bench_kernel's e2e_80211_n80 row.
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
    for (util::NodeId i = 0; i < 800; ++i) {
        grid.insert(i, {rng.uniform(0.0, side), rng.uniform(0.0, side)});
    }
    std::vector<util::NodeId> out;
    for (auto _ : state) {
        out.clear();
        grid.query({rng.uniform(0.0, side), rng.uniform(0.0, side)}, 200.0,
                   out);
        benchmark::DoNotOptimize(out.data());
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

void BM_TwoRayPropagation(benchmark::State& state) {
    const phy::PropagationParams p;
    double d = 1.0;
    for (auto _ : state) {
        d = d >= 1200.0 ? 1.0 : d + 1.0;
        benchmark::DoNotOptimize(phy::two_ray_rx_power_mw(p, d));
    }
}
BENCHMARK(BM_TwoRayPropagation);

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
