// Kernel micro/meso benchmark suite — the perf-regression harness for the
// simulator hot path. Three layers:
//
//   1. event_churn (micro): steady-state schedule/pop/cancel churn through
//      the slab-backed 4-ary heap event queue.
//   2. cancel_reclaim (micro) and grid_mobility (meso): tombstone
//      reclamation and SpatialGrid::move plus range queries (cell
//      candidates filtered against the bench's positions) under a
//      mobility-like workload.
//   3. e2e_unique_path_n200 (meso): one full-stack n=200 mobile scenario
//      with RANDOM advertise x UNIQUE-PATH lookup (the Fig. 10 shape), and
//      e2e_80211_n80: the same strategies at n=80 on the paper's §8 stack
//      (SINR PHY + CSMA/CA MAC), shaped like perfbench's
//      paper_walks_80211 workload.
//
// Emits BENCH_kernel.json (schema documented in EXPERIMENTS.md): all
// counters are deterministic for the fixed seeds baked in here; only the
// wall_seconds / *_per_second fields vary across machines and runs.
// scripts/check_bench_json.py gates the file, including the slab-reclaim
// invariants.
//
// Usage: bench_kernel [--smoke] [--out PATH]
//   --smoke  shrunk workloads for the ctest smoke run
//   --out    output JSON path (default BENCH_kernel.json in the cwd)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/scenario.h"
#include "geom/spatial_grid.h"
#include "sim/event_queue.h"
#include "util/kernel_stats.h"
#include "util/mem.h"
#include "util/rng.h"

namespace pqs::bench {
namespace {

// One bench record: name/impl, deterministic counters, wall measurements.
Json record(const char* name, const char* impl, std::uint64_t work_items,
            double wall_seconds, Json counters) {
    return Json::object()
        .set("name", name)
        .set("impl", impl)
        .set("work_items", work_items)
        .set("wall_seconds", wall_seconds)
        .set("items_per_second",
             static_cast<double>(work_items) / wall_seconds)
        .set("counters", std::move(counters));
}

// ---------------------------------------------------------------------
// 1. event_churn — steady-state schedule/pop/cancel mix
// ---------------------------------------------------------------------

struct ChurnResult {
    std::uint64_t fired = 0;
    std::uint64_t checksum = 0;   // order-sensitive digest of the fired stream
    sim::Time final_time = 0;
    double wall_seconds = 0.0;
    util::KernelStats stats;
};

// The callback captures 32 bytes (sink pointer + 3 payload words), the
// size class of a typical scheduling lambda in the stack (`this` +
// PacketPtr + ids).
ChurnResult run_churn(std::uint64_t seed, std::size_t pending,
                      std::uint64_t target_fired, double cancel_prob) {
    util::Rng rng(seed);
    sim::EventQueue q;
    ChurnResult r;
    std::uint64_t sink = 0;
    sim::Time now = 0;
    std::vector<sim::EventId> recent(1024, 0);
    std::size_t recent_at = 0;

    const auto make_event = [&](sim::Time when) {
        const std::uint64_t a = rng();
        const std::uint64_t b = a >> 7;
        const std::uint64_t c = a ^ 0x2545f4914f6cdd1dULL;
        const auto id = q.schedule(
            when, [&sink, a, b, c] { sink += a ^ (b + c); });
        recent[recent_at] = id;
        recent_at = (recent_at + 1) % recent.size();
    };

    const double start = now_seconds();
    for (std::size_t i = 0; i < pending; ++i) {
        make_event(static_cast<sim::Time>(1 + rng.uniform_u64(1000000)));
    }
    while (r.fired < target_fired) {
        auto fired = q.pop();
        now = fired.time;
        fired.fn();
        ++r.fired;
        r.checksum = r.checksum * 1099511628211ULL + sink +
                     static_cast<std::uint64_t>(now);
        make_event(now + 1 +
                   static_cast<sim::Time>(rng.uniform_u64(1000000)));
        if (rng.bernoulli(cancel_prob)) {
            const auto victim = recent[rng.index(recent.size())];
            if (q.cancel(victim)) {
                // Keep the pending population steady.
                make_event(now + 1 +
                           static_cast<sim::Time>(rng.uniform_u64(1000000)));
            }
        }
    }
    r.wall_seconds = now_seconds() - start;
    r.final_time = now;
    r.stats = q.stats();
    return r;
}

ChurnResult best_of(int reps, std::uint64_t seed, std::size_t pending,
                    std::uint64_t target_fired, double cancel_prob) {
    ChurnResult best;
    for (int rep = 0; rep < reps; ++rep) {
        ChurnResult r = run_churn(seed, pending, target_fired, cancel_prob);
        if (rep == 0 || r.wall_seconds < best.wall_seconds) {
            best = r;
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// 2. cancel_reclaim — mass cancellation must reclaim slots eagerly
// ---------------------------------------------------------------------

struct ReclaimResult {
    double wall_seconds = 0.0;
    util::KernelStats stats;
    std::size_t queue_size = 0;  // live events left; must be 0
};

ReclaimResult run_cancel_reclaim(std::uint64_t seed, std::size_t events) {
    util::Rng rng(seed);
    sim::EventQueue q;
    ReclaimResult r;
    std::vector<sim::EventId> ids;
    ids.reserve(events);
    const double start = now_seconds();
    for (std::size_t round = 0; round < 2; ++round) {
        ids.clear();
        for (std::size_t i = 0; i < events; ++i) {
            ids.push_back(q.schedule(
                static_cast<sim::Time>(1 + rng.uniform_u64(1000000)),
                [] {}));
        }
        for (const sim::EventId id : ids) {
            q.cancel(id);
        }
    }
    r.wall_seconds = now_seconds() - start;
    r.stats = q.stats();
    r.queue_size = q.size();
    return r;
}

// ---------------------------------------------------------------------
// 3. grid_mobility — SpatialGrid::move + range query under mobility
// ---------------------------------------------------------------------

struct GridResult {
    std::uint64_t ops = 0;  // moves + queries
    std::uint64_t found = 0;
    double wall_seconds = 0.0;
    util::KernelStats stats;
};

GridResult run_grid_mobility(std::uint64_t seed, std::size_t n,
                             std::size_t rounds) {
    // World sizing formula (§2.4): side² = π r² n / d_avg.
    const double range = 200.0;
    const double avg_degree = 10.0;
    const double side = std::sqrt(3.141592653589793 * range * range *
                                  static_cast<double>(n) / avg_degree);
    util::Rng rng(seed);
    geom::SpatialGrid grid(side, range);
    std::vector<geom::Vec2> pos(n);
    for (std::size_t i = 0; i < n; ++i) {
        pos[i] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
        grid.insert(static_cast<util::NodeId>(i), pos[i]);
    }
    GridResult r;
    std::vector<util::NodeId> out;
    const double start = now_seconds();
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            // Waypoint-ish step: up to 10 m in each axis, clamped inside.
            geom::Vec2 p = pos[i];
            p.x = std::clamp(p.x + rng.uniform(-10.0, 10.0), 0.0, side);
            p.y = std::clamp(p.y + rng.uniform(-10.0, 10.0), 0.0, side);
            pos[i] = p;
            grid.move(static_cast<util::NodeId>(i), p);
            ++r.ops;
        }
        for (std::size_t k = 0; k < n / 10 + 1; ++k) {
            out.clear();
            const auto who = static_cast<util::NodeId>(rng.index(n));
            grid.query_cells(pos[who], range, out, who);
            for (const util::NodeId id : out) {
                r.found += geom::in_range(pos[who], pos[id], range) ? 1 : 0;
            }
            ++r.ops;
        }
    }
    r.wall_seconds = now_seconds() - start;
    r.stats = grid.stats();
    return r;
}

// ---------------------------------------------------------------------
// 4. e2e_unique_path_n200 — one full-stack scenario (Fig. 10 shape)
// ---------------------------------------------------------------------

core::ScenarioParams e2e_params(bool smoke) {
    const std::size_t n = 200;
    const double rtn = std::sqrt(static_cast<double>(n));
    core::ScenarioParams p;
    p.world.n = n;
    p.world.seed = 42;
    p.world.avg_degree = 10.0;
    p.world.mobile = true;
    p.world.oracle_neighbors = false;
    p.world.waypoint.min_speed = 0.5;
    p.world.waypoint.max_speed = 2.0;
    p.world.waypoint.pause = 30 * sim::kSecond;
    p.world.heartbeat = 10 * sim::kSecond;
    p.warmup = 15 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    p.advertise_count = smoke ? 10 : 40;
    p.lookup_count = smoke ? 40 : 200;
    p.lookup_nodes = 25;
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.advertise.quorum_size =
        static_cast<std::size_t>(std::lround(2.0 * rtn));
    p.spec.lookup.kind = core::StrategyKind::kUniquePath;
    p.spec.lookup.quorum_size =
        static_cast<std::size_t>(std::lround(1.15 * rtn));
    return p;
}

// ---------------------------------------------------------------------
// 5. e2e_80211_n80 — the paper's §8 stack at full fidelity
// ---------------------------------------------------------------------

core::ScenarioParams e2e_80211_params(bool smoke) {
    core::ScenarioParams p;
    p.world.n = 80;
    p.world.seed = 42;
    p.world.fidelity = net::Fidelity::kFull;
    p.world.mobile = true;
    p.world.oracle_neighbors = false;
    p.world.waypoint.min_speed = 0.5;
    p.world.waypoint.max_speed = 2.0;
    p.world.waypoint.pause = 30 * sim::kSecond;
    p.world.heartbeat = 10 * sim::kSecond;
    p.warmup = 15 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    p.advertise_count = 10;
    p.lookup_count = smoke ? 40 : 600;
    p.lookup_nodes = 25;
    p.spec.eps = 0.05;
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.lookup.kind = core::StrategyKind::kUniquePath;
    p.spec.lookup.reply_local_repair = true;
    p.spec.lookup.reply_repair_ttl = 3;
    p.spec.lookup.reply_global_repair_fallback = true;
    return p;
}

Json run_e2e(const char* name, const core::ScenarioParams& p) {
    const double start = now_seconds();
    const core::ScenarioResult r = core::run_scenario(p);
    const double wall = now_seconds() - start;
    const std::uint64_t events = r.kernel.events_fired;
    std::printf("  %s: %.3g sim events/s (%llu events, hit=%.3f)\n", name,
                static_cast<double>(events) / wall,
                static_cast<unsigned long long>(events), r.hit_ratio);
    return record(
        name, "full_stack", events, wall,
        counters_json(r.kernel)
            .set("hits_x1000", static_cast<std::uint64_t>(
                                   std::lround(1000.0 * r.hit_ratio)))
            .set("arena_high_water",
                 static_cast<std::uint64_t>(r.arena_high_water)));
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    const BenchArgs args = parse_args(argc, argv, "kernel");
    const bool smoke = args.smoke;
    const std::size_t churn_pending = 4096;
    const std::uint64_t churn_fired = smoke ? 100'000 : 2'000'000;
    const double cancel_prob = 0.10;
    const int reps = smoke ? 1 : 3;
    const std::size_t reclaim_events = smoke ? 10'000 : 100'000;
    const std::size_t grid_n = smoke ? 200 : 1000;
    const std::size_t grid_rounds = smoke ? 20 : 200;

    std::printf("bench_kernel (%s): event churn %llu fired, grid n=%zu "
                "x %zu rounds, e2e n=200 UNIQUE-PATH, e2e n=80 802.11\n",
                args.mode(), static_cast<unsigned long long>(churn_fired),
                grid_n, grid_rounds);

    Json benches = Json::array();

    // --- 1. event churn ---
    const ChurnResult churn =
        best_of(reps, 7, churn_pending, churn_fired, cancel_prob);
    std::printf("  event_churn: %.3g ev/s\n",
                static_cast<double>(churn.fired) / churn.wall_seconds);
    benches.push(record(
        "event_churn", "slab4heap", churn.fired, churn.wall_seconds,
        counters_json(churn.stats)
            .set("checksum", churn.checksum)
            .set("final_time", static_cast<std::uint64_t>(churn.final_time))));

    // --- 2. cancel_reclaim ---
    const ReclaimResult reclaim = run_cancel_reclaim(11, reclaim_events);
    std::printf("  cancel_reclaim: %.3g cancels/s, slab_reuses=%llu\n",
                static_cast<double>(2 * reclaim_events) /
                    reclaim.wall_seconds,
                static_cast<unsigned long long>(reclaim.stats.slab_reuses));
    benches.push(record("cancel_reclaim", "slab4heap", 2 * reclaim_events,
                        reclaim.wall_seconds,
                        counters_json(reclaim.stats)
                            .set("queue_size", reclaim.queue_size)));

    // --- 3. grid_mobility ---
    const GridResult grid = run_grid_mobility(23, grid_n, grid_rounds);
    std::printf("  grid_mobility: %.3g ops/s (%llu moves, %llu "
                "queries, %llu cell crossings)\n",
                static_cast<double>(grid.ops) / grid.wall_seconds,
                static_cast<unsigned long long>(grid.stats.grid_moves),
                static_cast<unsigned long long>(grid.stats.grid_queries),
                static_cast<unsigned long long>(
                    grid.stats.grid_cell_crossings));
    benches.push(record("grid_mobility", "uniform_grid", grid.ops,
                        grid.wall_seconds,
                        counters_json(grid.stats)
                            .set("neighbors_found", grid.found)));

    // --- 4. e2e scenarios ---
    benches.push(run_e2e("e2e_unique_path_n200", e2e_params(smoke)));
    benches.push(run_e2e("e2e_80211_n80", e2e_80211_params(smoke)));

    // peak_rss_bytes is host telemetry, like wall_seconds.
    const Json doc =
        Json::object()
            .set("schema", "pqs.bench_kernel/1")
            .set("mode", args.mode())
            .set("reps", static_cast<std::uint64_t>(reps))
            .set("peak_rss_bytes", util::peak_rss_bytes())
            .set("benches", benches);
    return write_json(args.out, doc) ? 0 : 1;
}
