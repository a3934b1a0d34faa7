// Shared utilities for the benches: environment-driven scaling
// (PQS_SCALE=smoke|default|paper) and table printing for the
// figure-reproduction benches, and the JSON helpers of the benches that
// write a BENCH_*.json file. At the default scale every figure bench
// finishes in seconds-to-a-minute on a laptop; PQS_SCALE=paper runs the
// paper's full 800-node / 100-advertise / 1000-lookup / multi-run
// configuration.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "exp/experiment_runner.h"
#include "util/csv.h"
#include "util/kernel_stats.h"

namespace pqs::bench {

// CSV series export (PQS_CSV_DIR): every figure bench can also dump its
// data points for external plotting.
inline util::CsvWriter csv(const std::string& series,
                           const std::vector<std::string>& columns) {
    return util::CsvWriter(util::csv_dir_from_env(), series, columns);
}

enum class Scale { kSmoke, kDefault, kPaper };

inline Scale scale() {
    const char* env = std::getenv("PQS_SCALE");
    if (env == nullptr) {
        return Scale::kDefault;
    }
    if (std::strcmp(env, "smoke") == 0) return Scale::kSmoke;
    if (std::strcmp(env, "paper") == 0) return Scale::kPaper;
    return Scale::kDefault;
}

inline const char* scale_name() {
    switch (scale()) {
        case Scale::kSmoke: return "smoke";
        case Scale::kPaper: return "paper";
        default: return "default";
    }
}

// Node-count sweep (§2.4: 50, 100, 200, 400, 800).
inline std::vector<std::size_t> node_counts() {
    switch (scale()) {
        case Scale::kSmoke: return {50, 100};
        case Scale::kPaper: return {50, 100, 200, 400, 800};
        default: return {50, 100, 200, 400};
    }
}

// Density sweep (§2.4: 7, 10, 15, 20, 25).
inline std::vector<double> densities() {
    switch (scale()) {
        case Scale::kSmoke: return {7.0, 10.0};
        default: return {7.0, 10.0, 15.0, 20.0, 25.0};
    }
}

inline int runs() {
    switch (scale()) {
        case Scale::kSmoke: return 1;
        case Scale::kPaper: return 10;  // paper: 10 runs per point
        default: return 2;
    }
}

inline std::size_t advertise_count() {
    switch (scale()) {
        case Scale::kSmoke: return 15;
        case Scale::kPaper: return 100;  // paper: 100 advertisements
        default: return 40;
    }
}

inline std::size_t lookup_count() {
    switch (scale()) {
        case Scale::kSmoke: return 60;
        case Scale::kPaper: return 1000;  // paper: 1000 lookups
        default: return 200;
    }
}

// The single "big network" size used by the n=800 figures.
inline std::size_t big_n() {
    switch (scale()) {
        case Scale::kSmoke: return 100;
        case Scale::kPaper: return 800;
        default: return 400;
    }
}

// Baseline scenario parameters matching §2.4 / §8.
inline core::ScenarioParams base_scenario(std::size_t n,
                                          std::uint64_t seed = 1) {
    core::ScenarioParams p;
    p.world.n = n;
    p.world.seed = seed;
    p.world.avg_degree = 10.0;
    p.world.oracle_neighbors = true;  // membership-cost-free, like the paper
    p.advertise_count = advertise_count();
    p.lookup_count = lookup_count();
    p.lookup_nodes = 25;
    p.warmup = 2 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    return p;
}

inline void make_mobile(core::ScenarioParams& p, double vmin, double vmax) {
    p.world.mobile = true;
    p.world.oracle_neighbors = false;  // stale tables are the point
    p.world.waypoint.min_speed = vmin;
    p.world.waypoint.max_speed = vmax;
    p.world.waypoint.pause = 30 * sim::kSecond;
    p.world.heartbeat = 10 * sim::kSecond;
    p.warmup = 15 * sim::kSecond;
}

inline void banner(const char* figure, const char* what) {
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure, what);
    std::printf("scale=%s (set PQS_SCALE=smoke|default|paper; "
                "PQS_THREADS=<k> parallelizes trials)\n",
                scale_name());
    std::printf("==============================================================\n");
}

// Experiment runner configured for this scale: runs() seeds per grid
// point, PQS_THREADS workers, all trial seeds derived from `run_seed`.
// Tables/CSV written from the returned report are byte-identical for
// every thread count; per-trial wall times go to stderr via
// exp::report_perf.
inline exp::ExperimentRunner runner(std::uint64_t run_seed) {
    exp::RunnerOptions opts;
    opts.runs_per_point = runs();
    opts.run_seed = run_seed;
    return exp::ExperimentRunner(opts);
}

// ---- BENCH_*.json emission (bench_kernel, bench_scale, bench_byzantine,
// bench_frontier, bench_energy) ----

// Host wall clock, for the informational wall_seconds fields only.
inline double now_seconds() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

inline std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

inline std::string fmt_u64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

// Every field of the counter registry as (name, value), in declaration
// order.
inline CounterList counter_list(const util::KernelStats& stats) {
    CounterList out;
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        out.emplace_back(fields[i].name, fields[i].get(stats));
    }
    return out;
}

// {"name": value, ...} on one line.
inline std::string counters_json(const CounterList& counters) {
    std::string j = "{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        j += std::string(i == 0 ? "" : ", ") + "\"" + counters[i].first +
             "\": " + fmt_u64(counters[i].second);
    }
    return j + "}";
}

// Writes `text` to `path`; on failure says why on stderr and returns
// false, and the bench exits non-zero.
inline bool write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    return true;
}

}  // namespace pqs::bench
