// Shared utilities for the benches: environment-driven scaling
// (PQS_SCALE=smoke|default|paper) and table printing for the
// figure-reproduction benches, and the command line and JSON writer of
// the benches that write a BENCH_*.json file. At the default scale every figure bench
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
//
// These benches measure and write; scripts/check_bench_json.py holds
// every gate on what they write.

// Command line of the JSON benches: [--smoke] [--out PATH], and
// [--n N] for a bench that passes `n`. Anything else prints the usage and
// exits with status 2.
struct BenchArgs {
    bool smoke = false;
    std::string out;  // default BENCH_<name>.json in the cwd

    const char* mode() const { return smoke ? "smoke" : "full"; }
};

inline BenchArgs parse_args(int argc, char** argv, const char* name,
                            std::size_t* n = nullptr) {
    BenchArgs args;
    args.out = std::string("BENCH_") + name + ".json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            args.out = argv[++i];
        } else if (n != nullptr && arg == "--n" && i + 1 < argc) {
            *n = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr,
                                                        10));
        } else {
            std::fprintf(stderr, "usage: bench_%s [--smoke]%s [--out PATH]\n",
                         name, n != nullptr ? " [--n N]" : "");
            std::exit(2);
        }
    }
    return args;
}

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

// One value of a BENCH_*.json document. Numbers keep the text fmt_double
// and fmt_u64 give them, and object members keep insertion order. dump()
// puts a container that holds only scalars on one line and indents the
// others by two spaces a level. set() and push() return the container,
// so a value is built in one expression.
class Json {
public:
    Json(double v) : text_(fmt_double(v)) {}
    Json(std::uint64_t v) : text_(fmt_u64(v)) {}
    Json(bool v) : text_(v ? "true" : "false") {}
    Json(const void*) = delete;  // keeps a pointer from turning into a bool
    Json(const char* s) : text_(quoted(s)) {}
    Json(const std::string& s) : text_(quoted(s)) {}

    static Json object() { return Json('{'); }
    static Json array() { return Json('['); }

    Json& set(const std::string& key, Json value) {
        keys_.push_back(key);
        values_.push_back(std::move(value));
        return *this;
    }
    Json& push(Json value) {
        values_.push_back(std::move(value));
        return *this;
    }

    std::string dump(const std::string& indent = "") const {
        if (open_ == 0) {
            return text_;
        }
        bool flat = true;
        for (const Json& v : values_) {
            flat = flat && v.open_ == 0;
        }
        const std::string inner = indent + "  ";
        std::string out(1, open_);
        for (std::size_t i = 0; i < values_.size(); ++i) {
            out += i == 0 ? "" : ",";
            out += flat ? (i == 0 ? "" : " ") : "\n" + inner;
            out += open_ == '{' ? quoted(keys_[i]) + ": " : "";
            out += values_[i].dump(inner);
        }
        out += flat ? "" : "\n" + indent;
        return out + (open_ == '{' ? '}' : ']');
    }

private:
    explicit Json(char open) : open_(open) {}

    static std::string quoted(const std::string& s) {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
            }
            out += c;
        }
        return out + '"';
    }

    char open_ = 0;  // '{' or '[' for a container, 0 for a scalar
    std::string text_;
    std::vector<std::string> keys_;
    std::vector<Json> values_;
};

// Every field of the counter registry, in declaration order.
inline Json counters_json(const util::KernelStats& stats) {
    Json out = Json::object();
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        out.set(fields[i].name, fields[i].get(stats));
    }
    return out;
}

// Writes `doc` to `path`; on failure says why on stderr and returns
// false, and the bench exits non-zero.
inline bool write_json(const std::string& path, const Json& doc) {
    const std::string text = doc.dump() + "\n";
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
    std::printf("wrote %s\n", path.c_str());
    return true;
}

}  // namespace pqs::bench
