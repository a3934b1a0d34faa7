// bench_frontier — workload-aware quorum sizing vs the symmetric default
// (ISSUE 9).
//
// Part 1, analytic: for each lookup:advertise mix τ, optimize_quorums
// searches strategy × (|Qa|, |Qℓ|) along the Lemma 5.6 ratio at equal ε
// and reports the composite optimum, the Corollary 5.3 symmetric
// baseline, and the Pareto frontier over (messages/op, load/op).
// scripts/check_bench_json.py gates that the optimizer never loses to the
// symmetric baseline, wins strictly at the skewed mixes, and the frontier
// is monotone.
//
// Part 2, measured: the svc/ Zipfian open-loop KV driver serves real
// traffic through three configurations per mix — symmetric sizing,
// optimizer sizing, and optimizer sizing plus the per-key quorum cache —
// reporting measured messages/op, MRW load, timeout rate and read/write
// p50/p95/p99 off the obs/ histograms. The checker gates that the
// optimizer's sizes beat symmetric on measured messages/op at every mix
// and that the cache does not make it worse.
//
// Emits BENCH_frontier.json (schema pqs.bench_frontier/1).
//
// Usage: bench_frontier [--smoke] [--out PATH]
//   --smoke  smaller world and shorter horizon (the ctest smoke run)
//   --out    output JSON path (default BENCH_frontier.json in the cwd)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/quorum_optimizer.h"
#include "membership/oracle_membership.h"
#include "svc/workload_driver.h"

namespace pqs::bench {
namespace {

Json candidate_json(const core::CandidateConfig& c) {
    return Json::object()
        .set("kind", core::strategy_name(c.kind))
        .set("advertise", c.advertise)
        .set("lookup", c.lookup)
        .set("eps_bound", c.eps_bound)
        .set("msgs_per_op", c.msgs_per_op)
        .set("load_per_op", c.load_per_op)
        .set("objective", c.objective);
}

// The measured section's target epsilon and key popularity skew: the
// runs use them and the JSON reports them.
constexpr double kMeasuredEps = 0.05;
constexpr double kZipfTheta = 0.99;

// One measured driver run: a fresh world + KV stack at the given quorum
// sizes, keys pre-seeded, then the open-loop Zipfian mix.
struct MeasuredConfig {
    std::string label;
    std::size_t advertise = 0;
    std::size_t lookup = 0;
    bool cache = false;
    svc::KvWorkloadReport report;
    double msgs_per_op = 0.0;
};

struct MeasuredMixParams {
    std::size_t n = 150;
    double read_fraction = 0.9;
    std::size_t key_count = 200;
    double arrival_rate = 20.0;
    sim::Time horizon = 30 * sim::kSecond;
    std::uint64_t seed = 2008;
};

MeasuredConfig run_measured(const MeasuredMixParams& mp,
                            const std::string& label, std::size_t qa,
                            std::size_t ql, bool cache) {
    MeasuredConfig out;
    out.label = label;
    out.advertise = qa;
    out.lookup = ql;
    out.cache = cache;

    net::WorldParams wp;
    wp.n = mp.n;
    wp.seed = mp.seed;
    wp.oracle_neighbors = true;
    net::World world(wp);
    // Full membership view: the optimizer may size one quorum side well
    // past the paper's default 2*sqrt(n) view, which would silently cap
    // RANDOM sampling and fake the comparison.
    membership::OracleMembershipParams op;
    op.view_size = mp.n;
    membership::OracleMembership membership(world, op);
    core::BiquorumSpec spec;
    spec.eps = kMeasuredEps;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.monotonic_store = true;
    spec.advertise.quorum_size = qa;
    spec.lookup.kind = core::StrategyKind::kRandom;
    spec.lookup.collect_all_replies = true;
    spec.lookup.quorum_size = ql;
    core::LocationService location(world, spec, &membership);
    svc::KvParams kp;
    kp.cache_quorums = cache;
    svc::KvService kv(location, kp);
    world.start();

    // Seed every key so Zipfian reads have data to find; not part of the
    // measured window.
    for (util::Key key = 1; key <= mp.key_count; ++key) {
        bool done = false;
        kv.write(0, key, static_cast<std::uint32_t>(key),
                 [&done](const svc::KvWriteResult&) { done = true; });
        while (!done && world.simulator().step()) {
        }
    }

    const std::uint64_t tx_before = world.kernel_stats().data_tx;
    svc::KvWorkloadParams dp;
    dp.key_count = mp.key_count;
    dp.zipf_theta = kZipfTheta;
    dp.read_fraction = mp.read_fraction;
    dp.arrival_rate = mp.arrival_rate;
    dp.horizon = mp.horizon;
    dp.drain = 40 * sim::kSecond;
    dp.seed = mp.seed ^ 0x5eedULL;
    svc::KvWorkloadDriver driver(kv, dp);
    out.report = driver.run();
    const std::uint64_t tx = world.kernel_stats().data_tx - tx_before;
    out.msgs_per_op =
        out.report.issued > 0
            ? static_cast<double>(tx) /
                  static_cast<double>(out.report.issued)
            : 0.0;
    return out;
}

Json measured_json(const MeasuredConfig& m) {
    const auto rs = m.report.read_latency.summary();
    const auto ws = m.report.write_latency.summary();
    return Json::object()
        .set("label", m.label)
        .set("advertise", m.advertise)
        .set("lookup", m.lookup)
        .set("cache", m.cache)
        .set("issued", m.report.issued)
        .set("completed", m.report.completed)
        .set("censored", m.report.censored)
        .set("msgs_per_op", m.msgs_per_op)
        .set("mrw_load", m.report.load.mrw_load)
        .set("timeout_rate", m.report.timeout_rate())
        .set("inconclusive_rate", m.report.inconclusive_rate())
        .set("cache_hit_rate", m.report.cache_hit_rate())
        .set("read_p50_s", rs.p50_s)
        .set("read_p95_s", rs.p95_s)
        .set("read_p99_s", rs.p99_s)
        .set("write_p50_s", ws.p50_s)
        .set("write_p95_s", ws.p95_s)
        .set("write_p99_s", ws.p99_s);
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    const BenchArgs args = parse_args(argc, argv, "frontier");
    const bool smoke = args.smoke;

    // ---- part 1: analytic sweep over lookup:advertise mixes ----
    core::OptimizerParams params;
    params.n = 400;
    params.eps = 0.05;
    params.load_weight = 1.0;
    core::WorkloadProfile profile;
    // Advertise payloads carry the value, lookups only the key: the cost
    // asymmetry that splits the message optimum from the load optimum.
    profile.cost_advertise = 2.0;
    profile.cost_lookup = 1.0;
    const double mixes[] = {9.0, 1.0, 1.0 / 9.0};

    std::printf("bench_frontier (%s): analytic mixes n=%zu eps=%g\n",
                args.mode(), params.n, params.eps);
    const double t0 = now_seconds();
    std::vector<core::OptimizerResult> analytic;
    for (const double tau : mixes) {
        profile.tau = tau;
        analytic.push_back(core::optimize_quorums(params, profile));
        const core::OptimizerResult& r = analytic.back();
        std::printf("  tau=%.3f best=%s qa=%zu ql=%zu J=%.2f "
                    "symmetric q=%zu J=%.2f improvement=%.1f%%\n",
                    tau, core::strategy_name(r.best.kind).c_str(),
                    r.best.advertise, r.best.lookup, r.best.objective,
                    r.symmetric.advertise, r.symmetric.objective,
                    100.0 * r.improvement);
    }
    const double analytic_wall = now_seconds() - t0;

    // ---- part 2: measured service traffic at two mixes ----
    MeasuredMixParams base;
    base.n = smoke ? 100 : 150;
    base.key_count = smoke ? 60 : 200;
    base.arrival_rate = smoke ? 10.0 : 20.0;
    base.horizon = (smoke ? 8 : 30) * sim::kSecond;

    struct MeasuredMix {
        double read_fraction = 0.0;
        double tau = 0.0;
        std::vector<MeasuredConfig> configs;
        core::OptimizerResult sizing;
    };
    std::vector<MeasuredMix> measured;
    const double t1 = now_seconds();
    for (const double read_fraction : {0.9, 0.5}) {
        MeasuredMix mix;
        mix.read_fraction = read_fraction;
        // Every KV op does a phase-1 lookup; only writes advertise, so
        // the service's lookup:advertise ratio is 1/(1 - read_fraction).
        mix.tau = 1.0 / (1.0 - read_fraction);

        core::OptimizerParams mparams;
        mparams.n = base.n;
        mparams.eps = kMeasuredEps;
        mparams.load_weight = 1.0;
        mparams.kinds = {core::StrategyKind::kRandom};
        core::WorkloadProfile mprofile;
        mprofile.tau = mix.tau;
        mix.sizing = core::optimize_quorums(mparams, mprofile);
        const std::size_t q_sym = mix.sizing.symmetric.advertise;
        const std::size_t qa = mix.sizing.best.advertise;
        const std::size_t ql = mix.sizing.best.lookup;

        MeasuredMixParams mp = base;
        mp.read_fraction = read_fraction;
        mix.configs.push_back(
            run_measured(mp, "symmetric", q_sym, q_sym, false));
        mix.configs.push_back(run_measured(mp, "optimized", qa, ql, false));
        mix.configs.push_back(
            run_measured(mp, "optimized_cached", qa, ql, true));
        for (const MeasuredConfig& c : mix.configs) {
            const auto rs = c.report.read_latency.summary();
            std::printf("  rf=%.1f %-16s qa=%zu ql=%zu msgs/op=%.1f "
                        "mrw=%.4f timeout=%.3f hit=%.2f p99=%.3fs\n",
                        read_fraction, c.label.c_str(), c.advertise,
                        c.lookup, c.msgs_per_op, c.report.load.mrw_load,
                        c.report.timeout_rate(),
                        c.report.cache_hit_rate(), rs.p99_s);
        }
        measured.push_back(std::move(mix));
    }
    const double measured_wall = now_seconds() - t1;

    Json analytic_mixes = Json::array();
    for (std::size_t i = 0; i < analytic.size(); ++i) {
        const core::OptimizerResult& r = analytic[i];
        Json frontier = Json::array();
        for (const core::CandidateConfig& c : r.frontier) {
            frontier.push(candidate_json(c));
        }
        analytic_mixes.push(Json::object()
                                .set("tau", mixes[i])
                                .set("best", candidate_json(r.best))
                                .set("symmetric", candidate_json(r.symmetric))
                                .set("improvement", r.improvement)
                                .set("frontier", frontier));
    }
    Json measured_mixes = Json::array();
    for (const MeasuredMix& mix : measured) {
        Json configs = Json::array();
        for (const MeasuredConfig& c : mix.configs) {
            configs.push(measured_json(c));
        }
        measured_mixes.push(Json::object()
                                .set("read_fraction", mix.read_fraction)
                                .set("tau", mix.tau)
                                .set("configs", configs));
    }
    const Json doc =
        Json::object()
            .set("schema", "pqs.bench_frontier/1")
            .set("mode", args.mode())
            .set("analytic", Json::object()
                                 .set("n", params.n)
                                 .set("eps", params.eps)
                                 .set("load_weight", params.load_weight)
                                 .set("cost_advertise", profile.cost_advertise)
                                 .set("cost_lookup", profile.cost_lookup)
                                 .set("wall_seconds", analytic_wall)
                                 .set("mixes", analytic_mixes))
            .set("measured",
                 Json::object()
                     .set("n", base.n)
                     .set("eps", kMeasuredEps)
                     .set("key_count", base.key_count)
                     .set("zipf_theta", kZipfTheta)
                     .set("arrival_rate", base.arrival_rate)
                     .set("horizon_s", sim::to_seconds(base.horizon))
                     .set("wall_seconds", measured_wall)
                     .set("mixes", measured_mixes));
    return write_json(args.out, doc) ? 0 : 1;
}
