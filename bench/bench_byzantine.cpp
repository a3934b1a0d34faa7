// bench_byzantine — b-masking under reply-path adversaries (ISSUE 8).
//
// Part 1, quorum-level Monte Carlo: for each fault budget b, derive the
// symmetric masking quorum size from theory::masking_symmetric_quorum_size
// and measure the masking-failure rate directly on sampled quorums — a
// failure is a draw where the honest intersection |Qℓ ∩ (Qa \ B)| is not
// large enough to outvote b forged replies (≤ b correct votes). The
// adversary is placed worst-case: all b faulty nodes inside the advertise
// quorum. The measured rate must stay at or below the closed-form bound
// masking_failure_bound (plus the Monte-Carlo confidence half-width) at
// every point of the sweep; scripts/check_bench_json.py gates the theory
// against the measurement on every CI pass.
//
// Part 2, end-to-end: run_scenario with a sim::ByzantinePlan marking b
// nodes (mixed DROP/STALE/FABRICATE/REPLAY behaviors) and the value-voting
// lookup path, reporting hit ratio, vote-inconclusive rate, MRW load
// L(S), how many replies the adversary actually tampered with, the median
// latency of a successful lookup and the transmissions per lookup.
//
// Emits BENCH_byzantine.json (schema pqs.bench_byzantine/1).
//
// Usage: bench_byzantine [--smoke] [--out PATH]
//   --smoke  fewer Monte-Carlo trials and lookups (the ctest smoke run)
//   --out    output JSON path (default BENCH_byzantine.json in the cwd)
#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/scenario.h"
#include "core/theory.h"
#include "util/rng.h"

namespace pqs::bench {
namespace {

struct MaskingPoint {
    std::size_t b = 0;
    std::size_t quorum_size = 0;
    double mu = 0.0;       // honest-overlap mean (q-b)·q/n at the sizes
    double bound = 0.0;    // closed-form Pr[masking failure] bound
    std::uint64_t failures = 0;
    std::uint64_t trials = 0;
    double measured_rate = 0.0;
    double ci_halfwidth = 0.0;  // one-sided Hoeffding at alpha
};

// Monte-Carlo masking-failure rate at the derived symmetric size: sample
// Qa and Qℓ uniformly without replacement, put all b faulty nodes inside
// Qa (the worst case the bound prices), and count draws where honest
// intersection replies cannot outvote the b forged ones.
MaskingPoint measure_masking(std::size_t n, double eps, std::size_t b,
                             std::uint64_t trials, util::Rng& rng) {
    MaskingPoint pt;
    pt.b = b;
    pt.quorum_size = core::masking_symmetric_quorum_size(n, eps, b);
    const std::size_t q = pt.quorum_size;
    pt.mu = static_cast<double>(q - b) * static_cast<double>(q) /
            static_cast<double>(n);
    pt.bound = core::masking_failure_bound(q, q, n, b);
    pt.trials = trials;

    // flags[i]: 0 = outside Qa, 1 = honest Qa member, 2 = faulty member.
    std::vector<std::uint8_t> flags(n, 0);
    for (std::uint64_t t = 0; t < trials; ++t) {
        const auto qa = rng.sample_without_replacement(n, q);
        // By symmetry any b members of Qa are the worst-case placement;
        // the sample is already uniform, so take the first b.
        for (std::size_t i = 0; i < q; ++i) {
            flags[qa[i]] = i < b ? 2 : 1;
        }
        std::size_t honest_overlap = 0;
        for (const std::size_t id : rng.sample_without_replacement(n, q)) {
            honest_overlap += flags[id] == 1 ? 1 : 0;
        }
        if (honest_overlap <= b) {
            ++pt.failures;
        }
        for (std::size_t i = 0; i < q; ++i) {
            flags[qa[i]] = 0;
        }
    }
    pt.measured_rate = static_cast<double>(pt.failures) /
                       static_cast<double>(trials);
    // One-sided Hoeffding half-width at alpha = 1e-6: the measured rate
    // exceeds bound + ci_halfwidth with probability < 1e-6 if the true
    // rate is within the bound.
    pt.ci_halfwidth = std::sqrt(std::log(1e6) /
                                (2.0 * static_cast<double>(trials)));
    return pt;
}

struct E2ePoint {
    std::string mix_name;
    std::size_t b = 0;
    core::ScenarioResult result;
};

core::ScenarioParams e2e_params(std::size_t n, std::size_t lookups,
                                std::size_t b,
                                std::vector<sim::ByzantineBehavior> mix) {
    core::ScenarioParams p;
    p.world.n = n;
    p.world.seed = 20080; // DSN 2008
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.lookup.kind = core::StrategyKind::kRandom;
    p.spec.eps = 0.1;
    p.spec.byzantine_b = b;
    p.byzantine.b = b;
    p.byzantine.mix = std::move(mix);
    // Masking quorums outgrow the paper's default 2*sqrt(n) membership
    // view (which silently caps RANDOM target sampling); give every node
    // the full view so the sized quorum is actually reachable.
    p.membership_view = n;
    p.advertise_count = 10;
    p.lookup_count = lookups;
    p.lookup_nodes = 8;
    p.warmup = 12 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    // A vote-inconclusive attempt retries like any failed one; without
    // retries a single lost reply can starve the > b concurrence vote.
    p.op_max_attempts = 3;
    return p;
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    const BenchArgs args = parse_args(argc, argv, "byzantine");
    const bool smoke = args.smoke;

    // ---- part 1: Monte-Carlo masking failure vs the closed-form bound ----
    const std::size_t n_mc = 400;
    const double eps = 0.1;
    const std::uint64_t trials = smoke ? 20'000 : 200'000;
    const std::size_t b_sweep[] = {0, 1, 2, 4, 8};

    std::printf("bench_byzantine (%s): MC masking sweep n=%zu eps=%g "
                "trials=%llu\n",
                args.mode(), n_mc, eps,
                static_cast<unsigned long long>(trials));
    util::Rng mc_rng(0xd5a2008ULL);
    const double t0 = now_seconds();
    std::vector<MaskingPoint> sweep;
    for (const std::size_t b : b_sweep) {
        util::Rng point_rng = mc_rng.fork();
        sweep.push_back(measure_masking(n_mc, eps, b, trials, point_rng));
        const MaskingPoint& pt = sweep.back();
        std::printf("  b=%zu q=%zu mu=%.2f bound=%.4f measured=%.4f "
                    "(+/-%.4f)\n",
                    pt.b, pt.quorum_size, pt.mu, pt.bound,
                    pt.measured_rate, pt.ci_halfwidth);
    }
    const double mc_wall = now_seconds() - t0;

    // ---- part 2: end-to-end scenario with live adversaries ----
    const std::size_t n_e2e = smoke ? 64 : 100;
    const std::size_t lookups = smoke ? 60 : 200;
    // Fabricate first so even the smallest sweep point (b=2: fabricate +
    // drop) includes a node that lies on every contact, not only when it
    // happens to hold the key.
    const std::vector<sim::ByzantineBehavior> all_mix = {
        sim::ByzantineBehavior::kLieFabricate,
        sim::ByzantineBehavior::kDropReply,
        sim::ByzantineBehavior::kLieStale,
        sim::ByzantineBehavior::kReplay,
    };
    std::vector<std::pair<std::string, std::size_t>> e2e_cases = {
        {"none", 0},
        {"mixed", 2},
    };
    if (!smoke) {
        e2e_cases.emplace_back("mixed", 4);
    }

    const double t1 = now_seconds();
    std::vector<E2ePoint> e2e;
    for (const auto& [mix_name, b] : e2e_cases) {
        E2ePoint pt;
        pt.mix_name = mix_name;
        pt.b = b;
        pt.result = core::run_scenario(e2e_params(
            n_e2e, lookups, b,
            b == 0 ? std::vector<sim::ByzantineBehavior>{} : all_mix));
        e2e.push_back(pt);
        const core::ScenarioResult& r = pt.result;
        std::printf("  e2e b=%zu mix=%s: hit=%.3f inconclusive=%.3f "
                    "mrw_load=%.4f tampered=%.0f marked=%.0f "
                    "lookup_p50=%.3fs msgs/lookup=%.1f\n",
                    b, mix_name.c_str(), r.hit_ratio, r.inconclusive_rate,
                    r.load.mrw_load, r.byzantine_tampered,
                    r.byzantine_marked, r.latency_hist.quantile(0.5),
                    r.msgs_per_lookup);
    }
    const double e2e_wall = now_seconds() - t1;

    Json mc_sweep = Json::array();
    for (const MaskingPoint& pt : sweep) {
        mc_sweep.push(Json::object()
                          .set("b", pt.b)
                          .set("quorum_size", pt.quorum_size)
                          .set("mu", pt.mu)
                          .set("bound", pt.bound)
                          .set("failures", pt.failures)
                          .set("measured_rate", pt.measured_rate)
                          .set("ci_halfwidth", pt.ci_halfwidth));
    }
    Json e2e_sweep = Json::array();
    for (const E2ePoint& pt : e2e) {
        const core::ScenarioResult& r = pt.result;
        e2e_sweep.push(
            Json::object()
                .set("b", pt.b)
                .set("mix", pt.mix_name)
                .set("advertise_quorum", r.advertise_quorum)
                .set("lookup_quorum", r.lookup_quorum)
                .set("hit_ratio", r.hit_ratio)
                .set("inconclusive_rate", r.inconclusive_rate)
                .set("mrw_load", r.load.mrw_load)
                .set("theory_load", core::access_load(r.lookup_quorum, n_e2e))
                .set("tampered", r.byzantine_tampered)
                .set("marked", r.byzantine_marked)
                .set("lookup_p50_s", r.latency_hist.quantile(0.5))
                .set("msgs_per_lookup", r.msgs_per_lookup)
                .set("aborted", r.aborted));
    }
    const Json doc = Json::object()
                         .set("schema", "pqs.bench_byzantine/1")
                         .set("mode", args.mode())
                         .set("mc", Json::object()
                                        .set("n", n_mc)
                                        .set("eps", eps)
                                        .set("trials", trials)
                                        .set("wall_seconds", mc_wall)
                                        .set("sweep", mc_sweep))
                         .set("e2e", Json::object()
                                         .set("n", n_e2e)
                                         .set("lookups", lookups)
                                         .set("wall_seconds", e2e_wall)
                                         .set("sweep", e2e_sweep));
    return write_json(args.out, doc) ? 0 : 1;
}
