// Figure 7(b) companion, measured live: intersection probability over
// *time* while a sim::FaultPlan continuously crashes and joins nodes
// during the lookup phase (rate r per second each, so the churned
// fraction follows f(t) = 1 - exp(-r t)). Two configurations run:
// without refresh, the measured intersection probability should track the
// §6.1 closed-form decay 1 - eps0^(1 - f(t)); with refresh at the derived
// interval it should hold near/above the 1 - eps_max floor.
//
// Usage: bench_fig07b_live_degradation [--smoke]
// (--smoke forces PQS_SCALE=smoke; used by the ctest registration.)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "core/maintenance.h"
#include "core/theory.h"

using namespace pqs;
using core::ChurnKind;
using core::LookupSizing;
using core::StrategyKind;

namespace {

constexpr double kChurnRate = 0.02;  // crash AND join fraction per second
constexpr double kEpsMax = 0.2;

core::ScenarioParams make_point(std::size_t point) {
    core::ScenarioParams p = bench::base_scenario(bench::big_n(), 745);
    p.world.avg_degree = 15.0;  // survive sustained churn connected
    p.spec.eps = 0.05;
    // The lookup phase *is* the measured time series: pace it to span
    // ~a minute of simulated churn, and let misses resolve quickly — a
    // lookup probing a crashed quorum member only completes at
    // op_timeout, and a sequential chain stalled 20 s per miss would
    // starve the later sample buckets.
    p.lookup_count = 4 * bench::lookup_count();
    p.op_spacing = 200 * sim::kMillisecond;
    p.op_timeout = 2500 * sim::kMillisecond;
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kRandom;
    p.live.enabled = true;
    p.live.crash_fraction_per_sec = kChurnRate;
    p.live.join_fraction_per_sec = kChurnRate;
    p.live.op_max_attempts = 2;
    p.live.refresh = point == 1;
    p.live.refresh_eps_max = kEpsMax;
    return p;
}

// §6.1 expected churned fraction after t seconds of rate-r crash+join.
double churned_fraction(double t_s) {
    return 1.0 - std::exp(-kChurnRate * t_s);
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            setenv("PQS_SCALE", "smoke", 1);
        }
    }
    bench::banner("Figure 7(b) live",
                  "measured intersection vs time under continuous churn");
    std::printf("crash = join = %.3f of n per second; eps = 0.05, "
                "eps_max = %.2f\n", kChurnRate, kEpsMax);

    auto csv = bench::csv("fig07b_live_degradation",
                          {"refresh", "t_s", "lookups",
                           "intersect_measured", "intersect_analytic",
                           "floor", "alive", "lookup_quorum"});

    const exp::ExperimentRunner runner = bench::runner(745);
    const exp::RunReport report = runner.run(2, make_point);

    for (std::size_t point = 0; point < report.points.size(); ++point) {
        const bool refresh = point == 1;
        const core::ScenarioResult& mean = report.points[point].stats.mean;
        const double eps0 = core::nonintersection_upper_bound(
            mean.advertise_quorum, mean.lookup_quorum, mean.n);
        std::printf("\n(%s; qa=%zu ql=%zu eps0=%.3f; crashes=%.0f "
                    "joins=%.0f refreshes=%.0f)\n",
                    refresh ? "with refresh" : "no refresh",
                    mean.advertise_quorum, mean.lookup_quorum, eps0,
                    mean.live_crashes, mean.live_joins, mean.live_refreshes);
        std::printf("%8s %9s %14s %14s %8s %8s\n", "t[s]", "lookups",
                    "measured", refresh ? "floor" : "analytic", "alive",
                    "ql");
        for (const core::LiveSample& s : mean.live_samples) {
            if (s.lookups <= 0.0) {
                continue;
            }
            const double measured = s.intersections / s.lookups;
            const double analytic =
                1.0 - core::degraded_miss_bound(
                          eps0, churned_fraction(s.t_s),
                          ChurnKind::kFailuresAndJoins,
                          LookupSizing::kFixed);
            const double reference = refresh ? 1.0 - kEpsMax : analytic;
            std::printf("%8.1f %9.0f %14.3f %14.3f %8.1f %8.1f\n", s.t_s,
                        s.lookups, measured, reference, s.alive_nodes,
                        s.lookup_quorum);
            csv.row({refresh ? 1.0 : 0.0, s.t_s, s.lookups, measured,
                     analytic, 1.0 - kEpsMax, s.alive_nodes,
                     s.lookup_quorum});
        }
    }
    std::printf("\n(expectation: the no-refresh curve decays with f(t) = "
                "1 - exp(-%.2f t); refresh holds the measured value near "
                "the 1 - eps_max = %.2f floor)\n", kChurnRate,
                1.0 - kEpsMax);
    exp::report_perf(report, "fig07b_live");
    return 0;
}
