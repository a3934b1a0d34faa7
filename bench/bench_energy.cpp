// bench_energy — duty-cycled radios, batteries and timed quorums (ISSUE 10).
//
// Part 1, quorum-level Monte Carlo: for each duty fraction d and lease
// configuration (Δ, R), sample an advertise quorum, thin it by waking each
// holder independently with probability d, draw the value's validity from
// the correlated-lease coverage c = min(1, Δ/R), and probe a lookup
// quorum — a miss is a draw where no probed target is an awake holder of
// a still-valid value. The measured miss rate must stay at or below the
// closed-form theory::timed_quorum_miss_bound (plus the Monte-Carlo
// confidence half-width) at EVERY point of the sweep;
// scripts/check_bench_json.py gates the theory against the measurement on
// every CI pass. The d = 1, no-lease point doubles as the reduction
// anchor; EnergyTheory.DutyOneReducesBitExact pins its bound bit-equal to
// nonintersection_upper_bound.
//
// Part 2, end-to-end: run_scenario with the sim::EnergyModel duty-cycling
// every radio, reporting measured availability vs the quorum-level bound
// (with an explicit, documented routing slack — multihop forwarding
// through sleeping relays degrades beyond what quorum math prices),
// joules-per-lookup from the battery meters, plus one finite-battery
// point measuring network lifetime (time to 50% depletion / first
// partition) and one leased point (value_lease << run length) showing
// lease expirations costing availability.
//
// Emits BENCH_energy.json (schema pqs.bench_energy/1).
//
// Usage: bench_energy [--smoke] [--out PATH]
//   --smoke  fewer Monte-Carlo trials and lookups (the ctest smoke run)
//   --out    output JSON path (default BENCH_energy.json in the cwd)
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

struct McPoint {
    double duty = 1.0;
    double lease_s = 0.0;    // 0 = no lease (coverage 1)
    double refresh_s = 0.0;
    double coverage = 1.0;
    double bound = 0.0;      // timed_quorum_miss_bound at the sizes
    std::uint64_t misses = 0;
    std::uint64_t trials = 0;
    double measured_rate = 0.0;
    double ci_halfwidth = 0.0;  // one-sided Hoeffding at alpha = 1e-6
};

// Monte-Carlo miss rate under duty-cycled holders and correlated leases:
// validity is one coin per trial (the refresher re-advertises the whole
// quorum at once, so every holder's copy expires together); wakefulness
// is one coin per holder (phases are independent across nodes).
McPoint measure_duty(std::size_t n, std::size_t qa, std::size_t ql,
                     double duty, double lease_s, double refresh_s,
                     std::uint64_t trials, util::Rng& rng) {
    McPoint pt;
    pt.duty = duty;
    pt.lease_s = lease_s;
    pt.refresh_s = refresh_s;
    pt.coverage = core::lease_coverage(lease_s, refresh_s);
    pt.bound =
        core::timed_quorum_miss_bound(qa, ql, n, duty, lease_s, refresh_s);
    pt.trials = trials;

    // flags[i]: true = awake holder of a valid value.
    std::vector<bool> awake_holder(n, false);
    for (std::uint64_t t = 0; t < trials; ++t) {
        const bool valid = pt.coverage >= 1.0 || rng.bernoulli(pt.coverage);
        const auto holders = rng.sample_without_replacement(n, qa);
        if (valid) {
            for (const std::size_t id : holders) {
                awake_holder[id] = duty >= 1.0 || rng.bernoulli(duty);
            }
        }
        bool hit = false;
        for (const std::size_t id : rng.sample_without_replacement(n, ql)) {
            hit = hit || awake_holder[id];
        }
        if (!hit) {
            ++pt.misses;
        }
        for (const std::size_t id : holders) {
            awake_holder[id] = false;
        }
    }
    pt.measured_rate =
        static_cast<double>(pt.misses) / static_cast<double>(trials);
    pt.ci_halfwidth =
        std::sqrt(std::log(1e6) / (2.0 * static_cast<double>(trials)));
    return pt;
}

struct E2ePoint {
    double duty = 1.0;
    double bound = 0.0;  // duty_cycled_miss_bound at the run's real sizes
    core::ScenarioResult result;
};

// The leased point's value lease, far shorter than the lookup train.
constexpr sim::Time kValueLease = 3 * sim::kSecond;

core::ScenarioParams e2e_params(std::size_t n, std::size_t lookups) {
    core::ScenarioParams p;
    p.world.n = n;
    p.world.seed = 20080;  // DSN 2008
    // Denser than the paper's d_avg = 10 default: shorter routes mean
    // fewer sleeping relays per probe, keeping the measured availability
    // attributable to the quorum math rather than the routing fabric.
    p.world.avg_degree = 16.0;
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.lookup.kind = core::StrategyKind::kRandom;
    p.spec.eps = 0.1;
    p.membership_view = n;
    p.advertise_count = 10;
    p.lookup_count = lookups;
    p.lookup_nodes = 8;
    p.warmup = 12 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    // Retries recover lookups whose first attempt raced a sleep window;
    // the single-shot bound is then conservative for the measured rate.
    p.op_max_attempts = 3;
    return p;
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    const BenchArgs args = parse_args(argc, argv, "energy");
    const bool smoke = args.smoke;

    // ---- part 1: MC duty/lease sweep vs the closed-form bound ----
    const std::size_t n_mc = 400;
    const double eps = 0.1;
    const std::size_t q = core::symmetric_quorum_size(n_mc, eps);
    const std::uint64_t trials = smoke ? 20'000 : 200'000;
    const double duty_sweep[] = {1.0, 0.8, 0.6, 0.4, 0.2};
    // (lease_s, refresh_s): eternal values, and a half-covered lease.
    const std::pair<double, double> lease_cfgs[] = {{0.0, 0.0},
                                                    {15.0, 30.0}};

    std::printf("bench_energy (%s): MC duty sweep n=%zu q=%zu eps=%g "
                "trials=%llu\n",
                args.mode(), n_mc, q, eps,
                static_cast<unsigned long long>(trials));

    util::Rng mc_rng(0xe6e26eedULL);
    const double t0 = now_seconds();
    std::vector<McPoint> sweep;
    for (const auto& [lease_s, refresh_s] : lease_cfgs) {
        for (const double duty : duty_sweep) {
            util::Rng point_rng = mc_rng.fork();
            sweep.push_back(measure_duty(n_mc, q, q, duty, lease_s,
                                         refresh_s, trials, point_rng));
            const McPoint& pt = sweep.back();
            std::printf("  d=%.1f lease=%gs/%gs c=%.2f bound=%.4f "
                        "measured=%.4f (+/-%.4f)\n",
                        pt.duty, pt.lease_s, pt.refresh_s, pt.coverage,
                        pt.bound, pt.measured_rate, pt.ci_halfwidth);
        }
    }
    const double mc_wall = now_seconds() - t0;

    // ---- part 2: end-to-end duty sweep ----
    const std::size_t n_e2e = smoke ? 64 : 100;
    const std::size_t lookups = smoke ? 60 : 200;
    // Routing slack: the quorum bound prices probe/holder wakefulness
    // only. End to end, AODV routes and reply paths traverse relays that
    // may be asleep — every hop of every probe pays the duty tax, so the
    // multihop miss rate compounds per hop in a way the single-contact
    // bound does not model. The checker still fails CI if availability
    // diverges from 1 - bound by more than this documented allowance.
    const double kRoutingSlack = 0.30;
    const double e2e_duty[] = {1.0, 0.9, 0.8};

    const double t1 = now_seconds();
    std::vector<E2ePoint> e2e;
    for (const double duty : e2e_duty) {
        core::ScenarioParams p = e2e_params(n_e2e, lookups);
        p.world.energy.enabled = true;
        p.world.energy.duty = duty;
        p.world.energy.period = sim::kSecond;
        E2ePoint pt;
        pt.duty = duty;
        pt.result = core::run_scenario(p);
        const core::ScenarioResult& r = pt.result;
        pt.bound = core::duty_cycled_miss_bound(
            r.advertise_quorum, r.lookup_quorum, n_e2e, duty);
        e2e.push_back(pt);
        std::printf("  e2e d=%.2f: hit=%.3f 1-bound=%.3f J/lookup=%.4g "
                    "sleeps=%llu deferred=%llu\n",
                    duty, r.hit_ratio, 1.0 - pt.bound, r.joules_per_lookup,
                    static_cast<unsigned long long>(
                        r.kernel.energy_sleep_transitions),
                    static_cast<unsigned long long>(
                        r.kernel.refreshes_deferred));
    }
    // No cross-run total-joules comparison: lower duty stretches the op
    // train (timeouts), so total draw is not monotone in duty even though
    // instantaneous power is — joules_per_lookup above is the honest
    // per-work figure the JSON reports.

    // ---- part 2b: finite-battery lifetime point ----
    core::ScenarioParams pl = e2e_params(n_e2e, lookups);
    pl.world.energy.enabled = true;
    pl.world.energy.duty = 1.0;
    // Die during the lookup train: warmup 12s + ~1s advertises + the
    // lookup train; idle draw 56.4 mW puts depletion near t = 18s.
    pl.world.energy.battery_j = pl.world.energy.p_idle_w * 18.0;
    pl.op_timeout = 5 * sim::kSecond;
    const core::ScenarioResult lifetime = core::run_scenario(pl);
    std::printf("  lifetime: depletions=%llu t_half=%.2fs t_part=%.2fs\n",
                static_cast<unsigned long long>(
                    lifetime.kernel.energy_depletions),
                lifetime.time_to_half_depletion_s,
                lifetime.time_to_first_partition_s);

    // ---- part 2c: timed-quorum (lease) point ----
    core::ScenarioParams pt_lease = e2e_params(n_e2e, lookups);
    pt_lease.value_lease = kValueLease;
    const core::ScenarioResult leased = core::run_scenario(pt_lease);
    const core::ScenarioResult eternal =
        core::run_scenario(e2e_params(n_e2e, lookups));
    std::printf("  lease %gs: hit=%.3f (eternal %.3f) expirations=%llu\n",
                sim::to_seconds(kValueLease), leased.hit_ratio,
                eternal.hit_ratio,
                static_cast<unsigned long long>(
                    leased.kernel.lease_expirations));
    const double e2e_wall = now_seconds() - t1;

    Json mc_sweep = Json::array();
    for (const McPoint& pt : sweep) {
        mc_sweep.push(Json::object()
                          .set("duty", pt.duty)
                          .set("lease_s", pt.lease_s)
                          .set("refresh_s", pt.refresh_s)
                          .set("coverage", pt.coverage)
                          .set("bound", pt.bound)
                          .set("misses", pt.misses)
                          .set("measured_rate", pt.measured_rate)
                          .set("ci_halfwidth", pt.ci_halfwidth));
    }
    Json duty_points = Json::array();
    for (const E2ePoint& pt : e2e) {
        const core::ScenarioResult& r = pt.result;
        duty_points.push(
            Json::object()
                .set("duty", pt.duty)
                .set("advertise_quorum", r.advertise_quorum)
                .set("lookup_quorum", r.lookup_quorum)
                .set("bound", pt.bound)
                .set("availability", r.hit_ratio)
                .set("timeout_rate", r.timeout_rate)
                .set("joules_per_lookup", r.joules_per_lookup)
                .set("energy_consumed_j", r.energy_consumed_j)
                .set("sleep_transitions", r.kernel.energy_sleep_transitions)
                .set("refreshes_deferred", r.kernel.refreshes_deferred)
                .set("aborted", r.aborted));
    }
    const Json e2e_json =
        Json::object()
            .set("n", n_e2e)
            .set("lookups", lookups)
            .set("routing_slack", kRoutingSlack)
            .set("wall_seconds", e2e_wall)
            .set("duty_sweep", duty_points)
            .set("lifetime",
                 Json::object()
                     .set("battery_j", pl.world.energy.battery_j)
                     .set("depletions", lifetime.kernel.energy_depletions)
                     .set("time_to_half_depletion_s",
                          lifetime.time_to_half_depletion_s)
                     .set("time_to_first_partition_s",
                          lifetime.time_to_first_partition_s)
                     .set("availability", lifetime.hit_ratio)
                     .set("joules_per_lookup", lifetime.joules_per_lookup)
                     .set("energy_consumed_j", lifetime.energy_consumed_j))
            .set("lease",
                 Json::object()
                     .set("value_lease_s", sim::to_seconds(kValueLease))
                     .set("lease_expirations",
                          leased.kernel.lease_expirations)
                     .set("availability", leased.hit_ratio)
                     .set("availability_no_lease", eternal.hit_ratio));
    const Json doc = Json::object()
                         .set("schema", "pqs.bench_energy/1")
                         .set("mode", args.mode())
                         .set("mc", Json::object()
                                        .set("n", n_mc)
                                        .set("eps", eps)
                                        .set("quorum_size", q)
                                        .set("trials", trials)
                                        .set("wall_seconds", mc_wall)
                                        .set("sweep", mc_sweep))
                         .set("e2e", e2e_json);
    return write_json(args.out, doc) ? 0 : 1;
}
