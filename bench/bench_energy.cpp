// bench_energy — duty-cycled radios, batteries and timed quorums (ISSUE 10).
//
// Part 1, quorum-level Monte Carlo: for each duty fraction d and lease
// configuration (Δ, R), sample an advertise quorum, thin it by waking each
// holder independently with probability d, draw the value's validity from
// the correlated-lease coverage c = min(1, Δ/R), and probe a lookup
// quorum — a miss is a draw where no probed target is an awake holder of
// a still-valid value. The measured miss rate must stay at or below the
// closed-form theory::timed_quorum_miss_bound (plus the Monte-Carlo
// confidence half-width) at EVERY point of the sweep — asserted here, so
// the ctest smoke run gates the theory against the measurement on every
// CI pass. The d = 1, no-lease point doubles as the reduction anchor:
// its bound must be bit-equal to nonintersection_upper_bound.
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
//   --smoke  fewer Monte-Carlo trials and lookups (the ctest gate)
//   --out    output JSON path (default BENCH_energy.json in the cwd)
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

    bool smoke = false;
    std::string out_path = "BENCH_energy.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_energy [--smoke] [--out PATH]\n");
            return 2;
        }
    }

    bool ok = true;
    const auto check = [&ok](bool cond, const char* what) {
        if (!cond) {
            std::fprintf(stderr, "FATAL: %s\n", what);
            ok = false;
        }
    };

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
                smoke ? "smoke" : "full", n_mc, q, eps,
                static_cast<unsigned long long>(trials));
    check(core::duty_cycled_miss_bound(q, q, n_mc, 1.0) ==
              core::nonintersection_upper_bound(q, q, n_mc),
          "d=1 bound is not bit-equal to the undented nonintersection "
          "bound (the reduction anchor broke)");

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
            check(pt.measured_rate <= pt.bound + pt.ci_halfwidth,
                  "measured miss rate exceeds the closed-form "
                  "timed-quorum bound");
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
    // bound does not model. The gate still fails CI if availability
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
        check(r.aborted == 0.0, "scenario aborted");
        check(r.energy_consumed_j > 0.0, "battery meters stayed empty");
        check(r.joules_per_lookup > 0.0, "joules-per-lookup stayed zero");
        check(r.hit_ratio >= 1.0 - pt.bound - kRoutingSlack,
              "measured availability diverged from the closed-form bound "
              "by more than the documented routing slack");
        if (duty < 1.0) {
            check(r.kernel.energy_sleep_transitions > 0,
                  "duty < 1 produced no sleep transitions");
        } else {
            check(r.kernel.energy_sleep_transitions == 0,
                  "duty = 1 slept anyway");
        }
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
    check(lifetime.kernel.energy_depletions > 0, "no battery ever depleted");
    check(lifetime.time_to_half_depletion_s > 0.0,
          "network never reached 50% depletion");
    check(lifetime.time_to_first_partition_s != 0.0,
          "time_to_first_partition_s was left unset");
    // Meters freeze at capacity when a battery dies, so total draw can
    // never exceed the fleet's aggregate capacity.
    check(lifetime.energy_consumed_j <=
              static_cast<double>(n_e2e) * pl.world.energy.battery_j + 1e-6,
          "energy meter overran the fleet's aggregate battery capacity");

    // ---- part 2c: timed-quorum (lease) point ----
    core::ScenarioParams pt_lease = e2e_params(n_e2e, lookups);
    pt_lease.value_lease = 3 * sim::kSecond;  // << the lookup train
    const core::ScenarioResult leased = core::run_scenario(pt_lease);
    const core::ScenarioResult eternal =
        core::run_scenario(e2e_params(n_e2e, lookups));
    std::printf("  lease 3s: hit=%.3f (eternal %.3f) expirations=%llu\n",
                leased.hit_ratio, eternal.hit_ratio,
                static_cast<unsigned long long>(
                    leased.kernel.lease_expirations));
    check(leased.kernel.lease_expirations > 0, "no lease ever expired");
    check(leased.hit_ratio < eternal.hit_ratio,
          "expiring every value cost no availability (leases inert?)");
    const double e2e_wall = now_seconds() - t1;

    if (!ok) {
        return 1;
    }

    std::string json = "{\n";
    json += "  \"schema\": \"pqs.bench_energy/1\",\n";
    json += "  \"mode\": \"" + std::string(smoke ? "smoke" : "full") +
            "\",\n";
    json += "  \"mc\": {\n";
    json += "    \"n\": " + fmt_u64(n_mc) + ",\n";
    json += "    \"eps\": " + fmt_double(eps) + ",\n";
    json += "    \"quorum_size\": " + fmt_u64(q) + ",\n";
    json += "    \"trials\": " + fmt_u64(trials) + ",\n";
    json += "    \"wall_seconds\": " + fmt_double(mc_wall) + ",\n";
    json += "    \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const McPoint& pt = sweep[i];
        json += "      {\"duty\": " + fmt_double(pt.duty) +
                ", \"lease_s\": " + fmt_double(pt.lease_s) +
                ", \"refresh_s\": " + fmt_double(pt.refresh_s) +
                ", \"coverage\": " + fmt_double(pt.coverage) +
                ", \"bound\": " + fmt_double(pt.bound) +
                ", \"misses\": " + fmt_u64(pt.misses) +
                ", \"measured_rate\": " + fmt_double(pt.measured_rate) +
                ", \"ci_halfwidth\": " + fmt_double(pt.ci_halfwidth) + "}" +
                (i + 1 < sweep.size() ? "," : "") + "\n";
    }
    json += "    ]\n  },\n";
    json += "  \"e2e\": {\n";
    json += "    \"n\": " + fmt_u64(n_e2e) + ",\n";
    json += "    \"lookups\": " + fmt_u64(lookups) + ",\n";
    json += "    \"routing_slack\": " + fmt_double(kRoutingSlack) + ",\n";
    json += "    \"wall_seconds\": " + fmt_double(e2e_wall) + ",\n";
    json += "    \"duty_sweep\": [\n";
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        const E2ePoint& pt = e2e[i];
        const core::ScenarioResult& r = pt.result;
        json += "      {\"duty\": " + fmt_double(pt.duty) +
                ", \"advertise_quorum\": " + fmt_u64(r.advertise_quorum) +
                ", \"lookup_quorum\": " + fmt_u64(r.lookup_quorum) +
                ", \"bound\": " + fmt_double(pt.bound) +
                ", \"availability\": " + fmt_double(r.hit_ratio) +
                ", \"timeout_rate\": " + fmt_double(r.timeout_rate) +
                ", \"joules_per_lookup\": " +
                fmt_double(r.joules_per_lookup) +
                ", \"energy_consumed_j\": " +
                fmt_double(r.energy_consumed_j) +
                ", \"sleep_transitions\": " +
                fmt_u64(r.kernel.energy_sleep_transitions) +
                ", \"refreshes_deferred\": " +
                fmt_u64(r.kernel.refreshes_deferred) + "}" +
                (i + 1 < e2e.size() ? "," : "") + "\n";
    }
    json += "    ],\n";
    json += "    \"lifetime\": {\"battery_j\": " +
            fmt_double(pl.world.energy.battery_j) +
            ", \"depletions\": " +
            fmt_u64(lifetime.kernel.energy_depletions) +
            ", \"time_to_half_depletion_s\": " +
            fmt_double(lifetime.time_to_half_depletion_s) +
            ", \"time_to_first_partition_s\": " +
            fmt_double(lifetime.time_to_first_partition_s) +
            ", \"availability\": " + fmt_double(lifetime.hit_ratio) +
            ", \"joules_per_lookup\": " +
            fmt_double(lifetime.joules_per_lookup) + "},\n";
    json += "    \"lease\": {\"value_lease_s\": 3" +
            std::string(", \"lease_expirations\": ") +
            fmt_u64(leased.kernel.lease_expirations) +
            ", \"availability\": " + fmt_double(leased.hit_ratio) +
            ", \"availability_no_lease\": " +
            fmt_double(eternal.hit_ratio) + "}\n";
    json += "  }\n}\n";

    if (!write_file(out_path, json)) {
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
