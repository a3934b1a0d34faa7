// End-to-end experiment driver reproducing the paper's simulation scenario
// (§2.4, §8): build a network, run a warm-up, perform a batch of
// advertisements by random nodes, optionally apply churn, then perform a
// batch of lookups from a set of random nodes, and report the paper's
// metrics (hit ratio, network-layer messages per operation, additional
// routing overhead, reply drops, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/location_service.h"
#include "membership/oracle_membership.h"
#include "net/world.h"
#include "sim/byzantine_plan.h"
#include "obs/latency_histogram.h"
#include "util/kernel_stats.h"
#include "util/stats.h"

namespace pqs::core {

// Continuous-churn mode (§6.1 measured live, Fig. 7(b) companion): the
// lookup phase runs WHILE a sim::FaultPlan crashes/joins/recovers nodes,
// instead of applying churn as a single step between phases. Everything
// here defaults to off; with enabled=false the scenario is bit-identical
// to the classic two-phase run.
struct LiveChurnParams {
    bool enabled = false;

    // Poisson churn rates (fraction of the current population per second).
    double crash_fraction_per_sec = 0.0;
    double join_fraction_per_sec = 0.0;
    // Probability / mean delay of a crashed node's warm restart.
    double recover_probability = 0.0;
    sim::Time recover_delay_mean = 30 * sim::kSecond;

    // Link-level drop probability, active during the live phase only.
    double link_drop = 0.0;

    // Quorum refresh (§6.1 "with refresh" curve): every advertise origin
    // re-advertises at the interval derived from refresh_eps_max and the
    // churn rates, or at the explicit override.
    bool refresh = false;
    double refresh_eps_max = 0.2;
    std::optional<sim::Time> refresh_interval;

    // Operation-level retry for accesses issued during the live phase,
    // with RetryPolicy's backoff (500 ms, doubling per attempt).
    int op_max_attempts = 1;
};

// One time bucket of the live phase. All fields are doubles so buckets
// aggregate across runs exactly like scalar metrics.
struct LiveSample {
    double t_s = 0.0;           // bucket end, seconds since live start
    double lookups = 0.0;       // lookups resolved in this bucket
    double hits = 0.0;
    double intersections = 0.0;
    double alive_nodes = 0.0;   // mean alive population at resolution
    double lookup_quorum = 0.0; // mean configured lookup size
};

struct ScenarioParams {
    net::WorldParams world;
    BiquorumSpec spec;
    // Oracle membership view size; 0 keeps the paper's default of
    // 2*sqrt(n).
    std::size_t membership_view = 0;

    std::size_t advertise_count = 100;  // paper: 100
    std::size_t lookup_count = 1000;    // paper: 1000
    std::size_t lookup_nodes = 25;      // paper: 25 random querying nodes
    sim::Time warmup = 15 * sim::kSecond;
    sim::Time op_spacing = 200 * sim::kMillisecond;
    sim::Time op_timeout = 20 * sim::kSecond;
    // Operation-level retry for the classic two-phase run (a vote-
    // inconclusive lookup attempt retries like any failed one), with
    // RetryPolicy's backoff (500 ms, doubling per attempt). The live
    // phase keeps its own live.op_max_attempts. 1 = single attempt, the
    // historical behavior.
    int op_max_attempts = 1;

    // Look up keys that were never advertised (measures the cost of a
    // miss: the full quorum is paid, no early halting — Fig. 16).
    bool lookup_missing_keys = false;

    // Churn applied between the advertise and lookup phases (Fig. 14(f)):
    // fractions of the post-advertise network that fail / join.
    double fail_fraction = 0.0;
    double join_fraction = 0.0;
    // Re-derive the lookup quorum size from n(t) after churn (§6.1 case b).
    bool adjust_lookup_to_network = false;

    // Timed quorums: every value a holder stores carries this lease and
    // is evicted when it runs out unless re-advertised (refreshes extend
    // it). 0 disables expiry — the historical behavior, with no expiry
    // events scheduled at all. Pair with live.refresh to measure the
    // ε(Δ, refresh rate, duty cycle) trade of theory.h's
    // timed_quorum_miss_bound.
    sim::Time value_lease = 0;

    // Continuous churn during the lookup phase (replaces the step churn
    // above when enabled).
    LiveChurnParams live;

    // Byzantine reply-path adversary (off at byzantine.b == 0, where the
    // run is bit-identical to a build without the hook). byzantine.b is
    // how many nodes actually misbehave; spec.byzantine_b is the masking
    // budget the protocol defends against — keeping them independent lets
    // experiments measure what happens when the adversary exceeds (or
    // stays under) the provisioned budget.
    sim::ByzantinePlanParams byzantine;
};

struct ScenarioResult {
    std::size_t n = 0;
    std::size_t advertise_quorum = 0;
    std::size_t lookup_quorum = 0;

    // Lookup-phase outcomes.
    double hit_ratio = 0.0;        // replies received / lookups
    double intersect_ratio = 0.0;  // quorums intersected / lookups
    double reply_drop_ratio = 0.0; // intersected but reply lost
    double avg_lookup_nodes = 0.0; // quorum nodes contacted per lookup
    // Mean latency of *successful* lookups only. Timed-out and failed
    // lookups are excluded (they used to pollute the mean with the op
    // timeout constant); their frequency is timeout_rate below.
    double avg_lookup_latency_s = 0.0;
    double timeout_rate = 0.0;     // lookups that ended in a timeout

    // Advertise-phase outcomes.
    double advertise_ok_ratio = 0.0;
    double avg_advertise_nodes = 0.0;

    // Message accounting (network-layer transmissions per operation).
    double msgs_per_advertise = 0.0;
    double routing_per_advertise = 0.0;
    double msgs_per_lookup = 0.0;
    double routing_per_lookup = 0.0;

    // §3 load metric over the whole run (advertise + lookup phases).
    LoadSummary load;

    // b-masking / adversary accounting (all zero when byzantine.b == 0).
    double inconclusive_rate = 0.0;   // lookups ending vote-inconclusive
    double byzantine_marked = 0.0;    // nodes the plan actually marked
    double byzantine_tampered = 0.0;  // replies dropped or forged

    // 1.0 when the scenario aborted cleanly (e.g. churn left no node alive
    // to look up from); the phases after the abort report zeros.
    double aborted = 0.0;

    // Live-churn mode accounting (zero when live.enabled is false).
    double live_crashes = 0.0;
    double live_joins = 0.0;
    double live_recoveries = 0.0;
    double live_refreshes = 0.0;

    // Energy / duty-cycle accounting (all zero when world.energy is off;
    // sleep transitions and battery depletions are counted in `kernel`).
    double energy_consumed_j = 0.0;  // joules drawn over the run, all nodes
    double joules_per_lookup = 0.0;  // lookup-phase draw / lookup count
    // Network lifetime marks; -1.0 = never reached during the run.
    double time_to_first_partition_s = 0.0;
    double time_to_half_depletion_s = 0.0;

    // Time-bucketed live-phase outcomes (empty unless live.enabled).
    std::vector<LiveSample> live_samples;

    // Bytes of node-lifetime state placed in the world's bump arena
    // (high-water mark). Deterministic for a seed — the layout-level
    // memory cost companion to the host-dependent peak RSS that
    // exp::report_perf prints next to it.
    double arena_high_water = 0.0;

    // The world's counter registry at the end of the run (events, grid,
    // packet pool, transmissions by category, energy, leases, ...);
    // deterministic for a seed. Aggregation sums these across runs: they
    // are raw counts, not per-run means.
    util::KernelStats kernel;

    // Log-bucketed latencies of successful lookups (p50/p95/p99 via
    // quantile()). Always populated — it costs one array increment per
    // lookup — and merged across runs like `kernel`.
    obs::LatencyHistogram latency_hist;
};

// One scalar metric of a ScenarioResult, addressable generically so
// multi-run aggregation (means, error bars, cross-thread-count equality
// checks) never needs a hand-written field-by-field loop.
struct ScenarioMetric {
    const char* name;
    double (*get)(const ScenarioResult&);
    void (*set)(ScenarioResult&, double);
};

// Every scalar metric of ScenarioResult, in declaration order.
const std::vector<ScenarioMetric>& scenario_metrics();

// Multi-run summary: per-metric mean and sample standard deviation (the
// paper plots 10-run means with error bars on every figure point).
struct ScenarioAggregate {
    ScenarioResult mean;    // also carries n/quorum sizes and summed kernel
    ScenarioResult stddev;  // sample stddev per metric; zero when runs < 2
    int runs = 0;
};

// Reduces independent runs (in the given order, so results are identical
// for any execution schedule that preserves indexing) into mean + stddev.
ScenarioAggregate aggregate_scenarios(
    const std::vector<ScenarioResult>& results);

ScenarioResult run_scenario(const ScenarioParams& params);

// Aggregates `runs` scenario executions with seeds seed_base+0..runs-1.
// Runs execute in parallel on the PQS_THREADS pool (see util/parallel.h);
// the aggregate is bit-identical for every thread count.
ScenarioAggregate run_scenario_averaged(ScenarioParams params, int runs,
                                        std::uint64_t seed_base = 1);

// Runs `count` operations back to back: each op's completion callback
// schedules the next launch after `spacing`. Drives the simulator until
// all ops completed, the deadline passed, or *abort became true. The
// continuation state is shared-owned by every scheduled event, so ops
// still in flight when the driver gives up stay safe to resolve later.
// Exposed for the scenario driver's regression tests.
void run_sequential(net::World& world, std::size_t count, sim::Time spacing,
                    sim::Time per_op_budget,
                    std::function<void(std::size_t, std::function<void()>)> op,
                    const bool* abort = nullptr);

}  // namespace pqs::core
