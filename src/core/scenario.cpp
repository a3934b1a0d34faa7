#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/byzantine_adversary.h"
#include "core/maintenance.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace pqs::core {

namespace {

// Width of the time buckets the live phase reports the measured
// intersection probability in (ScenarioResult::live_samples).
constexpr sim::Time kLiveSamplePeriod = 5 * sim::kSecond;

// Continuation state for run_sequential. Shared-owned by the driver and by
// every event the driver schedules: a straggler continuation firing after
// run_sequential returned (deadline, abort) finds the state — including
// the op closure itself — still alive. The previous version captured a
// stack-local std::function by reference in those events, which is
// exactly the use-after-scope this type exists to prevent.
struct SeqState {
    net::World& world;
    std::function<void(std::size_t, std::function<void()>)> op;
    const sim::Time spacing;
    const std::size_t count;
    const bool* abort;
    std::size_t next = 0;
    bool finished = false;
};

void seq_launch(const std::shared_ptr<SeqState>& state) {
    if ((state->abort != nullptr && *state->abort) ||
        state->next >= state->count) {
        state->finished = true;
        return;
    }
    const std::size_t index = state->next++;
    state->op(index, [state] {
        // pqs-lint: fire-and-forget(chain owns SeqState by shared_ptr; it
        // ends itself via state->finished when the op budget is spent)
        state->world.simulator().schedule_in(state->spacing,
                                             [state] { seq_launch(state); });
    });
}

// pqs-hot: called once per launched op. select(r) over the liveness
// bitset consumes the same RNG draw as indexing the old alive_nodes()
// snapshot and returns the same node — no O(n) copy per op.
std::optional<util::NodeId> random_alive(net::World& world, util::Rng& rng) {
    const util::AliveSet& alive = world.alive_set();
    if (alive.count() == 0) {
        return std::nullopt;
    }
    return alive.select(rng.index(alive.count()));
}

}  // namespace

void run_sequential(net::World& world, std::size_t count, sim::Time spacing,
                    sim::Time per_op_budget,
                    std::function<void(std::size_t, std::function<void()>)> op,
                    const bool* abort) {
    if (count == 0) {
        return;
    }
    sim::Simulator& simulator = world.simulator();
    const sim::Time deadline =
        simulator.now() +
        static_cast<sim::Time>(count) * (per_op_budget + spacing) +
        60 * sim::kSecond;

    auto state = std::make_shared<SeqState>(
        SeqState{world, std::move(op), spacing, count, abort});
    seq_launch(state);
    while (!state->finished && !(abort != nullptr && *abort) &&
           simulator.now() < deadline && simulator.step()) {
    }
    if (!state->finished && !(abort != nullptr && *abort)) {
        PQS_WARN("scenario: sequential op driver hit its deadline with "
                 << state->next << "/" << count << " ops launched");
    }
}

ScenarioResult run_scenario(const ScenarioParams& params) {
    net::World world(params.world);
    const util::ScopedLogClock log_clock(
        [&world] { return sim::to_seconds(world.simulator().now()); });
    // Per-trial trace sink (thread-local, so parallel trials are
    // independent). Nothing below is constructed when tracing is off, and
    // obs::record() is a no-op — the run stays bit-identical.
    const obs::TraceOptions& trace_opts = obs::trace_options();
    std::unique_ptr<obs::TraceSink> trace_sink;
    if (trace_opts.enabled) {
        trace_sink = std::make_unique<obs::TraceSink>(world.simulator(),
                                                      trace_opts.capacity);
    }
    const obs::ScopedTraceSink scoped_sink(trace_sink.get());
    membership::OracleMembershipParams mp;
    mp.view_size = params.membership_view;
    membership::OracleMembership membership(world, mp);
    LocationService service(world, params.spec, &membership);
    service.biquorum().context().op_timeout = params.op_timeout;
    service.biquorum().context().retry =
        RetryPolicy{.max_attempts = params.op_max_attempts};
    service.biquorum().context().value_lease = params.value_lease;

    // Byzantine adversary: nothing below exists at b == 0 (no allocations,
    // no RNG, no spawn listener), so the classic run is bit-identical to a
    // build without the tamper hook.
    std::unique_ptr<sim::ByzantinePlan> byz_plan;
    std::unique_ptr<ByzantineAdversary> byz_adversary;
    if (params.byzantine.b > 0) {
        byz_plan = std::make_unique<sim::ByzantinePlan>(
            params.byzantine,
            util::Rng(params.world.seed ^ 0xbad0c0de5eed));
        byz_plan->recruit_static(params.world.n);
        world.add_spawn_listener(
            [plan = byz_plan.get()](util::NodeId id) { plan->on_join(id); });
        byz_adversary =
            std::make_unique<ByzantineAdversary>(world, *byz_plan);
    }

    ScenarioResult result;
    result.n = params.world.n;
    result.advertise_quorum =
        service.biquorum().spec().advertise.quorum_size;
    result.lookup_quorum = service.biquorum().spec().lookup.quorum_size;

    world.start();
    world.simulator().run_until(world.simulator().now() + params.warmup);

    util::Rng rng(params.world.seed ^ 0x5ca1ab1e5eed);
    bool aborted = false;

    // ---- advertise phase ----
    const util::KernelStats before_adv = world.kernel_stats();
    std::vector<util::Key> keys;
    keys.reserve(params.advertise_count);
    std::vector<util::NodeId> advertisers;
    util::Accumulator adv_nodes;
    std::size_t adv_ok = 0;
    run_sequential(
        world, params.advertise_count, params.op_spacing, params.op_timeout,
        [&](std::size_t i, std::function<void()> next) {
            const auto origin = random_alive(world, rng);
            if (!origin) {
                PQS_WARN("scenario: no node left alive to advertise from; "
                         "aborting");
                aborted = true;
                return;
            }
            const util::Key key = 1000 + i;
            keys.push_back(key);
            advertisers.push_back(*origin);
            service.advertise(*origin, key, /*value=*/key * 7 + 1,
                              [&, next = std::move(next)](
                                  const AccessResult& r) {
                                  if (r.ok) {
                                      ++adv_ok;
                                  }
                                  adv_nodes.add(static_cast<double>(
                                      r.nodes_contacted));
                                  next();
                              });
        },
        &aborted);
    // Drain stragglers so their messages stay in the advertise phase.
    world.simulator().run_until(world.simulator().now() + 2 * sim::kSecond);
    const util::KernelStats after_adv = world.kernel_stats();

    // ---- churn between phases (Fig. 14(f); superseded by live mode) ----
    const LiveChurnParams& live = params.live;
    if (!aborted && !live.enabled && params.fail_fraction > 0.0) {
        auto alive = world.alive_nodes();
        rng.shuffle(alive);
        const auto kill = static_cast<std::size_t>(
            params.fail_fraction * static_cast<double>(alive.size()));
        for (std::size_t i = 0; i < kill; ++i) {
            world.fail_node(alive[i]);
        }
    }
    if (!aborted && !live.enabled && params.join_fraction > 0.0) {
        const auto join = static_cast<std::size_t>(
            params.join_fraction * static_cast<double>(params.world.n));
        for (std::size_t i = 0; i < join; ++i) {
            world.spawn_node();
        }
    }
    if (!aborted && !live.enabled && params.adjust_lookup_to_network &&
        (params.fail_fraction > 0.0 || params.join_fraction > 0.0)) {
        const double scale =
            std::sqrt(static_cast<double>(world.alive_count()) /
                      static_cast<double>(params.world.n));
        const auto adjusted = static_cast<std::size_t>(std::lround(
            scale * static_cast<double>(result.lookup_quorum)));
        service.biquorum().lookup_strategy().set_quorum_size(
            std::max<std::size_t>(1, adjusted));
    }

    // ---- lookup phase ----
    std::vector<util::NodeId> lookers;
    {
        const std::size_t alive_count = world.alive_count();
        const std::size_t k =
            std::min<std::size_t>(params.lookup_nodes, alive_count);
        for (const std::size_t idx :
             rng.sample_without_replacement(alive_count, k)) {
            lookers.push_back(world.alive_set().select(idx));
        }
    }
    if (!aborted && lookers.empty()) {
        PQS_WARN("scenario: no node left alive to look up from; aborting");
        aborted = true;
    }

    // Live-churn machinery; constructed only when enabled so the classic
    // two-phase scenario stays bit-identical (no extra RNG draws, events
    // or allocations).
    std::unique_ptr<sim::FaultPlan> plan;
    std::unique_ptr<QuorumRefresher> refresher;
    std::vector<LiveSample> samples;
    std::vector<double> sample_alive_sum;
    std::vector<double> sample_quorum_sum;
    bool live_active = false;
    sim::Time live_start = 0;
    if (!aborted && live.enabled) {
        live_active = true;
        live_start = world.simulator().now();
        service.biquorum().context().retry =
            RetryPolicy{.max_attempts = live.op_max_attempts};
        world.link().set_fault_injection(
            net::LinkFaults{.drop = live.link_drop});

        sim::FaultPlanParams fp;
        fp.crash_fraction_per_sec = live.crash_fraction_per_sec;
        fp.join_fraction_per_sec = live.join_fraction_per_sec;
        fp.recover_probability = live.recover_probability;
        fp.recover_delay_mean = live.recover_delay_mean;
        sim::FaultPlanHooks hooks;
        hooks.population = [&world] { return world.alive_count(); };
        hooks.crash_one =
            [&world](util::Rng& r) -> std::optional<util::NodeId> {
            const util::AliveSet& alive = world.alive_set();
            if (alive.count() == 0) {
                return std::nullopt;
            }
            const util::NodeId victim =
                alive.select(r.index(alive.count()));
            world.fail_node(victim);
            return victim;
        };
        hooks.join_one = [&world](util::Rng&) { world.spawn_node(); };
        hooks.recover = [&world](util::NodeId id) { world.revive_node(id); };
        plan = std::make_unique<sim::FaultPlan>(world.simulator(), fp,
                                                std::move(hooks), rng.fork());
        plan->start();

        if (live.refresh) {
            QuorumRefresher::Params rp;
            rp.eps_max = live.refresh_eps_max;
            rp.churn_kind = ChurnKind::kFailuresAndJoins;
            rp.churn_fraction_per_sec =
                live.crash_fraction_per_sec + live.join_fraction_per_sec;
            rp.explicit_interval = live.refresh_interval;
            refresher = std::make_unique<QuorumRefresher>(service, rp);
            for (const util::NodeId node : advertisers) {
                refresher->start_node(node);
            }
        }
    }

    const util::KernelStats before_lkp = world.kernel_stats();
    const double energy_before_lkp =
        world.energy() != nullptr ? world.energy()->consumed_j() : 0.0;
    std::size_t hits = 0;
    std::size_t intersections = 0;
    std::size_t reply_drops = 0;
    std::size_t lkp_timeouts = 0;
    std::size_t inconclusives = 0;
    util::Accumulator lkp_nodes;
    util::Accumulator lkp_latency;
    if (!aborted) {
        run_sequential(
            world, params.lookup_count, params.op_spacing, params.op_timeout,
            [&](std::size_t i, std::function<void()> next) {
                const util::Key key =
                    params.lookup_missing_keys
                        ? 900000 + i
                        : (keys.empty() ? 1 : keys[rng.index(keys.size())]);
                const util::NodeId origin =
                    lookers[rng.index(lookers.size())];
                // awake(): a duty-cycled client initiates work when its
                // radio is on — a sleeping origin is skipped like a dead
                // one, so availability measures the quorum system rather
                // than the client's own duty cycle.
                if (!world.awake(origin)) {
                    next();
                    return;
                }
                service.lookup(
                    origin, key,
                    [&, origin,
                     next = std::move(next)](const AccessResult& r) {
                        obs::record(r.trace, obs::EventKind::kOpResolved,
                                    origin,
                                    static_cast<std::uint64_t>(r.ok),
                                    static_cast<std::uint64_t>(r.attempts));
                        if (r.ok) {
                            ++hits;
                            // Success-only: a timed-out lookup's "latency"
                            // is just the timeout constant and used to drag
                            // the mean toward it.
                            lkp_latency.add(sim::to_seconds(r.latency));
                            result.latency_hist.record(r.latency);
                        }
                        if (r.timed_out) {
                            ++lkp_timeouts;
                        }
                        if (r.inconclusive) {
                            ++inconclusives;
                        }
                        if (r.intersected) {
                            ++intersections;
                        }
                        if (r.intersected && !r.ok) {
                            ++reply_drops;
                        }
                        lkp_nodes.add(
                            static_cast<double>(r.nodes_contacted));
                        if (live_active) {
                            const auto bucket = static_cast<std::size_t>(
                                (world.simulator().now() - live_start) /
                                kLiveSamplePeriod);
                            if (bucket >= samples.size()) {
                                samples.resize(bucket + 1);
                                sample_alive_sum.resize(bucket + 1, 0.0);
                                sample_quorum_sum.resize(bucket + 1, 0.0);
                            }
                            LiveSample& s = samples[bucket];
                            s.lookups += 1.0;
                            s.hits += r.ok ? 1.0 : 0.0;
                            s.intersections += r.intersected ? 1.0 : 0.0;
                            sample_alive_sum[bucket] +=
                                static_cast<double>(world.alive_count());
                            sample_quorum_sum[bucket] += static_cast<double>(
                                service.biquorum()
                                    .lookup_strategy()
                                    .config()
                                    .quorum_size);
                        }
                        next();
                    });
            },
            &aborted);
    }
    if (plan != nullptr) {
        // Freeze the fault processes, then let in-flight ops drain.
        plan->stop();
    }
    world.simulator().run_until(world.simulator().now() + 2 * sim::kSecond);
    live_active = false;
    if (live.enabled) {
        world.link().set_fault_injection(net::LinkFaults{});
        if (refresher != nullptr) {
            result.live_refreshes =
                static_cast<double>(refresher->refreshes_performed());
            refresher->stop();
        }
        if (plan != nullptr) {
            result.live_crashes = static_cast<double>(plan->crashes());
            result.live_joins = static_cast<double>(plan->joins());
            result.live_recoveries = static_cast<double>(plan->recoveries());
        }
        for (std::size_t b = 0; b < samples.size(); ++b) {
            samples[b].t_s = sim::to_seconds(
                static_cast<sim::Time>(b + 1) * kLiveSamplePeriod);
            if (samples[b].lookups > 0.0) {
                samples[b].alive_nodes =
                    sample_alive_sum[b] / samples[b].lookups;
                samples[b].lookup_quorum =
                    sample_quorum_sum[b] / samples[b].lookups;
            }
        }
        result.live_samples = std::move(samples);
    }
    const util::KernelStats after_lkp = world.kernel_stats();

    // ---- aggregate ----
    const double n_adv =
        std::max(1.0, static_cast<double>(params.advertise_count));
    const double n_lkp =
        std::max(1.0, static_cast<double>(params.lookup_count));
    result.hit_ratio = static_cast<double>(hits) / n_lkp;
    result.intersect_ratio = static_cast<double>(intersections) / n_lkp;
    result.reply_drop_ratio = static_cast<double>(reply_drops) / n_lkp;
    result.avg_lookup_nodes = lkp_nodes.empty() ? 0.0 : lkp_nodes.mean();
    result.avg_lookup_latency_s =
        lkp_latency.empty() ? 0.0 : lkp_latency.mean();
    result.timeout_rate = static_cast<double>(lkp_timeouts) / n_lkp;
    result.advertise_ok_ratio = static_cast<double>(adv_ok) / n_adv;
    result.avg_advertise_nodes = adv_nodes.empty() ? 0.0 : adv_nodes.mean();
    result.msgs_per_advertise =
        static_cast<double>(after_adv.data_tx - before_adv.data_tx) / n_adv;
    result.routing_per_advertise =
        static_cast<double>(after_adv.routing_tx - before_adv.routing_tx) /
        n_adv;
    result.msgs_per_lookup =
        static_cast<double>(after_lkp.data_tx - before_lkp.data_tx) / n_lkp;
    result.routing_per_lookup =
        static_cast<double>(after_lkp.routing_tx - before_lkp.routing_tx) /
        n_lkp;
    result.aborted = aborted ? 1.0 : 0.0;
    result.load = summarize_load(service.biquorum().context());
    result.inconclusive_rate = static_cast<double>(inconclusives) / n_lkp;
    if (byz_plan != nullptr) {
        result.byzantine_marked = static_cast<double>(byz_plan->marked());
        result.byzantine_tampered =
            static_cast<double>(byz_plan->counters().tampered());
    }
    result.kernel = world.kernel_stats();
    if (world.energy() != nullptr) {
        result.energy_consumed_j = world.energy()->consumed_j();
        result.joules_per_lookup =
            (result.energy_consumed_j - energy_before_lkp) / n_lkp;
        result.time_to_first_partition_s =
            world.time_to_first_partition_s();
        result.time_to_half_depletion_s =
            world.time_to_half_depletion_s();
    }
    result.arena_high_water =
        static_cast<double>(world.arena_high_water());
    if (trace_sink != nullptr && !trace_opts.out_base.empty()) {
        const std::string path =
            obs::trace_output_path(trace_opts.out_base, params.world.seed);
        if (!trace_sink->dump_chrome_json(path)) {
            PQS_WARN("scenario: failed to write trace to " << path);
        }
    }
    return result;
}

namespace {

// X-macro over every scalar metric of ScenarioResult; the single source of
// truth for aggregation, so adding a field here is all it takes.
#define PQS_SCENARIO_METRICS(X)   \
    X(hit_ratio)                  \
    X(intersect_ratio)            \
    X(reply_drop_ratio)           \
    X(avg_lookup_nodes)           \
    X(avg_lookup_latency_s)       \
    X(timeout_rate)               \
    X(advertise_ok_ratio)         \
    X(avg_advertise_nodes)        \
    X(msgs_per_advertise)         \
    X(routing_per_advertise)      \
    X(msgs_per_lookup)            \
    X(routing_per_lookup)         \
    X(load.mean)                  \
    X(load.max)                   \
    X(load.cv)                    \
    X(load.mrw_load)              \
    X(inconclusive_rate)          \
    X(byzantine_marked)           \
    X(byzantine_tampered)         \
    X(aborted)                    \
    X(live_crashes)               \
    X(live_joins)                 \
    X(live_recoveries)            \
    X(live_refreshes)             \
    X(energy_consumed_j)          \
    X(joules_per_lookup)          \
    X(time_to_first_partition_s)  \
    X(time_to_half_depletion_s)   \
    X(arena_high_water)

// Same pattern for the per-bucket fields of LiveSample.
#define PQS_LIVE_SAMPLE_METRICS(X) \
    X(t_s)                         \
    X(lookups)                     \
    X(hits)                        \
    X(intersections)               \
    X(alive_nodes)                 \
    X(lookup_quorum)

}  // namespace

const std::vector<ScenarioMetric>& scenario_metrics() {
    static const std::vector<ScenarioMetric> metrics = {
#define PQS_METRIC_ENTRY(field)                                     \
    ScenarioMetric{#field,                                          \
                   [](const ScenarioResult& r) { return r.field; }, \
                   [](ScenarioResult& r, double v) { r.field = v; }},
        PQS_SCENARIO_METRICS(PQS_METRIC_ENTRY)
#undef PQS_METRIC_ENTRY
    };
    return metrics;
}

ScenarioAggregate aggregate_scenarios(
    const std::vector<ScenarioResult>& results) {
    ScenarioAggregate agg;
    agg.runs = static_cast<int>(results.size());
    if (results.empty()) {
        return agg;
    }
    // Copy non-metric context (n, quorum sizes) from the first run, then
    // merge raw counters across runs in index order.
    agg.mean = results.front();
    agg.mean.kernel = util::KernelStats{};
    agg.mean.latency_hist = obs::LatencyHistogram{};
    agg.stddev.n = agg.mean.n;
    agg.stddev.advertise_quorum = agg.mean.advertise_quorum;
    agg.stddev.lookup_quorum = agg.mean.lookup_quorum;
    for (const ScenarioResult& one : results) {
        agg.mean.kernel += one.kernel;
        agg.mean.latency_hist.merge(one.latency_hist);
    }
    for (const ScenarioMetric& metric : scenario_metrics()) {
        util::Accumulator acc;
        for (const ScenarioResult& one : results) {
            acc.add(metric.get(one));
        }
        metric.set(agg.mean, acc.mean());
        metric.set(agg.stddev, acc.count() > 1 ? acc.stddev() : 0.0);
    }

    // Element-wise aggregation of the live-phase buckets. Runs may differ
    // in bucket count (churn shifts op pacing); each bucket aggregates
    // over the runs that reached it.
    std::size_t buckets = 0;
    for (const ScenarioResult& one : results) {
        buckets = std::max(buckets, one.live_samples.size());
    }
    agg.mean.live_samples.assign(buckets, LiveSample{});
    agg.stddev.live_samples.assign(buckets, LiveSample{});
    for (std::size_t b = 0; b < buckets; ++b) {
#define PQS_LIVE_FIELD_AGG(field)                                     \
    {                                                                 \
        util::Accumulator acc;                                        \
        for (const ScenarioResult& one : results) {                   \
            if (b < one.live_samples.size()) {                        \
                acc.add(one.live_samples[b].field);                   \
            }                                                         \
        }                                                             \
        agg.mean.live_samples[b].field = acc.mean();                  \
        agg.stddev.live_samples[b].field =                            \
            acc.count() > 1 ? acc.stddev() : 0.0;                     \
    }
        PQS_LIVE_SAMPLE_METRICS(PQS_LIVE_FIELD_AGG)
#undef PQS_LIVE_FIELD_AGG
    }
    return agg;
}

ScenarioAggregate run_scenario_averaged(ScenarioParams params, int runs,
                                        std::uint64_t seed_base) {
    const std::size_t count = runs > 0 ? static_cast<std::size_t>(runs) : 0;
    std::vector<ScenarioResult> results(count);
    util::parallel_for(count, /*threads=*/0, [&](std::size_t r) {
        ScenarioParams p = params;
        p.world.seed = seed_base + static_cast<std::uint64_t>(r);
        results[r] = run_scenario(p);
    });
    return aggregate_scenarios(results);
}

}  // namespace pqs::core
