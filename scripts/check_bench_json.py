#!/usr/bin/env python3
"""Schema sanity check for the bench JSON baselines, dispatched on the
top-level `schema` field.

pqs.bench_kernel/1 (BENCH_kernel.json):
  - top level: mode in {smoke, full}, reps >= 1, non-empty `benches`
    list, `derived` object, peak_rss_bytes >= 0;
  - every bench: name/impl strings, work_items > 0, wall_seconds > 0,
    items_per_second > 0;
  - the event_churn pair: both impls present, with identical deterministic
    `checksum` and `final_time` counters (the new and legacy event queues
    must agree on the same op sequence);
  - derived.event_churn_speedup present and > 0.

pqs.bench_scale/1 (BENCH_scale.json):
  - mode in {smoke, full}, n > 0, events_fired > 0,
    events_per_second > 0, peak_rss_bytes >= 0,
    arena_high_water_bytes > 0, counters object of non-negative ints with
    the scale-path liveness counters (grid_cell_crossings,
    packet_pool_reuses, calendar_pushes) strictly positive.

pqs.bench_byzantine/1 (BENCH_byzantine.json):
  - mode in {smoke, full}; non-empty mc.sweep and e2e.sweep lists;
  - every mc point: quorum_size > b, bound in (0, 1], trials > 0, and
    measured_rate <= bound + ci_halfwidth (the measured masking-failure
    rate must track the closed-form b-masking bound);
  - the b = 0 mc point exists (the Corollary 5.3 reduction anchor);
  - every e2e point: rates in [0, 1], mrw_load in (0, 1]; tampered == 0
    at b == 0 and tampered > 0 at b > 0.

pqs.bench_frontier/1 (BENCH_frontier.json):
  - mode in {smoke, full}; non-empty analytic.mixes and measured.mixes;
  - every analytic mix: best and symmetric configs with sizes > 0,
    eps_bound in (0, eps], best.objective <= symmetric.objective
    (the optimizer must never lose to the Corollary 5.3 default), and a
    frontier ascending in msgs_per_op / strictly descending in
    load_per_op;
  - >= 2 analytic mixes with strictly positive improvement;
  - every measured mix: symmetric / optimized / optimized_cached configs
    with issued > 0, rates in [0, 1], mrw_load in (0, 1];
    optimized.msgs_per_op < symmetric.msgs_per_op at EVERY mix (the
    workload-aware sizing must beat symmetric on the wire, not just on
    paper), and the quorum cache must not inflate messages;
  - full mode only: every optimized_cached read_p50_s < 1 s (a cached
    read ends at its holders' replies, not at the 3 s reply grace;
    smoke runs repeat too few keys to show it).

pqs.bench_energy/1 (BENCH_energy.json):
  - mode in {smoke, full}; non-empty mc.sweep and e2e.duty_sweep lists;
  - every mc point: duty in (0, 1], coverage in [0, 1], bound in (0, 1],
    and measured_rate <= bound + ci_halfwidth (the measured duty-cycled /
    leased miss rate must track the closed-form timed-quorum bound at
    EVERY point — divergence fails CI);
  - the duty = 1, no-lease mc point exists (the Lemma 5.2 reduction
    anchor);
  - every e2e point: availability in [0, 1] and >= 1 - bound -
    routing_slack, joules_per_lookup > 0, sleep_transitions > 0 iff
    duty < 1;
  - e2e.lifetime: depletions > 0 and time_to_half_depletion_s > 0 (the
    finite-battery run must actually deplete);
  - e2e.lease: lease_expirations > 0 and availability strictly below the
    no-lease companion (expiring values must cost something).

A broken bench emitter (or a hand-edited baseline) fails scripts/check.sh
instead of silently corrupting the bench trajectory.

Usage: check_bench_json.py FILE [FILE...]   (exit 1 on any violation)
"""

import json
import sys


def fail(path, message):
    print("%s: %s" % (path, message))
    return 1


def check_scale(path, doc):
    errors = 0
    if doc.get("mode") not in ("smoke", "full"):
        errors += fail(path, "mode must be 'smoke' or 'full' (got %r)"
                       % doc.get("mode"))
    for key in ("n", "events_fired", "events_per_second",
                "arena_high_water_bytes", "sim_seconds",
                "run_wall_seconds"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            errors += fail(path, "%s must be a positive number (got %r)"
                           % (key, value))
    rss = doc.get("peak_rss_bytes")
    if not isinstance(rss, int) or rss < 0:
        errors += fail(path, "peak_rss_bytes must be a non-negative "
                       "integer (got %r)" % rss)
    counters = doc.get("counters")
    if not isinstance(counters, dict) or not counters:
        return errors + fail(path, "counters must be a non-empty object")
    if any(not isinstance(v, int) or v < 0 for v in counters.values()):
        errors += fail(path, "counters values must be non-negative "
                       "integers")
    for key in ("grid_cell_crossings", "packet_pool_reuses",
                "calendar_pushes"):
        if not counters.get(key):
            errors += fail(path, "counters.%s must be > 0 — the scale "
                           "path (lazy legs / packet pool / calendar "
                           "tier) was not exercised" % key)
    return errors


def check_kernel(path, doc):
    errors = 0
    if doc.get("mode") not in ("smoke", "full"):
        errors += fail(path, "mode must be 'smoke' or 'full' (got %r)"
                       % doc.get("mode"))
    if not isinstance(doc.get("reps"), int) or doc["reps"] < 1:
        errors += fail(path, "reps must be an integer >= 1")
    rss = doc.get("peak_rss_bytes")
    if not isinstance(rss, int) or rss < 0:
        errors += fail(path, "peak_rss_bytes must be a non-negative "
                       "integer (got %r)" % rss)

    benches = doc.get("benches")
    if not isinstance(benches, list) or not benches:
        return errors + fail(path, "benches must be a non-empty list")

    churn = {}
    for i, bench in enumerate(benches):
        where = "benches[%d]" % i
        if not isinstance(bench, dict):
            errors += fail(path, where + " is not an object")
            continue
        for key in ("name", "impl"):
            if not isinstance(bench.get(key), str) or not bench.get(key):
                errors += fail(path, "%s.%s must be a non-empty string"
                               % (where, key))
        for key in ("work_items", "wall_seconds", "items_per_second"):
            value = bench.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors += fail(path, "%s.%s must be a positive number"
                               % (where, key))
        counters = bench.get("counters", {})
        if not isinstance(counters, dict):
            errors += fail(path, where + ".counters must be an object")
            counters = {}
        if any(not isinstance(v, int) or v < 0 for v in counters.values()):
            errors += fail(path, where + ".counters values must be "
                           "non-negative integers")
        if bench.get("name") == "event_churn":
            churn[bench.get("impl")] = counters

    for impl in ("slab4heap", "legacy"):
        if impl not in churn:
            errors += fail(path, "event_churn is missing impl %r" % impl)
    if "slab4heap" in churn and "legacy" in churn:
        for key in ("checksum", "final_time"):
            a = churn["slab4heap"].get(key)
            b = churn["legacy"].get(key)
            if a is None or a != b:
                errors += fail(path, "event_churn %s differs between "
                               "implementations (%r vs %r) — the queues "
                               "diverged" % (key, a, b))

    derived = doc.get("derived")
    if not isinstance(derived, dict):
        errors += fail(path, "derived must be an object")
    else:
        speedup = derived.get("event_churn_speedup")
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            errors += fail(path, "derived.event_churn_speedup must be a "
                           "positive number")
    return errors


def check_byzantine(path, doc):
    errors = 0
    if doc.get("mode") not in ("smoke", "full"):
        errors += fail(path, "mode must be 'smoke' or 'full' (got %r)"
                       % doc.get("mode"))

    mc = doc.get("mc")
    if not isinstance(mc, dict):
        return errors + fail(path, "mc must be an object")
    sweep = mc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        return errors + fail(path, "mc.sweep must be a non-empty list")
    trials = mc.get("trials")
    if not isinstance(trials, int) or trials <= 0:
        errors += fail(path, "mc.trials must be a positive integer")
    saw_b0 = False
    for i, pt in enumerate(sweep):
        where = "mc.sweep[%d]" % i
        if not isinstance(pt, dict):
            errors += fail(path, where + " is not an object")
            continue
        b = pt.get("b")
        q = pt.get("quorum_size")
        bound = pt.get("bound")
        measured = pt.get("measured_rate")
        ci = pt.get("ci_halfwidth")
        if not isinstance(b, int) or b < 0:
            errors += fail(path, where + ".b must be a non-negative int")
            continue
        saw_b0 = saw_b0 or b == 0
        if not isinstance(q, int) or q <= b:
            errors += fail(path, where + ".quorum_size must be an int > b")
        if not isinstance(bound, (int, float)) or not 0 < bound <= 1:
            errors += fail(path, where + ".bound must be in (0, 1]")
            continue
        if (not isinstance(measured, (int, float))
                or not isinstance(ci, (int, float))
                or measured < 0 or ci <= 0):
            errors += fail(path, where + " needs measured_rate >= 0 and "
                           "ci_halfwidth > 0")
            continue
        if measured > bound + ci:
            errors += fail(path, "%s: measured masking-failure rate %g "
                           "exceeds the closed-form bound %g (+%g CI) — "
                           "the theory and the measurement diverged"
                           % (where, measured, bound, ci))
    if not saw_b0:
        errors += fail(path, "mc.sweep has no b = 0 point (the Corollary "
                       "5.3 reduction anchor)")

    e2e = doc.get("e2e")
    if not isinstance(e2e, dict):
        return errors + fail(path, "e2e must be an object")
    e2e_sweep = e2e.get("sweep")
    if not isinstance(e2e_sweep, list) or not e2e_sweep:
        return errors + fail(path, "e2e.sweep must be a non-empty list")
    for i, pt in enumerate(e2e_sweep):
        where = "e2e.sweep[%d]" % i
        if not isinstance(pt, dict):
            errors += fail(path, where + " is not an object")
            continue
        b = pt.get("b")
        if not isinstance(b, int) or b < 0:
            errors += fail(path, where + ".b must be a non-negative int")
            continue
        for key in ("hit_ratio", "inconclusive_rate"):
            value = pt.get(key)
            if not isinstance(value, (int, float)) or not 0 <= value <= 1:
                errors += fail(path, "%s.%s must be in [0, 1]"
                               % (where, key))
        load = pt.get("mrw_load")
        if not isinstance(load, (int, float)) or not 0 < load <= 1:
            errors += fail(path, where + ".mrw_load must be in (0, 1]")
        tampered = pt.get("tampered")
        if not isinstance(tampered, (int, float)) or tampered < 0:
            errors += fail(path, where + ".tampered must be >= 0")
        elif b == 0 and tampered != 0:
            errors += fail(path, where + ": replies tampered at b = 0")
        elif b > 0 and tampered == 0:
            errors += fail(path, where + ": adversary never tampered a "
                           "reply at b > 0")
    return errors


def _check_candidate(path, where, cand, eps, errors):
    """Validate one optimizer candidate config; returns the error count."""
    if not isinstance(cand, dict):
        return errors + fail(path, where + " is not an object")
    for key in ("advertise", "lookup"):
        value = cand.get(key)
        if not isinstance(value, int) or value <= 0:
            errors += fail(path, "%s.%s must be a positive int" % (where,
                                                                   key))
    bound = cand.get("eps_bound")
    if not isinstance(bound, (int, float)) or not 0 < bound <= eps + 1e-12:
        errors += fail(path, "%s.eps_bound must be in (0, eps=%g] (got %r)"
                       % (where, eps, bound))
    for key in ("msgs_per_op", "load_per_op", "objective"):
        value = cand.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            errors += fail(path, "%s.%s must be a positive number"
                           % (where, key))
    return errors


def check_frontier(path, doc):
    errors = 0
    if doc.get("mode") not in ("smoke", "full"):
        errors += fail(path, "mode must be 'smoke' or 'full' (got %r)"
                       % doc.get("mode"))

    analytic = doc.get("analytic")
    if not isinstance(analytic, dict):
        return errors + fail(path, "analytic must be an object")
    eps = analytic.get("eps")
    if not isinstance(eps, (int, float)) or not 0 < eps < 1:
        return errors + fail(path, "analytic.eps must be in (0, 1)")
    mixes = analytic.get("mixes")
    if not isinstance(mixes, list) or not mixes:
        return errors + fail(path, "analytic.mixes must be a non-empty "
                             "list")
    strict_wins = 0
    for i, mix in enumerate(mixes):
        where = "analytic.mixes[%d]" % i
        if not isinstance(mix, dict):
            errors += fail(path, where + " is not an object")
            continue
        best = mix.get("best")
        symmetric = mix.get("symmetric")
        errors = _check_candidate(path, where + ".best", best, eps, errors)
        errors = _check_candidate(path, where + ".symmetric", symmetric,
                                  eps, errors)
        if isinstance(best, dict) and isinstance(symmetric, dict):
            b = best.get("objective")
            s = symmetric.get("objective")
            if (isinstance(b, (int, float)) and isinstance(s, (int, float))
                    and b > s + 1e-9):
                errors += fail(path, where + ": optimizer objective %g "
                               "loses to symmetric sizing %g" % (b, s))
        improvement = mix.get("improvement")
        if not isinstance(improvement, (int, float)):
            errors += fail(path, where + ".improvement must be a number")
        elif improvement > 1e-3:
            strict_wins += 1
        frontier = mix.get("frontier")
        if not isinstance(frontier, list) or not frontier:
            errors += fail(path, where + ".frontier must be a non-empty "
                           "list")
            continue
        for j in range(1, len(frontier)):
            prev, cur = frontier[j - 1], frontier[j]
            if not isinstance(prev, dict) or not isinstance(cur, dict):
                errors += fail(path, "%s.frontier[%d] is not an object"
                               % (where, j))
                continue
            if cur.get("msgs_per_op", 0) < prev.get("msgs_per_op", 0):
                errors += fail(path, "%s.frontier not ascending in "
                               "msgs_per_op at [%d]" % (where, j))
            if cur.get("load_per_op", 0) >= prev.get("load_per_op", 0):
                errors += fail(path, "%s.frontier not strictly descending "
                               "in load_per_op at [%d]" % (where, j))
    if strict_wins < 2:
        errors += fail(path, "optimizer must beat symmetric sizing "
                       "strictly at >= 2 mixes (got %d)" % strict_wins)

    measured = doc.get("measured")
    if not isinstance(measured, dict):
        return errors + fail(path, "measured must be an object")
    m_mixes = measured.get("mixes")
    if not isinstance(m_mixes, list) or not m_mixes:
        return errors + fail(path, "measured.mixes must be a non-empty "
                             "list")
    for i, mix in enumerate(m_mixes):
        where = "measured.mixes[%d]" % i
        if not isinstance(mix, dict):
            errors += fail(path, where + " is not an object")
            continue
        configs = mix.get("configs")
        if not isinstance(configs, list) or not configs:
            errors += fail(path, where + ".configs must be a non-empty "
                           "list")
            continue
        by_label = {}
        for j, cfg in enumerate(configs):
            cwhere = "%s.configs[%d]" % (where, j)
            if not isinstance(cfg, dict):
                errors += fail(path, cwhere + " is not an object")
                continue
            by_label[cfg.get("label")] = cfg
            if not isinstance(cfg.get("issued"), int) or cfg["issued"] <= 0:
                errors += fail(path, cwhere + ".issued must be a positive "
                               "int")
            for key in ("timeout_rate", "inconclusive_rate",
                        "cache_hit_rate"):
                value = cfg.get(key)
                if (not isinstance(value, (int, float))
                        or not 0 <= value <= 1):
                    errors += fail(path, "%s.%s must be in [0, 1]"
                                   % (cwhere, key))
            load = cfg.get("mrw_load")
            if not isinstance(load, (int, float)) or not 0 < load <= 1:
                errors += fail(path, cwhere + ".mrw_load must be in "
                               "(0, 1]")
            msgs = cfg.get("msgs_per_op")
            if not isinstance(msgs, (int, float)) or msgs <= 0:
                errors += fail(path, cwhere + ".msgs_per_op must be a "
                               "positive number")
        for label in ("symmetric", "optimized", "optimized_cached"):
            if label not in by_label:
                errors += fail(path, where + " is missing config %r"
                               % label)
        sym = by_label.get("symmetric")
        opt = by_label.get("optimized")
        cached = by_label.get("optimized_cached")
        if isinstance(sym, dict) and isinstance(opt, dict):
            s, o = sym.get("msgs_per_op"), opt.get("msgs_per_op")
            if (isinstance(s, (int, float)) and isinstance(o, (int, float))
                    and o >= s):
                errors += fail(path, "%s: optimized msgs/op %g does not "
                               "beat symmetric %g — the workload-aware "
                               "sizing lost on the wire" % (where, o, s))
        if isinstance(opt, dict) and isinstance(cached, dict):
            o, c = opt.get("msgs_per_op"), cached.get("msgs_per_op")
            if (isinstance(o, (int, float)) and isinstance(c, (int, float))
                    and c > o * 1.02):
                errors += fail(path, "%s: the quorum cache inflated "
                               "msgs/op (%g vs %g uncached)"
                               % (where, c, o))
        if doc.get("mode") == "full" and isinstance(cached, dict):
            p50 = cached.get("read_p50_s")
            if not isinstance(p50, (int, float)) or p50 >= 1.0:
                errors += fail(path, "%s: optimized_cached read_p50_s %r "
                               "is not below 1 s — cached reads are "
                               "waiting out the reply grace"
                               % (where, p50))
    return errors


def check_energy(path, doc):
    errors = 0
    if doc.get("mode") not in ("smoke", "full"):
        errors += fail(path, "mode must be 'smoke' or 'full' (got %r)"
                       % doc.get("mode"))

    mc = doc.get("mc")
    if not isinstance(mc, dict):
        return errors + fail(path, "mc must be an object")
    sweep = mc.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        return errors + fail(path, "mc.sweep must be a non-empty list")
    trials = mc.get("trials")
    if not isinstance(trials, int) or trials <= 0:
        errors += fail(path, "mc.trials must be a positive integer")
    saw_anchor = False
    for i, pt in enumerate(sweep):
        where = "mc.sweep[%d]" % i
        if not isinstance(pt, dict):
            errors += fail(path, where + " is not an object")
            continue
        duty = pt.get("duty")
        coverage = pt.get("coverage")
        bound = pt.get("bound")
        measured = pt.get("measured_rate")
        ci = pt.get("ci_halfwidth")
        if not isinstance(duty, (int, float)) or not 0 < duty <= 1:
            errors += fail(path, where + ".duty must be in (0, 1]")
            continue
        if not isinstance(coverage, (int, float)) or not 0 <= coverage <= 1:
            errors += fail(path, where + ".coverage must be in [0, 1]")
            continue
        saw_anchor = saw_anchor or (duty == 1 and coverage == 1)
        if not isinstance(bound, (int, float)) or not 0 < bound <= 1:
            errors += fail(path, where + ".bound must be in (0, 1]")
            continue
        if (not isinstance(measured, (int, float))
                or not isinstance(ci, (int, float))
                or measured < 0 or ci <= 0):
            errors += fail(path, where + " needs measured_rate >= 0 and "
                           "ci_halfwidth > 0")
            continue
        if measured > bound + ci:
            errors += fail(path, "%s: measured miss rate %g exceeds the "
                           "closed-form timed-quorum bound %g (+%g CI) — "
                           "the theory and the measurement diverged"
                           % (where, measured, bound, ci))
    if not saw_anchor:
        errors += fail(path, "mc.sweep has no duty = 1, no-lease point "
                       "(the Lemma 5.2 reduction anchor)")

    e2e = doc.get("e2e")
    if not isinstance(e2e, dict):
        return errors + fail(path, "e2e must be an object")
    slack = e2e.get("routing_slack")
    if not isinstance(slack, (int, float)) or not 0 <= slack < 1:
        return errors + fail(path, "e2e.routing_slack must be in [0, 1)")
    duty_sweep = e2e.get("duty_sweep")
    if not isinstance(duty_sweep, list) or not duty_sweep:
        return errors + fail(path, "e2e.duty_sweep must be a non-empty "
                             "list")
    for i, pt in enumerate(duty_sweep):
        where = "e2e.duty_sweep[%d]" % i
        if not isinstance(pt, dict):
            errors += fail(path, where + " is not an object")
            continue
        duty = pt.get("duty")
        bound = pt.get("bound")
        avail = pt.get("availability")
        if not isinstance(duty, (int, float)) or not 0 < duty <= 1:
            errors += fail(path, where + ".duty must be in (0, 1]")
            continue
        if not isinstance(bound, (int, float)) or not 0 < bound <= 1:
            errors += fail(path, where + ".bound must be in (0, 1]")
            continue
        if not isinstance(avail, (int, float)) or not 0 <= avail <= 1:
            errors += fail(path, where + ".availability must be in [0, 1]")
            continue
        if avail < 1 - bound - slack:
            errors += fail(path, "%s: availability %g fell below "
                           "1 - bound (%g) - routing_slack (%g) — the "
                           "duty-cycled run diverged from the closed form"
                           % (where, avail, bound, slack))
        jpl = pt.get("joules_per_lookup")
        if not isinstance(jpl, (int, float)) or jpl <= 0:
            errors += fail(path, where + ".joules_per_lookup must be a "
                           "positive number")
        sleeps = pt.get("sleep_transitions")
        if not isinstance(sleeps, (int, float)) or sleeps < 0:
            errors += fail(path, where + ".sleep_transitions must be "
                           ">= 0")
        elif duty < 1 and sleeps == 0:
            errors += fail(path, where + ": duty < 1 but no node ever "
                           "slept")
        elif duty == 1 and sleeps != 0:
            errors += fail(path, where + ": duty = 1 but nodes slept")

    lifetime = e2e.get("lifetime")
    if not isinstance(lifetime, dict):
        errors += fail(path, "e2e.lifetime must be an object")
    else:
        for key in ("battery_j", "depletions", "time_to_half_depletion_s"):
            value = lifetime.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                errors += fail(path, "e2e.lifetime.%s must be a positive "
                               "number (got %r)" % (key, value))

    lease = e2e.get("lease")
    if not isinstance(lease, dict):
        errors += fail(path, "e2e.lease must be an object")
    else:
        exp = lease.get("lease_expirations")
        if not isinstance(exp, (int, float)) or exp <= 0:
            errors += fail(path, "e2e.lease.lease_expirations must be > 0 "
                           "— no lease ever expired")
        a = lease.get("availability")
        b = lease.get("availability_no_lease")
        if (not isinstance(a, (int, float)) or not isinstance(b, (int, float))
                or not 0 <= a <= 1 or not 0 <= b <= 1):
            errors += fail(path, "e2e.lease availabilities must be in "
                           "[0, 1]")
        elif a >= b:
            errors += fail(path, "e2e.lease: availability %g with "
                           "expiring values is not below the no-lease "
                           "companion %g — leases were inert" % (a, b))
    return errors


SCHEMAS = {
    "pqs.bench_kernel/1": check_kernel,
    "pqs.bench_energy/1": check_energy,
    "pqs.bench_scale/1": check_scale,
    "pqs.bench_byzantine/1": check_byzantine,
    "pqs.bench_frontier/1": check_frontier,
}


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return fail(path, "unreadable or invalid JSON: %s" % exc)
    checker = SCHEMAS.get(doc.get("schema"))
    if checker is None:
        return fail(path, "schema must be one of %s (got %r)"
                    % (sorted(SCHEMAS), doc.get("schema")))
    return checker(path, doc)


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    errors = 0
    for path in argv[1:]:
        file_errors = check_file(path)
        if file_errors == 0:
            print("%s: schema ok" % path)
        errors += file_errors
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
