#!/usr/bin/env python3
"""Gates for the bench JSON files, dispatched on the top-level `schema`
field. Every mode is 'smoke' or 'full', and every list named below must
be non-empty.

pqs.bench_kernel/1 (BENCH_kernel.json):
  - reps >= 1, peak_rss_bytes >= 0;
  - every bench: name/impl strings, work_items, wall_seconds and
    items_per_second > 0, counters of non-negative ints;
  - the cancel_reclaim row: queue_size == 0, events_cancelled ==
    work_items and slab_reuses >= work_items / 2 (mass cancellation
    reclaims its slots, and the second round reuses them).

pqs.bench_scale/1 (BENCH_scale.json):
  - n, events_fired, events_per_second, arena_high_water_bytes,
    sim_seconds and run_wall_seconds > 0, peak_rss_bytes >= 0;
  - counters of non-negative ints, with the scale-path liveness counters
    grid_cell_crossings, packet_pool_reuses and calendar_pushes > 0;
  - n - 3 churn_batch < alive_final <= n (churn keeps the population in
    its steady band).

pqs.bench_byzantine/1 (BENCH_byzantine.json):
  - every mc.sweep point: quorum_size > b, bound in (0, mc.eps] (the
    derived size meets its target), and measured_rate <= bound +
    ci_halfwidth (the measured masking-failure rate must track the
    closed-form b-masking bound);
  - a b = 0 mc point (the Corollary 5.3 reduction anchor);
  - every e2e.sweep point: rates in [0, 1], mrw_load in (0, 1],
    aborted == 0, lookup_p50_s in [0, 1) (a voting lookup ends at its
    last member's answer, not at the 3 s reply grace); at b == 0
    tampered == 0 and inconclusive_rate == 0; at b > 0 tampered > 0,
    marked == b and hit_ratio > 0.5 (voting preserves most lookups).

pqs.bench_frontier/1 (BENCH_frontier.json):
  - every analytic mix: best and symmetric configs with sizes > 0,
    eps_bound in (0, eps], best.objective <= symmetric.objective (the
    optimizer never loses to the Corollary 5.3 default), and a frontier
    ascending in msgs_per_op and strictly descending in load_per_op;
  - >= 2 analytic mixes with improvement > 1e-3;
  - every measured mix: symmetric, optimized and optimized_cached
    configs with issued > 0, rates in [0, 1], timeout_rate < 0.5,
    mrw_load in (0, 1]; optimized.msgs_per_op < symmetric.msgs_per_op
    (the workload-aware sizing beats symmetric on the wire),
    optimized_cached.msgs_per_op <= 1.02 x optimized (the quorum cache
    does not inflate messages) and optimized_cached.cache_hit_rate > 0.3
    (it hits under steady traffic);
  - full mode only: every config's read_p50_s and write_p50_s < 1 s
    (every KV lookup ends at its last member's answer, not at the 3 s
    reply grace: a cached read at its holders' replies, an uncached
    read and a write's version query at their last hit or miss).

pqs.bench_energy/1 (BENCH_energy.json):
  - every mc.sweep point: duty in (0, 1], coverage in [0, 1], bound in
    (0, 1], and measured_rate <= bound + ci_halfwidth (the duty-cycled /
    leased miss rate must track the closed-form timed-quorum bound);
  - a duty = 1, no-lease mc point (the Lemma 5.2 reduction anchor);
  - every e2e.duty_sweep point: availability in [0, 1] and >= 1 - bound
    - routing_slack, aborted == 0, energy_consumed_j and
    joules_per_lookup > 0, sleep_transitions > 0 iff duty < 1;
  - e2e.lifetime: battery_j, depletions and time_to_half_depletion_s
    > 0 (the finite-battery run must actually deplete),
    time_to_first_partition_s set (!= 0), and energy_consumed_j <=
    e2e.n x battery_j (no meter overruns its battery);
  - e2e.lease: lease_expirations > 0 and availability strictly below
    the no-lease companion (expiring values must cost something).

Usage: check_bench_json.py FILE [FILE...]   (exit 1 on any violation)
"""

import json
import sys


def join(where, key):
    return "%s.%s" % (where, key) if where else key


def number(err, obj, where, key, interval, integer=False):
    """obj[key] if it is a number (an int if `integer`) in `interval`,
    written like "(0, 1]"; otherwise reports it and returns None."""
    value = obj.get(key)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if (isinstance(value, int if integer else (int, float))
            and not isinstance(value, bool)
            and (lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi)):
        return value
    err("%s must be %s in %s (got %r)" % (
        join(where, key), "an integer" if integer else "a number",
        interval, value))
    return None


def section(err, obj, key, where=""):
    """obj[key] if it is an object; otherwise reports it and returns
    None."""
    value = obj.get(key)
    if isinstance(value, dict):
        return value
    err("%s must be an object" % join(where, key))
    return None


def objects(err, obj, key, where=""):
    """[(path, item)] for the object items of obj[key], which must be a
    non-empty list; reports every violation."""
    items = obj.get(key)
    where = join(where, key)
    if not isinstance(items, list) or not items:
        err("%s must be a non-empty list" % where)
        return []
    out = []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            out.append(("%s[%d]" % (where, i), item))
        else:
            err("%s[%d] is not an object" % (where, i))
    return out


def counters(err, obj, where=""):
    """obj['counters'], which must be a non-empty object of non-negative
    integers; {} after reporting a violation."""
    value = obj.get("counters")
    where = join(where, "counters")
    if not isinstance(value, dict) or not value:
        err("%s must be a non-empty object" % where)
        return {}
    bad = sorted(k for k, v in value.items()
                 if not isinstance(v, int) or isinstance(v, bool) or v < 0)
    if bad:
        err("%s values must be non-negative integers (got %s)"
            % (where, ", ".join(bad)))
    return value


def mode(err, doc):
    if doc.get("mode") not in ("smoke", "full"):
        err("mode must be 'smoke' or 'full' (got %r)" % doc.get("mode"))
    return doc.get("mode")


def within_bound(err, where, pt, rate, bound_name):
    """A Monte-Carlo point's measured_rate stays at or below its
    closed-form bound plus the confidence half-width; returns the bound
    if it is valid."""
    bound = number(err, pt, where, "bound", "(0, 1]")
    measured = number(err, pt, where, "measured_rate", "[0, inf)")
    ci = number(err, pt, where, "ci_halfwidth", "(0, inf)")
    if None not in (bound, measured, ci) and measured > bound + ci:
        err("%s: measured %s %g exceeds the closed-form %s %g (+%g CI) — "
            "the theory and the measurement diverged"
            % (where, rate, measured, bound_name, bound, ci))
    return bound


def check_scale(doc, err):
    mode(err, doc)
    n = number(err, doc, "", "n", "(0, inf)")
    for key in ("events_fired", "events_per_second",
                "arena_high_water_bytes", "sim_seconds",
                "run_wall_seconds"):
        number(err, doc, "", key, "(0, inf)")
    number(err, doc, "", "peak_rss_bytes", "[0, inf)", integer=True)
    alive = number(err, doc, "", "alive_final", "[0, inf)", integer=True)
    batch = number(err, doc, "", "churn_batch", "[0, inf)", integer=True)
    if None not in (n, alive, batch) and not n - 3 * batch < alive <= n:
        err("alive_final %d is outside (n - 3 churn_batch, n] = (%d, %d] — "
            "churn drifted the population out of its steady band"
            % (alive, n - 3 * batch, n))
    found = counters(err, doc)
    for key in ("grid_cell_crossings", "packet_pool_reuses",
                "calendar_pushes"):
        if found and not found.get(key):
            err("counters.%s must be > 0 — the scale path (lazy legs / "
                "packet pool / calendar tier) was not exercised" % key)


def check_kernel(doc, err):
    mode(err, doc)
    number(err, doc, "", "reps", "[1, inf)", integer=True)
    number(err, doc, "", "peak_rss_bytes", "[0, inf)", integer=True)
    rows = {}
    for where, bench in objects(err, doc, "benches"):
        for key in ("name", "impl"):
            if not isinstance(bench.get(key), str) or not bench[key]:
                err("%s.%s must be a non-empty string" % (where, key))
        items = number(err, bench, where, "work_items", "(0, inf)")
        for key in ("wall_seconds", "items_per_second"):
            number(err, bench, where, key, "(0, inf)")
        rows[bench.get("name")] = (where, items, counters(err, bench, where))
    if not rows:
        return
    if "cancel_reclaim" not in rows:
        err("benches has no cancel_reclaim row")
        return
    # Round 2 of cancel_reclaim must have recycled round 1's slots.
    where, items, found = rows["cancel_reclaim"]
    if found.get("queue_size") != 0:
        err("%s: %r events still queued after every one was cancelled"
            % (where, found.get("queue_size")))
    if items is not None and found.get("events_cancelled") != items:
        err("%s: events_cancelled %r is not work_items %r"
            % (where, found.get("events_cancelled"), items))
    if items is not None and 2 * found.get("slab_reuses", 0) < items:
        err("%s: slab_reuses %r < work_items / 2 — the second round did "
            "not reuse the first round's slots"
            % (where, found.get("slab_reuses")))


def check_byzantine(doc, err):
    mode(err, doc)
    mc = section(err, doc, "mc")
    if mc is not None:
        eps = number(err, mc, "mc", "eps", "(0, 1)")
        number(err, mc, "mc", "trials", "(0, inf)", integer=True)
        saw_b0 = False
        for where, pt in objects(err, mc, "sweep", "mc"):
            b = number(err, pt, where, "b", "[0, inf)", integer=True)
            if b is None:
                continue
            saw_b0 = saw_b0 or b == 0
            number(err, pt, where, "quorum_size", "(%d, inf)" % b,
                   integer=True)
            bound = within_bound(err, where, pt, "masking-failure rate",
                                 "bound")
            if None not in (eps, bound) and bound > eps + 1e-12:
                err("%s: bound %g misses the target eps %g — the derived "
                    "masking quorum size is too small" % (where, bound, eps))
        if mc.get("sweep") and not saw_b0:
            err("mc.sweep has no b = 0 point (the Corollary 5.3 reduction "
                "anchor)")

    e2e = section(err, doc, "e2e")
    if e2e is None:
        return
    for where, pt in objects(err, e2e, "sweep", "e2e"):
        b = number(err, pt, where, "b", "[0, inf)", integer=True)
        hit = number(err, pt, where, "hit_ratio", "[0, 1]")
        inconclusive = number(err, pt, where, "inconclusive_rate", "[0, 1]")
        number(err, pt, where, "mrw_load", "(0, 1]")
        number(err, pt, where, "aborted", "[0, 0]")
        number(err, pt, where, "lookup_p50_s", "[0, 1)")
        tampered = number(err, pt, where, "tampered", "[0, inf)")
        if b == 0 and tampered is not None and tampered != 0:
            err("%s: replies tampered at b = 0" % where)
        if b == 0 and inconclusive:
            err("%s: vote-inconclusive lookups at b = 0" % where)
        if not b:
            continue
        if tampered == 0:
            err("%s: adversary never tampered a reply at b > 0" % where)
        if pt.get("marked") != b:
            err("%s: the plan marked %r nodes, not b = %d"
                % (where, pt.get("marked"), b))
        if hit is not None and hit <= 0.5:
            err("%s: hit_ratio %g is not above 0.5 — b-masking voting "
                "failed to preserve most lookups" % (where, hit))


def check_candidate(err, where, mix, key, eps):
    cand = mix.get(key)
    where = join(where, key)
    if not isinstance(cand, dict):
        err("%s is not an object" % where)
        return None
    for size in ("advertise", "lookup"):
        number(err, cand, where, size, "(0, inf)", integer=True)
    number(err, cand, where, "eps_bound", "(0, %r]" % (eps + 1e-12))
    for cost in ("msgs_per_op", "load_per_op", "objective"):
        number(err, cand, where, cost, "(0, inf)")
    return cand


def check_analytic(err, analytic):
    eps = number(err, analytic, "analytic", "eps", "(0, 1)")
    if eps is None:
        return
    strict_wins = 0
    for where, mix in objects(err, analytic, "mixes", "analytic"):
        best = check_candidate(err, where, mix, "best", eps)
        symmetric = check_candidate(err, where, mix, "symmetric", eps)
        if best and symmetric:
            b, s = best.get("objective"), symmetric.get("objective")
            if (isinstance(b, (int, float)) and isinstance(s, (int, float))
                    and b > s + 1e-9):
                err("%s: optimizer objective %g loses to symmetric sizing %g"
                    % (where, b, s))
        improvement = number(err, mix, where, "improvement",
                             "(-inf, inf)")
        if improvement is not None and improvement > 1e-3:
            strict_wins += 1
        frontier = mix.get("frontier")
        if not isinstance(frontier, list) or not frontier:
            err("%s.frontier must be a non-empty list" % where)
            continue
        for j in range(1, len(frontier)):
            prev, cur = frontier[j - 1], frontier[j]
            if not isinstance(prev, dict) or not isinstance(cur, dict):
                err("%s.frontier[%d] is not an object" % (where, j))
                continue
            if cur.get("msgs_per_op", 0) < prev.get("msgs_per_op", 0):
                err("%s.frontier not ascending in msgs_per_op at [%d]"
                    % (where, j))
            if cur.get("load_per_op", 0) >= prev.get("load_per_op", 0):
                err("%s.frontier not strictly descending in load_per_op "
                    "at [%d]" % (where, j))
    if analytic.get("mixes") and strict_wins < 2:
        err("optimizer must beat symmetric sizing strictly at >= 2 mixes "
            "(got %d)" % strict_wins)


def check_frontier(doc, err):
    full = mode(err, doc) == "full"
    analytic = section(err, doc, "analytic")
    if analytic is not None:
        check_analytic(err, analytic)
    measured = section(err, doc, "measured")
    if measured is None:
        return
    for where, mix in objects(err, measured, "mixes", "measured"):
        by_label = {}
        for cwhere, cfg in objects(err, mix, "configs", where):
            by_label[cfg.get("label")] = cfg
            number(err, cfg, cwhere, "issued", "(0, inf)", integer=True)
            number(err, cfg, cwhere, "timeout_rate", "[0, 0.5)")
            for key in ("inconclusive_rate", "cache_hit_rate"):
                number(err, cfg, cwhere, key, "[0, 1]")
            number(err, cfg, cwhere, "mrw_load", "(0, 1]")
            number(err, cfg, cwhere, "msgs_per_op", "(0, inf)")
        if not by_label:
            continue
        for label in ("symmetric", "optimized", "optimized_cached"):
            if label not in by_label:
                err("%s is missing config %r" % (where, label))
        msgs = {label: cfg.get("msgs_per_op")
                for label, cfg in by_label.items()
                if isinstance(cfg.get("msgs_per_op"), (int, float))}
        sym, opt = msgs.get("symmetric"), msgs.get("optimized")
        cached = msgs.get("optimized_cached")
        if sym is not None and opt is not None and opt >= sym:
            err("%s: optimized msgs/op %g does not beat symmetric %g — the "
                "workload-aware sizing lost on the wire" % (where, opt, sym))
        if opt is not None and cached is not None and cached > opt * 1.02:
            err("%s: the quorum cache inflated msgs/op (%g vs %g uncached)"
                % (where, cached, opt))
        hit = by_label.get("optimized_cached", {}).get("cache_hit_rate")
        if isinstance(hit, (int, float)) and hit <= 0.3:
            err("%s: optimized_cached cache_hit_rate %g is not above 0.3 — "
                "the quorum cache never hit under steady traffic"
                % (where, hit))
        for label, cfg in by_label.items():
            for key, ops in (("read_p50_s", "reads"),
                             ("write_p50_s", "writes")):
                p50 = cfg.get(key)
                if full and (not isinstance(p50, (int, float))
                             or p50 >= 1.0):
                    err("%s: %s %s %r is not below 1 s — %s are waiting "
                        "out the reply grace" % (where, label, key, p50, ops))


def check_energy(doc, err):
    mode(err, doc)
    mc = section(err, doc, "mc")
    if mc is not None:
        number(err, mc, "mc", "trials", "(0, inf)", integer=True)
        saw_anchor = False
        for where, pt in objects(err, mc, "sweep", "mc"):
            duty = number(err, pt, where, "duty", "(0, 1]")
            coverage = number(err, pt, where, "coverage", "[0, 1]")
            saw_anchor = saw_anchor or (duty == 1 and coverage == 1)
            within_bound(err, where, pt, "miss rate", "timed-quorum bound")
        if mc.get("sweep") and not saw_anchor:
            err("mc.sweep has no duty = 1, no-lease point (the Lemma 5.2 "
                "reduction anchor)")

    e2e = section(err, doc, "e2e")
    if e2e is None:
        return
    n = number(err, e2e, "e2e", "n", "(0, inf)")
    slack = number(err, e2e, "e2e", "routing_slack", "[0, 1)")
    for where, pt in objects(err, e2e, "duty_sweep", "e2e"):
        duty = number(err, pt, where, "duty", "(0, 1]")
        bound = number(err, pt, where, "bound", "(0, 1]")
        avail = number(err, pt, where, "availability", "[0, 1]")
        if None not in (slack, bound, avail) and avail < 1 - bound - slack:
            err("%s: availability %g fell below 1 - bound (%g) - "
                "routing_slack (%g) — the duty-cycled run diverged from the "
                "closed form" % (where, avail, bound, slack))
        number(err, pt, where, "aborted", "[0, 0]")
        number(err, pt, where, "energy_consumed_j", "(0, inf)")
        number(err, pt, where, "joules_per_lookup", "(0, inf)")
        sleeps = number(err, pt, where, "sleep_transitions", "[0, inf)")
        if duty is not None and duty < 1 and sleeps == 0:
            err("%s: duty < 1 but no node ever slept" % where)
        if duty == 1 and sleeps:
            err("%s: duty = 1 but nodes slept" % where)

    lifetime = section(err, e2e, "lifetime", "e2e")
    if lifetime is not None:
        battery, _, _ = (
            number(err, lifetime, "e2e.lifetime", key, "(0, inf)")
            for key in ("battery_j", "depletions",
                        "time_to_half_depletion_s"))
        partition = lifetime.get("time_to_first_partition_s")
        if not isinstance(partition, (int, float)) or partition == 0:
            err("e2e.lifetime.time_to_first_partition_s was left unset "
                "(got %r)" % partition)
        # Meters freeze at capacity when a battery dies, so total draw
        # can never exceed the fleet's aggregate capacity.
        consumed = number(err, lifetime, "e2e.lifetime", "energy_consumed_j",
                          "[0, inf)")
        if None not in (n, battery, consumed) and \
                consumed > n * battery + 1e-6:
            err("e2e.lifetime: energy_consumed_j %g overran the fleet's "
                "aggregate battery capacity %g (n x battery_j)"
                % (consumed, n * battery))

    lease = section(err, e2e, "lease", "e2e")
    if lease is not None:
        number(err, lease, "e2e.lease", "lease_expirations", "(0, inf)")
        a = number(err, lease, "e2e.lease", "availability", "[0, 1]")
        b = number(err, lease, "e2e.lease", "availability_no_lease",
                   "[0, 1]")
        if a is not None and b is not None and a >= b:
            err("e2e.lease: availability %g with expiring values is not "
                "below the no-lease companion %g — leases were inert"
                % (a, b))


SCHEMAS = {
    "pqs.bench_kernel/1": check_kernel,
    "pqs.bench_energy/1": check_energy,
    "pqs.bench_scale/1": check_scale,
    "pqs.bench_byzantine/1": check_byzantine,
    "pqs.bench_frontier/1": check_frontier,
}


def check_file(path):
    """The violations in one file, one message each."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return ["unreadable or invalid JSON: %s" % exc]
    checker = SCHEMAS.get(doc.get("schema")) if isinstance(doc, dict) \
        else None
    if checker is None:
        return ["schema must be one of %s" % sorted(SCHEMAS)]
    errors = []
    checker(doc, errors.append)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        for message in errors:
            print("%s: %s" % (path, message))
        if not errors:
            print("%s: schema ok" % path)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
