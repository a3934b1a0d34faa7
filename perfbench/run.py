#!/usr/bin/env python3
"""The repository benchmark: one command per workload and mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench_driver (the pqs library plus perfbench/driver.cpp) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Then it runs the
workload for about S seconds of wall time on inputs generated from the
seed, checks the outputs, prints every metric by name with its unit (each
ratio with its base, each tail with its percentile and sample count), and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from traced passes, next to untraced passes that give trace.overhead).
Exits non-zero when the build, the run or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import aggregate as agg

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kv_zipf", "paper_walks_80211", "scale_churn_100k")
# A first run builds (at most 700 s here); every run then measures for
# --seconds, well inside the driver's 150 s cap.
BUILD_TIMEOUT_S = 700
DRIVER_TIMEOUT_S = 150
NS = 1e-9
MIB = 1024.0 * 1024.0


class Fail(Exception):
    pass


def build():
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise Fail("build step failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


def run_driver(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PQS_THREADS="1")
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=DRIVER_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise Fail("perfbench_driver exited with %d" % done.returncode)
    return json.loads(done.stdout)


class Report:
    """Metrics in print order, each with its unit and optional note."""

    def __init__(self):
        self.metrics = {}
        self.lines = []

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append("%-32s %-14.8g %-8s %s" % (name, value, unit, note))

    def ratio(self, name, num, den, unit="ratio"):
        self.add(name, agg.ratio(num, den), unit,
                 "= " + agg.with_base(num, den))


def ops_of(det):
    return det["reads"] + det["writes"] + det["other_ops"]


def worlds(p, times="run_s"):
    """(CPU seconds, gauge reading) of each world of one pass."""
    return list(zip(p[times], p["gauge_s"]))


def pass_time(p):
    """Scaled CPU time of one pass's measured sections, all worlds."""
    return sum(agg.scaled(t, g) for t, g in worlds(p))


def end_to_end(out, rep):
    det = out["det"]
    passes = [p for p in out["passes"] if not p["traced"]]
    setups = [agg.scaled(t, g)
              for p in passes for t, g in worlds(p, "setup_s")]
    rep.add("setup_s", agg.median(setups), "s",
            "median of %d world set-ups, scaled by the host gauge"
            % len(setups))
    rep.add("run_s", agg.run_time([worlds(p) for p in passes]), "s",
            "median of %d passes of the interquartile mean over %d worlds, "
            "scaled by the host gauge" % (len(passes), out["trials"]))
    gauges = [g for p in passes for g in p["gauge_s"]]
    raw = [t for p in passes for t in p["run_s"]]
    rep.lines.append("%-32s %-14.8g %-8s median of %d worlds; reference %g s"
                     % ("(host_gauge)", agg.median(gauges), "s", len(gauges),
                        agg.GAUGE_REF_S))
    rep.lines.append("%-32s %-14.8g %-8s median world, unscaled CPU time"
                     % ("(run_cpu_s)", agg.median(raw), "s"))
    rep.add("peak_rss_mib", out["peak_rss_bytes"] / MIB, "MiB")
    ops = ops_of(det)
    msgs = det["data_tx"] + det["routing_tx"]
    rep.add("msgs_per_op",
            agg.iqm([agg.ratio(m, o) for m, o in
                     zip(det["trial_msgs"], det["trial_ops"])]),
            "msgs/op", "interquartile mean over %d worlds; pooled %s"
            % (out["trials"], agg.with_base(msgs, ops)))
    for side in ("read", "write"):
        lat = det[side + "_ns"]
        if not lat:
            raise Fail("no %s latencies recorded" % side)
        rep.add(side + "_p50_s", agg.median(lat) * NS, "s",
                "n=%d" % len(lat))
        p, value, beyond = agg.tail(lat)
        rep.add(side + "_tail_s", value * NS, "s",
                "p%g, n=%d, %d beyond" % (p, len(lat), beyond))
    # Failures are few and vary with each seed's topology, so their rate
    # spreads too much across seeds to carry a bound; its complement is
    # steady. The rate itself is printed with its base.
    failed = det["read_failed"] + det["write_failed"] + det["other_failed"]
    rep.ratio("op_ok_rate", ops - failed, ops)
    rep.lines.append("%-32s %-14.8g %-8s = %s (reads %d/%d, writes %d/%d, "
                     "other %d/%d)"
                     % ("(op_fail_rate)", agg.ratio(failed, ops), "ratio",
                        agg.with_base(failed, ops), det["read_failed"],
                        det["reads"], det["write_failed"], det["writes"],
                        det["other_failed"], det["other_ops"]))
    if det["lookups"]:
        rep.lines.append("%-32s %-14.8g %-8s = %s, intersected %s, "
                         "Lemma 5.2 floor %.4f"
                         % ("(hit_ratio)", agg.ratio(det["hits"],
                                                     det["lookups"]),
                            "ratio", agg.with_base(det["hits"],
                                                   det["lookups"]),
                            agg.with_base(det["intersections"],
                                          det["lookups"]),
                            det["floor_sum"] / out["trials"]))


def per_layer(out, rep):
    det, k, lay = out["det"], out["det"]["kernel"], out["layers"]
    kind = lay["by_kind"]
    ops = ops_of(det)
    trials = out["trials"]
    events = k["events_fired"]
    rep.add("sim.events", events, "count")
    rep.ratio("sim.events_per_op", events, ops, "1/op")
    rep.ratio("sim.heap_moves_per_event", k["heap_moves"], events, "1/event")
    rep.ratio("sim.stale_drop_ratio", k["stale_drops"], k["heap_pops"])
    rep.ratio("sim.calendar_share", k["calendar_pushes"],
              k["events_scheduled"])
    rep.add("sim.callback_heap_allocs", k["callback_heap_allocs"], "count")
    rep.add("geom.grid_queries", k["grid_queries"], "count")
    rep.ratio("geom.candidates_per_query", k["grid_candidates"],
              k["grid_queries"], "1/query")
    rep.add("mobility.cell_crossings", k["grid_cell_crossings"], "count")
    rep.add("mobility.grid_moves", k["grid_moves"], "count")
    rep.ratio("net.hello_tx_per_node_s", det["hello_tx"], det["node_seconds"],
              "1/node/s")
    rep.ratio("net.routing_tx_per_op", det["routing_tx"], ops, "1/op")
    rep.ratio("net.data_tx_per_op", det["data_tx"], ops, "1/op")
    rep.ratio("net.route_discoveries_per_op", kind["route_discovery"], ops,
              "1/op")
    rep.ratio("net.packet_drops_per_op", kind["packet_drop"], ops, "1/op")
    reuses = k["packet_pool_reuses"]
    rep.ratio("net.pool_reuse_ratio", reuses, reuses + k["packet_allocs"])
    rep.ratio("net.neighbor_copies_per_op", k["alive_snapshots"], ops,
              "1/op")
    for name, event in (("mac.backoffs_per_op", "mac_backoff"),
                        ("mac.tx_per_op", "mac_tx"),
                        ("mac.drops_per_op", "mac_drop"),
                        ("core.members_reached_per_op", "member_reached"),
                        ("core.salvations_per_op", "salvation"),
                        ("core.reply_repairs_per_op", "reply_repair"),
                        ("core.reply_drops_per_op", "reply_dropped"),
                        ("core.walk_died_per_op", "walk_died"),
                        ("core.retries_per_op", "retry_scheduled")):
        rep.ratio(name, kind[event], ops, "1/op")
    rep.add("core.mrw_load", det["mrw_load_sum"] / trials, "ratio",
            "mean over %d trials" % trials)
    first = lay["first_reply_ns"]
    rep.add("core.first_reply_s", agg.median(first) * NS if first else 0.0,
            "s", "median of %d replied lookups" % len(first))
    rep.ratio("core.grace_wait_share", lay["after_last_reply_ns"],
              lay["replied_span_ns"])
    hits, misses = det["cache_hits"], det["cache_misses"]
    rep.ratio("svc.cache_hit_rate", hits, hits + misses)
    rep.ratio("svc.directed_read_share", hits + misses, det["reads"])
    rep.add("svc.cache_invalidations", det["cache_invalidations"], "count")
    rep.add("svc.read_call_us",
            agg.ratio(lay["read_call_s"], lay["read_calls"]) * 1e6, "us",
            "mean of %d calls" % lay["read_calls"])
    rep.add("svc.write_call_us",
            agg.ratio(lay["write_call_s"], lay["write_calls"]) * 1e6, "us",
            "mean of %d calls" % lay["write_calls"])
    for phase in ("world_build", "start", "warmup", "preseed"):
        rep.add("setup.%s_s" % phase, lay[phase + "_s"] / trials, "s",
                "mean over %d traced trials" % trials)
    rep.add("mem.arena_high_water_bytes", det["arena_high_water"], "bytes")
    rep.ratio("mem.rss_bytes_per_node", out["peak_rss_bytes"], out["nodes"],
              "bytes/node")
    traced = [pass_time(p) for p in out["passes"] if p["traced"]]
    plain = [pass_time(p) for p in out["passes"] if not p["traced"]]
    rep.add("trace.overhead", agg.overhead(agg.median(traced),
                                           agg.median(plain)), "ratio",
            "median of %d traced / median of %d untraced passes - 1"
            % (len(traced), len(plain)))
    rep.add("trace.dropped", lay["dropped"], "count")


def checks(out, args):
    """Names of the output checks that failed."""
    det = out["det"]
    bad = [name for name, ok in det["checks"].items() if not ok]
    bad += ["driver: " + f for f in det["failures"]]
    prints = {p["fingerprint"] for p in out["passes"]}
    if len(prints) != 1:
        bad.append("repeat: passes of one seed disagree (%d fingerprints)"
                   % len(prints))
    if det["wrong"]:
        bad.append("%d ops returned a wrong value" % det["wrong"])
    if args.workload == "paper_walks_80211":
        floor = det["floor_sum"] / out["trials"]
        if not agg.meets_floor(det["hits"], det["lookups"], floor):
            bad.append("walks: hit ratio %s below the eps floor %.4f"
                       % (agg.with_base(det["hits"], det["lookups"]), floor))
    if args.trace and out["layers"]["dropped"]:
        bad.append("trace ring dropped %d events"
                   % out["layers"]["dropped"])
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    try:
        binary = build()
        out = run_driver(binary, args)
    except (Fail, OSError, subprocess.TimeoutExpired, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    rep = Report()
    (per_layer if args.trace else end_to_end)(out, rep)
    bad = checks(out, args)
    det = out["det"]
    print("perfbench %s seed=%d trace=%d: %d passes x %d trials, n=%d"
          % (args.workload, args.seed, args.trace, len(out["passes"]),
             out["trials"], out["nodes"]))
    for line in rep.lines:
        print("  " + line)
    for problem in bad:
        print("  CHECK FAILED: " + problem)
    if not bad:
        print("  checks passed: %s, repeat fingerprint, wrong values"
              % ", ".join(det["checks"]))
    result = {
        "correct": not bad,
        "attempted": ops_of(det) * len(out["passes"]),
        "failed": det["wrong"] * len(out["passes"]),
        "metrics": rep.metrics,
    }
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
