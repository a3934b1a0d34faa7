#!/usr/bin/env python3
"""Self-test of scripts/check_bench_json.py.

Checks that the five committed BENCH_*.json baselines pass, and that a
copy of a baseline with one field changed, so that exactly one gate is
violated, is rejected with that gate's message and nothing else.

Usage: python3 tests/test_check_bench_json.py
"""
import contextlib
import copy
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_json", ROOT / "scripts" / "check_bench_json.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

BASELINES = {name: json.loads((ROOT / ("BENCH_%s.json" % name)).read_text())
             for name in ("kernel", "scale", "byzantine", "frontier",
                          "energy")}


def run_checker(text):
    """(exit status, violation lines) of the checker on one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = checker.main(["check_bench_json.py", path])
    return status, [line for line in out.getvalue().splitlines()
                    if not line.endswith(": schema ok")]


def at(doc, path):
    """The value at `path`, a '.'-separated list of keys and indices."""
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


# (baseline, field path, new value or function of the baseline giving
# it, substrings the one violation message must contain). One case per
# gate; each change breaks that gate only.
CASES = [
    ("kernel", "schema", "pqs.bench_nope/1", ["schema must be one of"]),

    ("scale", "mode", "quick", ["mode must be 'smoke' or 'full'"]),
    ("scale", "n", 0, ["n must be"]),
    ("scale", "events_fired", 0, ["events_fired must be"]),
    ("scale", "events_per_second", 0, ["events_per_second must be"]),
    ("scale", "arena_high_water_bytes", 0,
     ["arena_high_water_bytes must be"]),
    ("scale", "sim_seconds", 0, ["sim_seconds must be"]),
    ("scale", "run_wall_seconds", 0, ["run_wall_seconds must be"]),
    ("scale", "peak_rss_bytes", -1, ["peak_rss_bytes must be"]),
    ("scale", "counters", {}, ["counters must be"]),
    ("scale", "counters.grid_moves", -1, ["counters", "non-negative"]),
    ("scale", "counters.grid_cell_crossings", 0,
     ["counters.grid_cell_crossings must be"]),
    ("scale", "counters.packet_pool_reuses", 0,
     ["counters.packet_pool_reuses must be"]),
    ("scale", "counters.calendar_pushes", 0,
     ["counters.calendar_pushes must be"]),
    ("scale", "churn_batch", -1, ["churn_batch must be"]),
    ("scale", "alive_final",
     lambda d: at(d, "n") - 3 * at(d, "churn_batch"), ["steady band"]),
    ("scale", "alive_final", lambda d: at(d, "n") + 1, ["steady band"]),

    ("kernel", "mode", "quick", ["mode must be 'smoke' or 'full'"]),
    ("kernel", "reps", 0, ["reps must be"]),
    ("kernel", "peak_rss_bytes", -1, ["peak_rss_bytes must be"]),
    ("kernel", "benches", [], ["benches must be"]),
    ("kernel", "benches.2", "x", ["benches[2] is not an object"]),
    ("kernel", "benches.2.name", "", ["benches[2].name must be"]),
    ("kernel", "benches.2.impl", "", ["benches[2].impl must be"]),
    ("kernel", "benches.2.work_items", 0, ["benches[2].work_items must be"]),
    ("kernel", "benches.2.wall_seconds", 0,
     ["benches[2].wall_seconds must be"]),
    ("kernel", "benches.2.items_per_second", 0,
     ["benches[2].items_per_second must be"]),
    ("kernel", "benches.2.counters", [], ["benches[2].counters must be"]),
    ("kernel", "benches.2.counters.heap_moves", -1,
     ["benches[2].counters", "non-negative"]),
    ("kernel", "benches.1.name", "other", ["no cancel_reclaim row"]),
    ("kernel", "benches.1.counters.queue_size", 1,
     ["benches[1]:", "still queued"]),
    ("kernel", "benches.1.counters.events_cancelled",
     lambda d: at(d, "benches.1.work_items") - 1,
     ["benches[1]:", "events_cancelled"]),
    ("kernel", "benches.1.counters.slab_reuses",
     lambda d: at(d, "benches.1.work_items") // 2 - 1,
     ["benches[1]:", "did not reuse"]),

    ("byzantine", "mode", "quick", ["mode must be 'smoke' or 'full'"]),
    ("byzantine", "mc", [], ["mc must be an object"]),
    ("byzantine", "mc.sweep", [], ["mc.sweep must be"]),
    ("byzantine", "mc.trials", 0, ["mc.trials must be"]),
    ("byzantine", "mc.eps", 1, ["mc.eps must be"]),
    ("byzantine", "mc.sweep.1.bound", 0.2,
     ["mc.sweep[1]:", "misses the target eps"]),
    ("byzantine", "mc.sweep.1", "x", ["mc.sweep[1] is not an object"]),
    ("byzantine", "mc.sweep.1.b", -1, ["mc.sweep[1].b must be"]),
    ("byzantine", "mc.sweep.1.quorum_size", 1,
     ["mc.sweep[1].quorum_size must be"]),
    ("byzantine", "mc.sweep.1.bound", 0, ["mc.sweep[1].bound must be"]),
    ("byzantine", "mc.sweep.1.measured_rate", -0.1,
     ["mc.sweep[1]", "measured_rate"]),
    ("byzantine", "mc.sweep.1.ci_halfwidth", 0,
     ["mc.sweep[1]", "ci_halfwidth"]),
    ("byzantine", "mc.sweep.1.measured_rate",
     lambda d: at(d, "mc.sweep.1.bound") + at(d, "mc.sweep.1.ci_halfwidth")
     + 0.001, ["mc.sweep[1]:", "exceeds the closed-form"]),
    ("byzantine", "mc.sweep.0.b", 1, ["no b = 0 point"]),
    ("byzantine", "e2e", [], ["e2e must be an object"]),
    ("byzantine", "e2e.sweep", [], ["e2e.sweep must be"]),
    ("byzantine", "e2e.sweep.1", "x", ["e2e.sweep[1] is not an object"]),
    ("byzantine", "e2e.sweep.1.b", -1, ["e2e.sweep[1].b must be"]),
    ("byzantine", "e2e.sweep.1.hit_ratio", 1.5,
     ["e2e.sweep[1].hit_ratio must be"]),
    ("byzantine", "e2e.sweep.1.inconclusive_rate", -0.1,
     ["e2e.sweep[1].inconclusive_rate must be"]),
    ("byzantine", "e2e.sweep.1.mrw_load", 0,
     ["e2e.sweep[1].mrw_load must be"]),
    ("byzantine", "e2e.sweep.1.tampered", -1,
     ["e2e.sweep[1].tampered must be"]),
    ("byzantine", "e2e.sweep.0.tampered", 1, ["tampered at b = 0"]),
    ("byzantine", "e2e.sweep.1.tampered", 0, ["never tampered"]),
    ("byzantine", "e2e.sweep.0.inconclusive_rate", 0.1,
     ["e2e.sweep[0]:", "vote-inconclusive lookups at b = 0"]),
    ("byzantine", "e2e.sweep.1.marked", 3, ["e2e.sweep[1]:", "marked 3"]),
    ("byzantine", "e2e.sweep.1.hit_ratio", 0.5,
     ["e2e.sweep[1]:", "failed to preserve most lookups"]),
    ("byzantine", "e2e.sweep.1.aborted", 1, ["e2e.sweep[1].aborted must be"]),
    ("byzantine", "e2e.sweep.1.lookup_p50_s", 3.15,
     ["e2e.sweep[1].lookup_p50_s must be", "[0, 1)"]),

    ("frontier", "mode", "quick", ["mode must be 'smoke' or 'full'"]),
    ("frontier", "analytic", [], ["analytic must be an object"]),
    ("frontier", "analytic.eps", 1, ["analytic.eps must be"]),
    ("frontier", "analytic.mixes", [], ["analytic.mixes must be"]),
    ("frontier", "analytic.mixes.0", "x",
     ["analytic.mixes[0] is not an object"]),
    ("frontier", "analytic.mixes.0.best", "x",
     ["analytic.mixes[0].best is not an object"]),
    ("frontier", "analytic.mixes.0.best.advertise", 0,
     ["analytic.mixes[0].best.advertise must be"]),
    ("frontier", "analytic.mixes.0.best.lookup", 0,
     ["analytic.mixes[0].best.lookup must be"]),
    ("frontier", "analytic.mixes.0.best.eps_bound", 0.06,
     ["analytic.mixes[0].best.eps_bound must be"]),
    ("frontier", "analytic.mixes.0.best.msgs_per_op", 0,
     ["analytic.mixes[0].best.msgs_per_op must be"]),
    ("frontier", "analytic.mixes.0.best.load_per_op", 0,
     ["analytic.mixes[0].best.load_per_op must be"]),
    ("frontier", "analytic.mixes.0.best.objective", 0,
     ["analytic.mixes[0].best.objective must be"]),
    ("frontier", "analytic.mixes.0.symmetric.objective", 1,
     ["analytic.mixes[0]:", "loses to symmetric sizing"]),
    ("frontier", "analytic.mixes.0.improvement", "x",
     ["analytic.mixes[0].improvement must be"]),
    ("frontier", "analytic.mixes.0.frontier", [],
     ["analytic.mixes[0].frontier must be"]),
    ("frontier", "analytic.mixes.0.frontier.4", "x",
     ["analytic.mixes[0].frontier[4] is not an object"]),
    ("frontier", "analytic.mixes.0.frontier.1.msgs_per_op", 0,
     ["analytic.mixes[0].frontier not ascending in msgs_per_op at [1]"]),
    ("frontier", "analytic.mixes.0.frontier.1.load_per_op", 1,
     ["analytic.mixes[0].frontier not strictly descending in "
      "load_per_op at [1]"]),
    ("frontier", "analytic.mixes", lambda d: at(d, "analytic.mixes")[:1],
     ["strictly at >= 2 mixes"]),
    ("frontier", "measured", [], ["measured must be an object"]),
    ("frontier", "measured.mixes", [], ["measured.mixes must be"]),
    ("frontier", "measured.mixes.0", "x",
     ["measured.mixes[0] is not an object"]),
    ("frontier", "measured.mixes.0.configs", [],
     ["measured.mixes[0].configs must be"]),
    ("frontier", "measured.mixes.0.configs",
     lambda d: at(d, "measured.mixes.0.configs") + ["x"],
     ["measured.mixes[0].configs[3] is not an object"]),
    ("frontier", "measured.mixes.0.configs.0.issued", 0,
     ["measured.mixes[0].configs[0].issued must be"]),
    ("frontier", "measured.mixes.0.configs.0.timeout_rate", 1.5,
     ["measured.mixes[0].configs[0].timeout_rate must be"]),
    ("frontier", "measured.mixes.0.configs.0.timeout_rate", 0.5,
     ["measured.mixes[0].configs[0].timeout_rate must be"]),
    ("frontier", "measured.mixes.0.configs.0.inconclusive_rate", 1.5,
     ["measured.mixes[0].configs[0].inconclusive_rate must be"]),
    ("frontier", "measured.mixes.0.configs.0.cache_hit_rate", 1.5,
     ["measured.mixes[0].configs[0].cache_hit_rate must be"]),
    ("frontier", "measured.mixes.0.configs.0.mrw_load", 0,
     ["measured.mixes[0].configs[0].mrw_load must be"]),
    ("frontier", "measured.mixes.0.configs.2.msgs_per_op", 0,
     ["measured.mixes[0].configs[2].msgs_per_op must be"]),
    ("frontier", "measured.mixes.0.configs.2.label", "other",
     ["measured.mixes[0] is missing config 'optimized_cached'"]),
    ("frontier", "measured.mixes.0.configs.1.msgs_per_op",
     lambda d: at(d, "measured.mixes.0.configs.0.msgs_per_op"),
     ["measured.mixes[0]:", "does not beat symmetric"]),
    ("frontier", "measured.mixes.0.configs.2.msgs_per_op",
     lambda d: 1.03 * at(d, "measured.mixes.0.configs.1.msgs_per_op"),
     ["measured.mixes[0]:", "the quorum cache inflated msgs/op"]),
    ("frontier", "measured.mixes.0.configs.2.read_p50_s", 1.0,
     ["measured.mixes[0]:", "optimized_cached read_p50_s",
      "is not below 1 s"]),
    ("frontier", "measured.mixes.0.configs.0.read_p50_s", 1.0,
     ["measured.mixes[0]:", "symmetric read_p50_s", "is not below 1 s"]),
    ("frontier", "measured.mixes.1.configs.0.write_p50_s", 1.0,
     ["measured.mixes[1]:", "symmetric write_p50_s", "is not below 1 s"]),
    ("frontier", "measured.mixes.0.configs.2.cache_hit_rate", 0.3,
     ["measured.mixes[0]:", "the quorum cache never hit"]),

    ("energy", "mode", "quick", ["mode must be 'smoke' or 'full'"]),
    ("energy", "mc", [], ["mc must be an object"]),
    ("energy", "mc.sweep", [], ["mc.sweep must be"]),
    ("energy", "mc.trials", 0, ["mc.trials must be"]),
    ("energy", "mc.sweep.1", "x", ["mc.sweep[1] is not an object"]),
    ("energy", "mc.sweep.1.duty", 0, ["mc.sweep[1].duty must be"]),
    ("energy", "mc.sweep.1.coverage", 1.5, ["mc.sweep[1].coverage must be"]),
    ("energy", "mc.sweep.1.bound", 0, ["mc.sweep[1].bound must be"]),
    ("energy", "mc.sweep.1.measured_rate", -0.1,
     ["mc.sweep[1]", "measured_rate"]),
    ("energy", "mc.sweep.1.ci_halfwidth", 0,
     ["mc.sweep[1]", "ci_halfwidth"]),
    ("energy", "mc.sweep.1.measured_rate",
     lambda d: at(d, "mc.sweep.1.bound") + at(d, "mc.sweep.1.ci_halfwidth")
     + 0.001, ["mc.sweep[1]:", "exceeds the closed-form"]),
    ("energy", "mc.sweep.0.duty", 0.9, ["no duty = 1, no-lease point"]),
    ("energy", "e2e", [], ["e2e must be an object"]),
    ("energy", "e2e.routing_slack", 1, ["e2e.routing_slack must be"]),
    ("energy", "e2e.n", 0, ["e2e.n must be"]),
    ("energy", "e2e.duty_sweep", [], ["e2e.duty_sweep must be"]),
    ("energy", "e2e.duty_sweep.1", "x",
     ["e2e.duty_sweep[1] is not an object"]),
    ("energy", "e2e.duty_sweep.1.duty", 0, ["e2e.duty_sweep[1].duty must be"]),
    ("energy", "e2e.duty_sweep.1.bound", 0,
     ["e2e.duty_sweep[1].bound must be"]),
    ("energy", "e2e.duty_sweep.1.availability", 1.5,
     ["e2e.duty_sweep[1].availability must be"]),
    ("energy", "e2e.duty_sweep.1.availability",
     lambda d: 1 - at(d, "e2e.duty_sweep.1.bound")
     - at(d, "e2e.routing_slack") - 0.01,
     ["e2e.duty_sweep[1]:", "fell below 1 - bound"]),
    ("energy", "e2e.duty_sweep.1.joules_per_lookup", 0,
     ["e2e.duty_sweep[1].joules_per_lookup must be"]),
    ("energy", "e2e.duty_sweep.1.energy_consumed_j", 0,
     ["e2e.duty_sweep[1].energy_consumed_j must be"]),
    ("energy", "e2e.duty_sweep.1.aborted", 1,
     ["e2e.duty_sweep[1].aborted must be"]),
    ("energy", "e2e.duty_sweep.1.sleep_transitions", -1,
     ["e2e.duty_sweep[1].sleep_transitions must be"]),
    ("energy", "e2e.duty_sweep.1.sleep_transitions", 0,
     ["e2e.duty_sweep[1]:", "no node ever slept"]),
    ("energy", "e2e.duty_sweep.0.sleep_transitions", 5,
     ["e2e.duty_sweep[0]:", "duty = 1 but nodes slept"]),
    ("energy", "e2e.lifetime", [], ["e2e.lifetime must be an object"]),
    ("energy", "e2e.lifetime.battery_j", 0,
     ["e2e.lifetime.battery_j must be"]),
    ("energy", "e2e.lifetime.depletions", 0,
     ["e2e.lifetime.depletions must be"]),
    ("energy", "e2e.lifetime.time_to_half_depletion_s", 0,
     ["e2e.lifetime.time_to_half_depletion_s must be"]),
    ("energy", "e2e.lifetime.time_to_first_partition_s", 0,
     ["e2e.lifetime.time_to_first_partition_s was left unset"]),
    ("energy", "e2e.lifetime.energy_consumed_j",
     lambda d: at(d, "e2e.n") * at(d, "e2e.lifetime.battery_j") + 0.01,
     ["e2e.lifetime:", "overran the fleet's aggregate battery capacity"]),
    ("energy", "e2e.lease", [], ["e2e.lease must be an object"]),
    ("energy", "e2e.lease.lease_expirations", 0,
     ["e2e.lease.lease_expirations must be"]),
    ("energy", "e2e.lease.availability", 1.5, ["e2e.lease", "availabilit"]),
    ("energy", "e2e.lease.availability", 1, ["e2e.lease:", "leases were inert"]),
]


class CheckBenchJsonTest(unittest.TestCase):
    def test_committed_baselines_pass(self):
        for name, doc in BASELINES.items():
            with self.subTest(baseline=name):
                self.assertEqual(run_checker(json.dumps(doc)), (0, []))

    def test_invalid_json_is_rejected(self):
        status, lines = run_checker("{")
        self.assertEqual(status, 1)
        self.assertEqual(len(lines), 1, lines)
        self.assertIn("invalid JSON", lines[0])

    def test_each_gate_rejects_a_one_field_violation(self):
        for name, path, value, expected in CASES:
            with self.subTest(baseline=name, field=path, value=value):
                doc = copy.deepcopy(BASELINES[name])
                parent_path, _, last = path.rpartition(".")
                parent = at(doc, parent_path) if parent_path else doc
                if callable(value):
                    value = value(BASELINES[name])
                parent[int(last) if isinstance(parent, list) else last] = value
                status, lines = run_checker(json.dumps(doc))
                self.assertEqual(status, 1, "accepted")
                self.assertEqual(len(lines), 1, "\n".join(lines))
                for text in expected:
                    self.assertIn(text, lines[0])


if __name__ == "__main__":
    unittest.main()
