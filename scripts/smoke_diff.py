#!/usr/bin/env python3
"""Compare the smoke output of two build trees of this repository.

Usage: scripts/smoke_diff.py PARENT_BUILD CHANGE_BUILD

Runs every bench and example from both build trees: the figure benches
at PQS_SCALE=smoke, the JSON benches (kernel, scale, byzantine,
frontier, energy) with --smoke --out, trace_demo with --smoke --out and
the other examples with their default arguments. It also runs each
tree's perfbench_driver (the repository benchmark's driver, built by the
main build) on the three benchmark workloads at --seed 101 --seconds
0.001 --trace 1: one untraced and one traced pass each. Each program
runs in its own scratch directory, so output paths match between the
trees.

Compared per program: the exit status, stdout without the host-dependent
lines listed in HOST_LINES, and every JSON file the program wrote,
without the fields matched by HOST_FIELDS. For perfbench_driver, whose
stdout is one JSON result, only its deterministic part is compared: the
`det` block and each pass's fingerprint. stderr carries perf and log
lines and is not compared. bench_micro_kernels prints only timings and
is not run.

Prints one line per program and a diff for each mismatch. Exits 1 on
any difference or failed run, 0 when everything matches.
"""
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

JSON_BENCHES = ["bench_kernel", "bench_scale", "bench_byzantine",
                "bench_frontier", "bench_energy"]

PERFBENCH_WORKLOADS = ["kv_zipf", "paper_walks_80211", "scale_churn_100k"]
PERFBENCH_ARGS = ["--seed", "101", "--seconds", "0.001", "--trace", "1"]

# stdout lines that depend on the host, one regex each.
HOST_LINES = [re.compile(p) for p in [
    # bench_kernel: events/s of each end-to-end scenario.
    r"^  \S+: \S+ sim events/s ",
    # bench_kernel: event-queue rate.
    r"^  event_churn: \S+ ev/s$",
    # bench_kernel: cancel rate.
    r"^  cancel_reclaim: \S+ cancels/s,",
    # bench_kernel: grid operation rate.
    r"^  grid_mobility: \S+ ops/s ",
    # bench_scale: build and run wall times, events/s.
    r"^  built\+started in \S+s; measured ",
    # bench_scale: peak RSS of the process.
    r"^  peak_rss=",
]]

# JSON keys whose values depend on the host: wall times, rates per wall
# second, and resident memory.
HOST_FIELDS = re.compile(r"(^|_)wall(_|$)|_per_second$|(^|_)rss(_|$)")


def programs(build):
    """{name: (binary, args, env)} for every program of one build tree."""
    out = {}
    for path in (build / "bench").glob("bench_*"):
        if not (path.is_file() and os.access(path, os.X_OK)) or \
                path.name == "bench_micro_kernels":
            continue
        if path.name in JSON_BENCHES:
            out[path.name] = (path, ["--smoke", "--out", path.name + ".json"],
                              {})
        else:
            out[path.name] = (path, [], {"PQS_SCALE": "smoke"})
    for path in (build / "examples").iterdir():
        if path.is_file() and os.access(path, os.X_OK):
            args = ["--smoke", "--out", "trace"] \
                if path.name == "trace_demo" else []
            out[path.name] = (path, args, {})
    driver = build / "bench" / "perfbench_driver"
    if driver.is_file():
        for workload in PERFBENCH_WORKLOADS:
            out["perfbench_" + workload] = (
                driver, ["--workload", workload] + PERFBENCH_ARGS,
                {"PQS_THREADS": "1"})
    return out


def run(binary, args, env, workdir):
    workdir.mkdir(parents=True)
    proc = subprocess.run([str(binary.resolve())] + args, cwd=workdir,
                          env={**os.environ, **env}, capture_output=True,
                          text=True)
    if binary.name == "perfbench_driver":
        stdout = perfbench_det(proc.stdout) if proc.returncode == 0 else []
    else:
        stdout = [line for line in proc.stdout.splitlines()
                  if not any(p.search(line) for p in HOST_LINES)]
    jsons = {path.name: comparable(json.loads(path.read_text()))
             for path in sorted(workdir.glob("*.json"))}
    return proc.returncode, stdout, jsons


def perfbench_det(stdout):
    """The deterministic part of a perfbench_driver result, as lines."""
    result = json.loads(stdout)
    det = {"det": result["det"],
           "fingerprints": [p["fingerprint"] for p in result["passes"]]}
    return json.dumps(det, indent=1, sort_keys=True).splitlines()


def comparable(document):
    """A JSON document without its host-dependent fields, as lines."""
    return json.dumps(strip(document), indent=1, sort_keys=True).splitlines()


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items()
                if not HOST_FIELDS.search(k)}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def diff(a, b, label):
    return list(difflib.unified_diff(a, b, "parent/" + label,
                                     "change/" + label, lineterm=""))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = Path(sys.argv[1]), Path(sys.argv[2])
    progs = {"parent": programs(parent), "change": programs(change)}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="smoke_diff_") as tmp:
        for name in sorted(progs["parent"].keys() | progs["change"].keys()):
            if name not in progs["parent"] or name not in progs["change"]:
                print(f"DIFF  {name}: built in one tree only")
                failed += 1
                continue
            (rc_a, out_a, json_a), (rc_b, out_b, json_b) = (
                run(*progs[tree][name], Path(tmp, tree, name))
                for tree in progs)
            problems = []
            if rc_a != 0 or rc_b != 0:
                problems.append(f"exit status {rc_a} vs {rc_b}")
            lines = diff(out_a, out_b, name + ".stdout")
            for file in sorted(json_a.keys() | json_b.keys()):
                lines += diff(json_a.get(file, []), json_b.get(file, []),
                              file)
            if lines:
                problems.append("output differs")
            if problems:
                failed += 1
                print(f"DIFF  {name}: {', '.join(problems)}")
                print("\n".join(lines))
            else:
                print(f"same  {name}")
    print(f"{failed} program(s) differ" if failed else "no differences")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
