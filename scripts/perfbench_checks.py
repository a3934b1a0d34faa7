#!/usr/bin/env python3
"""Apply the repository benchmark's output checks to one driver run.

Usage: scripts/perfbench_checks.py DRIVER --workload NAME --seed N
           --seconds S --trace 0|1

Runs the perfbench_driver binary DRIVER (the build tree's copy of
perfbench/driver.cpp) once and applies checks() from perfbench/run.py to
its JSON: the driver's own checks (for scale_churn_100k the churn band),
the repeat fingerprint across passes, wrong values, the Lemma 5.2 hit
floor of paper_walks_80211 and, with --trace 1, trace.dropped. With
--trace 1 and a tiny --seconds the driver runs one untraced and one
traced pass, so the repeat fingerprint compares the two.

Prints the failed checks and exits 1 if there are any, else 0.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# perfbench/ must stay free of build output: no __pycache__ from the
# import below.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import DRIVER_TIMEOUT_S, checks  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("driver")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    cmd = [args.driver, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, PQS_THREADS="1"),
                          timeout=DRIVER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print("perfbench_driver exited with %d" % done.returncode)
        return 1
    out = json.loads(done.stdout)
    bad = checks(out, args)
    print("%s seed=%d trace=%d: %d passes (%s)"
          % (args.workload, args.seed, args.trace, len(out["passes"]),
             ", ".join("traced" if p["traced"] else "untraced"
                       for p in out["passes"])))
    for problem in bad:
        print("CHECK FAILED: " + problem)
    if not bad:
        print("checks passed: %s, repeat fingerprint, wrong values"
              % ", ".join(out["det"]["checks"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
