#!/usr/bin/env python3
"""Check that a committed bench baseline equals a fresh full run.

Usage: scripts/check_bench_baseline.py BENCH_BINARY BASELINE_JSON

Runs BENCH_BINARY in full mode, writing its JSON into a scratch
directory, and compares it with the committed BASELINE_JSON. Fields that
depend on the host (wall times, rates per wall second, resident memory:
HOST_FIELDS in scripts/smoke_diff.py) are left out; every other field
comes from fixed seeds and must be equal. A difference means the
baseline is stale: regenerate it with scripts/bench.sh.

Prints a diff of the differing fields and exits 1 if there are any, or
if the bench fails; exits 0 when the baseline matches.
"""
import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# The source tree stays free of build output: no __pycache__ from the
# import below.
sys.dont_write_bytecode = True
from smoke_diff import comparable  # noqa: E402


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, baseline = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix="bench_baseline_") as tmp:
        done = subprocess.run([str(binary), "--out", "fresh.json"], cwd=tmp,
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print("%s exited with %d" % (binary.name, done.returncode))
            return 1
        fresh = comparable(json.loads(Path(tmp, "fresh.json").read_text()))
    committed = comparable(json.loads(baseline.read_text()))
    lines = list(difflib.unified_diff(committed, fresh,
                                      "committed/" + baseline.name,
                                      "fresh/" + baseline.name, lineterm=""))
    if lines:
        print("\n".join(lines))
        print("%s differs from a fresh full run of %s; regenerate it with "
              "scripts/bench.sh" % (baseline.name, binary.name))
        return 1
    print("%s matches a fresh full run of %s" % (baseline.name, binary.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
