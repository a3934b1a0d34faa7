#!/usr/bin/env python3
"""End-to-end check of the sampling profiler: run a program with
libpqs_sampler preloaded, report the profile with report.py, and require
samples and at least one pqs:: function in the report.

Usage: test_sampler.py LIBRARY OUT_FILE PROGRAM [ARG...]
"""

import os
import subprocess
import sys


def main():
    if len(sys.argv) < 4:
        print(__doc__)
        return 2
    library, out_file, program = sys.argv[1:4]
    env = dict(os.environ, LD_PRELOAD=library, PQS_SAMPLER_OUT=out_file)
    run = subprocess.run([program] + sys.argv[4:], env=env,
                         stdout=subprocess.DEVNULL, check=False)
    if run.returncode != 0:
        print("FAIL: %s exited %d" % (program, run.returncode))
        return 1
    report = subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "report.py"), out_file],
        capture_output=True, text=True, check=False)
    print(report.stdout, end="")
    if report.returncode != 0:
        print("FAIL: report.py exited %d\n%s"
              % (report.returncode, report.stderr))
        return 1
    first = report.stdout.split("\n", 1)[0].split()
    if len(first) < 2 or first[0] != "samples" or int(first[1]) == 0:
        print("FAIL: the report holds no samples")
        return 1
    if "pqs::" not in report.stdout:
        print("FAIL: no pqs:: function in the report")
        return 1
    print("ok: %s samples, pqs:: functions named" % first[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
