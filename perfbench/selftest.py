"""Check that the benchmark's checks catch a wrong result.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default) runs the benchmark command with --corrupt,
which changes one coefficient of one result after the timed region, and fails
unless the command exits 1 and reports at least one failed operation.  Takes
about a minute for all four.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = argv or [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", name, "--seed", "0", "--seconds", "0",
                               "--trace", "0", "--corrupt"],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        caught = (proc.returncode == 1 and res.get("correct") is False
                  and res.get("failed", 0) > 0)
        bad += not caught
        failed_lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("FAILED")]
        print("%-10s corrupted result %s: exit %d, %s of %s failed %s"
              % (name, "caught" if caught else "NOT CAUGHT", proc.returncode,
                 res.get("failed"), res.get("attempted"),
                 failed_lines[:1] or proc.stderr.strip().splitlines()[-1:]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
