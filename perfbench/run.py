"""The qtchroma benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Run from the root of a checkout.  Every batch of operations runs in a fresh
child process (perfbench/child.py), so module caches start cold as they do for
a CLI user and each batch's peak RSS is its own.  The workloads and metrics
are described in BENCHMARK.json and perfbench/README.md.

With --trace 0 the run makes nine set-up-only children, then whole batches
until the measured time reaches --seconds (at least one), and reports the
end-to-end metrics.  With --trace 1 it runs one untraced batch, then two
traced batches, and reports the per-layer metrics; exact work counts must
agree between the two traced batches.  --corrupt changes one coefficient of
one result after the timed region, so the checks must fail and the run must
exit 1; perfbench/selftest.py runs this command that way on every workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every result checked
out, 1 when some did not, and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 9
TRACED_BATCHES = 2
# A run, set-up and checks included, must end within this many seconds, so
# that it exits within the 180 s a run is given.  A child still running at the
# deadline is stopped and the run exits 2; the traced csf_large run, the
# longest, takes about 85 s at the first baseline, so a program about twice as
# slow there ends as a harness fault rather than as a measured regression.
DEADLINE_S = 170.0
# Exact work counts that must repeat between two traced batches.
ANCHORS = ("hecke.apply_T_inv.terms_in", "qtcsf.apply_hatS.terms_out_max",
           "qt.QTCoeff.mul.calls", "qmapstar.q_map.calls")


class HarnessError(RuntimeError):
    """The benchmark could not measure: a child failed or counts disagree."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit():
    """The checked-out commit, or 'unknown' outside a git checkout.  Git does
    not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, *extra):
        """Run one child; return its JSON result with its set-up time added."""
        cmd = [sys.executable, CHILD, "--workload", self.args.workload,
               "--seed", str(self.args.seed)] + list(extra)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise HarnessError("child %s ran past the %gs deadline of a run; the program "
                               "may have got much slower" % (extra, DEADLINE_S))
        if proc.returncode != 0:
            raise HarnessError("child %s exited with %d:\n%s"
                               % (extra, proc.returncode, proc.stderr.strip()))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["setup_s"] = res["ready"] - spawned
        res["child_s"] = time.monotonic() - spawned
        return res

    def batches(self):
        """Whole untraced batches until their summed wall reaches --seconds;
        a traced run needs only one, as the base of the tracing overhead.

        A later batch is skipped when it would not end before the deadline.
        """
        out = []
        extra = ["--corrupt"] if self.args.corrupt else []
        while not out or (not self.args.trace
                          and sum(b["wall_s"] for b in out) < self.args.seconds):
            if out and statistics.median(b["child_s"] for b in out) > self.remaining():
                break
            out.append(self.child(*extra))
        return out

    def traced(self):
        os.makedirs(OUT, exist_ok=True)
        out = []
        for k in range(TRACED_BATCHES):
            path = os.path.join(OUT, "%s-trace%d.jsonl" % (self.args.workload, k))
            out.append(self.child("--trace", path))
        first, second = out[0]["trace"], out[1]["trace"]
        for name in ANCHORS:
            if first[name] != second[name]:
                raise HarnessError("exact count %s differs between two traced batches: "
                                   "%r vs %r" % (name, first[name], second[name]))
        return out


def end_to_end(setups, batches):
    walls = [b["wall_cal"] for b in batches]
    verified = sum(b["attempted"] - b["failed"] for b in batches)
    return {
        "setup_s": statistics.median(setups),
        "wall_cal": statistics.fmean(walls),
        "ops_per_kcal": 1000.0 * verified / sum(walls),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }


def per_layer(batches, traced):
    keys = traced[0]["trace"]
    metrics = {}
    for k in keys:
        values = [t["trace"][k] for t in traced]
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace_overhead"] = (statistics.median(t["wall_s"] for t in traced)
                                 / statistics.median(b["wall_s"] for b in batches))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="qtchroma benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one result after timing; the checks must fail")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise HarnessError("unknown workload %r; choose from %s" % (args.workload, names))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

        print("# machine")
        print("python       %s (%s)" % (platform.python_version(), platform.python_implementation()))
        print("nproc        %s" % os.cpu_count())
        print("platform     %s" % platform.platform())
        print("git_commit   %s" % git_commit())
        print("workload     %s" % args.workload)
        print("seed         %d" % args.seed)
        print("seconds      %g" % args.seconds)
        print("tracing      %s" % ("on" if args.trace else "off"))
        sys.stdout.flush()

        runner = Runner(args)
        setups = []
        if not args.trace:
            setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        batches = runner.batches()
        setups += [b["setup_s"] for b in batches]
        runs = list(batches)
        if args.trace:
            traced = runner.traced()
            runs += traced
            metrics = per_layer(batches, traced)
        else:
            metrics = end_to_end(setups, batches)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise HarnessError("metrics not measured: %s" % missing)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(b["attempted"] for b in runs)
    failed = sum(b["failed"] for b in runs)
    for b in runs:
        for err in b["errors"]:
            print("FAILED %s" % err, file=sys.stderr)
    print("# %d batches (%d traced)%s" % (len(runs), len(runs) - len(batches),
                                          "" if args.trace else ", %d set-ups" % len(setups)))
    print("# batch wall_s: %s" % " ".join("%.3f" % b["wall_s"] for b in runs))
    if args.trace:
        print("# per op in the first traced batch: seconds, apply_hatS calls, largest "
              "apply_hatS output, apply_T_inv calls, apply_T_inv input terms")
        for label, secs, hats, hats_max, tinv, terms in traced[0]["op_counts"]:
            print("#   %-44s %8.4f %5d %6d %6d %8d" % (label, secs, hats, hats_max, tinv, terms))
    print("fail_ratio   %d/%d = %.6g" % (failed, attempted, failed / attempted))
    if not args.trace:
        walls = [b["wall_s"] for b in batches]
        loops = [c for b in batches for c in b["loop_s"]]
        print("wall_s       %.6g s (not gated: mean over %d batches)"
              % (statistics.fmean(walls), len(walls)))
        print("ops_per_s    %.6g 1/s (not gated)"
              % (sum(b["attempted"] - b["failed"] for b in batches) / sum(walls)))
        print("loop_s       %.6g s (calibration loop: median of %d samples)"
              % (statistics.median(loops), len(loops)))
        latencies = [x for b in batches for x in b["latencies"]]
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        print("op_p50_s     %.6g s (not gated: %d samples)"
              % (statistics.median(latencies), len(latencies)))
        print("op_p90_s     %.6g s (not gated: %d beyond it)"
              % (p90, sum(x > p90 for x in latencies)))
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        print("%-40s %.6g %s" % (m["name"], value, m["unit"]))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
