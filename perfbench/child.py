"""One benchmark batch in a fresh process, so module caches start empty and
the peak RSS belongs to this batch alone.

    python3 perfbench/child.py --workload NAME --seed N [--setup-only]
                               [--trace SPANS_PATH] [--corrupt]

Imports the library from ``src/`` next to this directory, makes the inputs,
runs every operation back to back (timing the calibration loop of speed.py
between and during them, unless traced), reads the peak RSS, then checks
every result.  The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_library():
    sys.path.insert(0, SRC)
    import qtchroma
    if os.path.dirname(os.path.dirname(os.path.abspath(qtchroma.__file__))) != SRC:
        raise ImportError("qtchroma was imported from %s, not from %s"
                          % (qtchroma.__file__, SRC))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_PATH")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    _import_library()
    import workloads
    from speed import SpeedSampler
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # A traced batch is not sampled: the alarm handler's time would land in
    # the spans of the calls it interrupts.
    sampler = None if tracer else SpeedSampler()
    covered0 = tracer.main_covered() if tracer else 0.0
    results, starts, latencies, op_loops, errors = [], [], [], [], []
    if sampler:
        sampler.sample()
        sampler.start()
    try:
        for op in ops:
            a = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:   # counted as a failed op, reported below
                res = exc
                errors.append("%s raised %s" % (op.label, traceback.format_exc(limit=-3)))
            b = time.perf_counter()
            results.append(workloads.freeze(res))
            del res   # not held while the next op runs
            starts.append(a)
            if sampler:
                sampler.sample()
                lat, loops = sampler.op_time(a, b)
                op_loops.append(loops)
            else:
                lat = b - a
            latencies.append(lat)
    finally:
        if sampler:
            sampler.stop()
    wall = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"ready": ready, "wall_s": wall, "latencies": latencies,
           "wall_cal": sum(op_loops),
           "loop_s": sampler.loop_s() if sampler else [],
           "peak_rss_mb": peak_rss_mb}
    if tracer:
        covered = tracer.main_covered() - covered0
        tracer.uninstall()

    attempted = failed = 0
    for i, (op, frozen) in enumerate(zip(ops, results)):
        res = workloads.thaw(frozen)
        if args.corrupt and i == 0:
            res = workloads.corrupt(res)
        attempted += op.cases
        if isinstance(res, Exception):
            failed += op.cases
            continue
        bad = op.check(res)
        if bad is not None:
            failed += bad[0]
            errors.append("%s: %s" % (op.label, bad[1]))
    out.update(attempted=attempted, failed=failed, errors=errors)

    if tracer:
        out["trace"] = layer_metrics(tracer, wall, covered)
        out["op_counts"] = op_counts(tracer, ops, starts, latencies)
        tracer.write_spans(args.trace)
    print(json.dumps(out))
    return 0


def op_counts(tracer, ops, starts, latencies):
    """Symmetrizer work per op, from the spans that started during it:
    [label, seconds, apply_hatS calls, largest apply_hatS output,
    apply_T_inv calls, apply_T_inv input terms]."""
    hats = tracer.keys.index("qtcsf.apply_hatS")
    tinv = tracer.keys.index("hecke.apply_T_inv")
    rows = [[op.label, lat, 0, 0, 0, 0] for op, lat in zip(ops, latencies)]
    for _sid, _parent, kid, _tid, t0, _t1, _own, size in tracer.spans():
        if kid not in (hats, tinv):
            continue
        i = bisect.bisect_right(starts, t0) - 1
        if i < 0:
            continue
        row = rows[i]
        if kid == hats:
            row[2] += 1
            row[3] = max(row[3], size)
        else:
            row[4] += 1
            row[5] += size
    return rows


def layer_metrics(tracer, wall, covered):
    """The per-layer metrics of one traced batch, by name."""
    by_name, layer_self, counts, peak = tracer.summary()

    def calls(name):
        return by_name[name][0]

    def time_s(name):
        return by_name[name][1]

    def self_s(name):
        return by_name[name][2]

    def size_sum(name):
        return by_name[name][3]

    m = {}
    m["qtcsf.qt_csf.calls"] = calls("qtcsf.qt_csf")
    m["qtcsf.qt_csf.time_s"] = time_s("qtcsf.qt_csf")
    m["qtcsf.apply_hatS.calls"] = calls("qtcsf.apply_hatS")
    m["qtcsf.apply_hatS.self_s"] = self_s("qtcsf.apply_hatS")
    m["qtcsf.apply_hatS.terms_out_max"] = by_name["qtcsf.apply_hatS"][4]
    m["qtcsf.apply_hatS.terms_out_sum"] = size_sum("qtcsf.apply_hatS")
    for f in ("apply_T_inv", "apply_pi", "apply_T", "apply_Y"):
        m["hecke.%s.calls" % f] = calls("hecke." + f)
    m["hecke.apply_T_inv.terms_in"] = size_sum("hecke.apply_T_inv")
    m["hecke.apply_T_inv.self_s"] = self_s("hecke.apply_T_inv")
    m["hecke.apply_pi.self_s"] = self_s("hecke.apply_pi")
    m["hecke.apply_T.self_s"] = self_s("hecke.apply_T")
    m["hecke.apply_Y.terms_in"] = size_sum("hecke.apply_Y")
    m["hecke.apply_Y.time_s"] = time_s("hecke.apply_Y")
    for op in ("add", "mul"):
        m["xring.XPoly.%s.calls" % op] = calls("xring.XPoly." + op)
        m["xring.XPoly.%s.self_s" % op] = self_s("xring.XPoly." + op)
    m["xring.terms_peak"] = peak
    for op in ("mul", "add", "sub", "normalize"):
        m["qt.QTCoeff.%s.calls" % op] = calls("qt.QTCoeff." + op)
    ncoeff = counts.get("qt.coeff_count", 0)
    m["qt.coeff_terms_mean"] = counts.get("qt.coeff_terms_sum", 0) / ncoeff if ncoeff else 0.0
    m["qt.coeff_terms_max"] = counts.get("qt.coeff_terms_max", 0)
    m["symfn.expand_in_e.calls"] = calls("symfn.expand_in_e")
    m["symfn.expand_in_e.self_s"] = self_s("symfn.expand_in_e")
    m["symfn.expand_in_e.peel_steps"] = counts.get("symfn.expand_in_e.peel_steps", 0)
    m["symfn.e_poly.calls"] = calls("symfn.e_poly")
    m["symfn.e_poly.time_s"] = time_s("symfn.e_poly")
    m["graphs.chromatic_qsf.calls"] = calls("graphs.chromatic_qsf")
    m["graphs.chromatic_qsf.time_s"] = time_s("graphs.chromatic_qsf")
    m["graphs.enumerate_eseqs.time_s"] = time_s("graphs.enumerate_eseqs")
    qme, qm = calls("qmapstar.q_map_e"), calls("qmapstar.q_map")
    m["qmapstar.q_map_e.calls"] = qme
    m["qmapstar.q_map.calls"] = qm
    m["qmapstar.q_map_e.hit_ratio"] = 1.0 - qm / qme if qme else 0.0
    m["qmapstar.q_map_e.time_s"] = time_s("qmapstar.q_map_e")
    m["qmapstar.q_map_inv_sym.calls"] = calls("qmapstar.q_map_inv_sym")
    m["qmapstar.q_map_inv_sym.self_s"] = self_s("qmapstar.q_map_inv_sym")
    m["qmapstar.solve_dim"] = by_name["qmapstar.q_map_inv_sym"][4]
    for f in ("apply_e_r_Y", "star"):
        m["qmapstar.%s.calls" % f] = calls("qmapstar." + f)
        m["qmapstar.%s.time_s" % f] = time_s("qmapstar." + f)
    for k in ("cases", "failures", "elapsed_s", "cpu_s", "gil_wait_s"):
        m["suites." + k] = counts.get("suites." + k, 0)
    for layer, s in layer_self.items():
        m["%s.self_s" % layer] = s
    m["unattributed_s"] = wall - covered
    m["traced_wall_s"] = wall
    return m


if __name__ == "__main__":
    sys.exit(main())
