"""Rebuild perfbench/reference.json, the stored answers the checks compare with.

    python3 perfbench/make_reference.py            # rebuild the file
    python3 perfbench/make_reference.py --cross-check 0,0,0,1,2,3,4,5 ...

csf_large: for every n=8 graph with eseq weight <= 15, the digest of the exact
qt_csf(e, 8) and the seconds that call took; csf_large splits the graphs into
strata of similar cost by those seconds.

csf_sweep: for every n=6 graph, the digest of the coloring oracle's e-expansion
at q=1 (apply_N of the expanded chromatic_qsf), which the q=1 specialization
of expand_in_e(qt_csf(e, 6)) must match.

--cross-check recomputes qt_csf(e, 8) for each graph given, requires its
digest to equal the stored one, and checks it against the coloring oracle
through the q=1 collapse (seconds to about a minute per graph).

Run the rebuild only when the answers are meant to change, and cross-check
the new digests again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qtchroma as qc  # noqa: E402
import workloads  # noqa: E402


def cross_check(texts):
    stored = {tuple(g["eseq"]): g["digest"]
              for g in workloads.reference()["csf_large"]["graphs"]}
    m = workloads.LARGE_M
    for text in texts:
        e = tuple(int(x) for x in text.split(","))
        t0 = time.perf_counter()
        f = qc.qt_csf(e, m)
        same = workloads.digest(f) == stored[e]
        at_q1 = workloads.at_q1(qc.expand_in_e(f))
        oracle = qc.apply_N(qc.expand_in_e(qc.chromatic_qsf(qc.graph_from_eseq(e), m)))
        ok = same and at_q1 == oracle
        print("%s: digest %s, q=1 collapse %s (%.1fs)"
              % (e, "same" if same else "DIFFERENT",
                 "ok" if at_q1 == oracle else "MISMATCH", time.perf_counter() - t0))
        if not ok:
            return 1
    return 0


def rebuild():
    large = []
    for e in workloads.large_population():
        t0 = time.perf_counter()
        f = qc.qt_csf(e, workloads.LARGE_M)
        large.append({"eseq": list(e), "ref_s": round(time.perf_counter() - t0, 4),
                      "digest": workloads.digest(f)})
    sweep = []
    for e in qc.enumerate_eseqs(workloads.SWEEP_N):
        oracle = qc.apply_N(qc.expand_in_e(qc.chromatic_qsf(qc.graph_from_eseq(e),
                                                            workloads.SWEEP_N)))
        sweep.append({"eseq": list(e), "q1_digest": workloads.digest(oracle)})
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        fh.write('{"csf_large": {"m": %d, "graphs": [\n' % workloads.LARGE_M)
        fh.write(",\n".join(json.dumps(g) for g in large))
        fh.write('\n]},\n"csf_sweep": {"m": %d, "graphs": [\n' % workloads.SWEEP_N)
        fh.write(",\n".join(json.dumps(g) for g in sweep))
        fh.write("\n]}}\n")
    print("wrote %d + %d graphs to %s" % (len(large), len(sweep), path))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cross-check", nargs="+", metavar="ESEQ")
    args = ap.parse_args(argv)
    return cross_check(args.cross_check) if args.cross_check else rebuild()


if __name__ == "__main__":
    sys.exit(main())
