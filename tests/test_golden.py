"""Golden corpus: the exact e-expansions of every Catalan graph with n <= 6.

tests/data/golden_e.json stores, one graph per line, the exact
``expand_in_e(qt_csf(e, max(n, 2))).to_json()``; the test recomputes each
and compares the serializations, so any change to a coefficient, to the
canonical form or to the JSON layout shows.

    python tests/test_golden.py

regenerates the file, after checking every expansion at q = 1 against the
coloring oracle and, for n <= 5, against the second operator factorization.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qtchroma.qt import QTCoeff, specialize_q1
from qtchroma.graphs import enumerate_eseqs
from qtchroma.qtcsf import qt_csf, c_lambda
from qtchroma.symfn import EExpansion, expand_in_e, apply_N
from qtchroma.suites import suite_q1
from test_qtcsf import qt_csf_via_s

PATH = os.path.join(HERE, "data", "golden_e.json")
MAX_N = 6
VIA_S_MAX_N = 5


def expansion(eseq):
    return expand_in_e(qt_csf(eseq, max(len(eseq), 2)))


def load():
    with open(PATH) as fh:
        return json.load(fh)


def test_golden_e_expansions():
    rows = load()
    want = [list(e) for n in range(1, MAX_N + 1) for e in enumerate_eseqs(n)]
    assert [row["eseq"] for row in rows] == want
    for row in rows:
        got = expansion(tuple(row["eseq"])).to_json()
        assert got == row["e"], row["eseq"]


def test_golden_corpus_at_q1_is_the_coloring_sum():
    # each stored expansion, read back and specialized at q = 1, is the
    # twisted coloring sum; EExpansion drops the coefficients that vanish
    for row in load():
        e = tuple(row["eseq"])
        at_q1 = {}
        for item in row["e"]["coeffs"]:
            assert item["coeff"]["den"] == [[1, 0, 0]]
            c = QTCoeff({(qe, te): v for v, qe, te in item["coeff"]["num"]})
            at_q1[tuple(item["partition"])] = specialize_q1(c)
        assert EExpansion(row["e"]["n"], at_q1) == apply_N(c_lambda(e)), e


def regenerate():
    rows = []
    for n in range(1, MAX_N + 1):
        m = max(n, 2)
        report = suite_q1(n=n, m=m)
        if not report.ok:
            raise SystemExit(report.render())
        for e in enumerate_eseqs(n):
            exp = expansion(e)
            if n <= VIA_S_MAX_N and expand_in_e(qt_csf_via_s(e, m)) != exp:
                raise SystemExit("the two factorizations differ for %s" % (e,))
            rows.append({"eseq": list(e), "e": exp.to_json()})
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(row, separators=(",", ":")) for row in rows))
        fh.write("\n]\n")
    print("wrote %d graphs to %s" % (len(rows), PATH))


if __name__ == "__main__":
    regenerate()
