"""Acceptance gate: twelve exact end-to-end checks with runtime budgets.

Each test prints a single pass line with its wall time so the suite
doubles as a progress report when run with -s.
"""

import functools
import time

from qtchroma.qt import (ONE, qt_monomial, t_int, t_factorial,
                         limit_q_infinity)
from qtchroma.xring import XPoly, is_symmetric, assert_integral, truncate
from qtchroma.symfn import partitions_of, e_poly, e_range
from qtchroma.graphs import (enumerate_eseqs, modular_triples, concat,
                             complete_eseq, graph_from_eseq, chromatic_qsf)
from qtchroma.qtcsf import qt_csf, c_lambda
from qtchroma.qmapstar import q_map_e, q_map_inv_sym, star, qt_elementary, apply_e_r_Y
from qtchroma.suites import (suite_relations, suite_q1, suite_pieri, suite_qinf,
                             suite_dist)

T = qt_monomial(1, 0, 1)


class budget:
    """Times a block, enforces the limit, prints one summary line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "SLOW"
            print("acceptance %-28s %s (%.2fs of %ds)"
                  % (self.name, status, elapsed, self.seconds))
            assert elapsed < self.seconds, (
                "%s exceeded its %ds budget: %.2fs"
                % (self.name, self.seconds, elapsed))
        else:
            print("acceptance %-28s FAIL (%.2fs of %ds)"
                  % (self.name, elapsed, self.seconds))
        return False


def test_01_three_vertex_path():
    with budget("01 three-vertex-path", 1):
        scale = qt_monomial(1, -1, 2)
        fac = (qt_monomial(-1) + qt_monomial(1, 1, 0) + qt_monomial(1, 1, 1)) * t_int(3)
        for m in (2, 3, 4):
            want = (e_poly((2, 1), m) + e_poly((3,), m) * fac) * scale
            assert qt_csf((0, 0, 1), m) == want, m


def test_02_complete_graphs():
    with budget("02 complete-graphs", 10):
        for n in range(1, 6):
            scale = t_factorial(n) * qt_monomial(1, 0, n * (n - 1) // 2)
            for m in range(2, 7):
                assert qt_csf(complete_eseq(n), m) == e_poly((n,), m) * scale, (n, m)


def test_03_q1_collapse():
    with budget("03 q1-collapse", 300):
        report = suite_q1(n=5, m=6)
        assert report.ok, report.render()
        assert report.cases == 42


def test_04_stability():
    with budget("04 stability", 60):
        for e in enumerate_eseqs(4):
            full = qt_csf(e, 6)
            for mp in (2, 3, 4, 5):
                assert truncate(full, mp) == qt_csf(e, mp), (e, mp)


def test_05_symmetry_integrality():
    with budget("05 symmetry-integrality", 300):
        for n in range(1, 6):
            for e in enumerate_eseqs(n):
                for m in range(2, 7):
                    f = qt_csf(e, m)
                    assert is_symmetric(f), (e, m)
                    assert assert_integral(f), (e, m)


def test_06_modular_law():
    # a graph enters several triples; each polynomial is computed once
    op = functools.lru_cache(maxsize=None)(qt_csf)
    coloring = functools.lru_cache(maxsize=None)(
        lambda e: chromatic_qsf(graph_from_eseq(e), len(e)))
    with budget("06 modular-law", 300):
        for n in range(3, 6):
            for e, ep, epp, tag in modular_triples(n):
                for m in (4, 6):
                    lhs = op(e, m) * (T + 1)
                    rhs = op(ep, m) * T + op(epp, m)
                    assert lhs == rhs, (e, m, tag)
                lhs = coloring(e) * (T + 1)
                rhs = coloring(ep) * T + coloring(epp)
                assert lhs == rhs, (e, tag)


def test_07_product_rule():
    with budget("07 product-rule", 120):
        report = suite_pieri(r=5)     # r = 0..5, each at m = 2r + 2
        assert report.ok, report.render()
        assert report.cases == 6


def test_08_transported_elementaries():
    with budget("08 transported-elementaries", 60):
        for m in range(2, 11):
            for r in range(1, min(5, m) + 1):
                want = e_poly((r,), m) * qt_monomial(1, 0, r * (r - 1) // 2)
                assert q_map_e((r,), m) == want, (r, m)
                assert apply_e_r_Y(r, XPoly.one(m)) == want, (r, m)


def test_09_coefficient_round_trip():
    with budget("09 coefficient-round-trip", 300):
        for n in range(1, 5):
            for e in enumerate_eseqs(n):
                m = max(2 * n, 2)
                assert q_map_inv_sym(qt_csf(e, m)) == c_lambda(e), e


def test_10_limits_and_distribution():
    with budget("10 limits-distribution", 300):
        for n in range(1, 6):
            report = suite_qinf(n=n)      # at m = max(n, 2)
            assert report.ok, report.render()
            assert report.cases == len(enumerate_eseqs(n))
        report = suite_dist(n=5)          # every graph with n <= 5
        assert report.ok, report.render()
        assert report.cases == 64
        for n in range(1, 5):
            m = 2 * n
            for lam in partitions_of(n):
                f = qt_elementary(lam, m)
                lim = XPoly(m, {e: limit_q_infinity(c)
                                for e, c in f.terms.items()})
                scale = t_factorial(n)
                for p in lam:
                    scale = scale / t_factorial(p)
                assert lim == e_range(n, 1, m, m) * scale, lam


def test_11_multiplicativity():
    with budget("11 multiplicativity", 120):
        for n1 in range(1, 4):
            for n2 in range(1, 5 - n1):
                m = 2 * (n1 + n2)
                for e1 in enumerate_eseqs(n1):
                    for e2 in enumerate_eseqs(n2):
                        lhs = qt_csf(concat(e1, e2), m)
                        rhs = star(qt_csf(e1, m), qt_csf(e2, m))
                        assert lhs == rhs, (e1, e2)


def test_12_operator_relations():
    with budget("12 operator-relations", 60):
        report = suite_relations(m=5, deg_max=4, count=50, seed=0)
        assert report.ok, report.render()
