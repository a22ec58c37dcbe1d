"""Named verification suites over the whole pipeline.

Each suite runs a family of exact identity checks and returns a
VerifyReport.  Randomized suites draw from a seeded generator so runs
are reproducible.
"""

from __future__ import annotations

import random
import time

from .qt import qt_monomial
from .xring import XPoly, is_symmetric, assert_integral, render_xpoly
from .hecke import apply_T, apply_pi, apply_Y
from .symfn import e_poly
from .graphs import enumerate_eseqs, modular_triples, concat, graph_from_eseq, chromatic_qsf
from .qtcsf import (qt_csf, check_stability, check_q1_collapse,
                    check_dist_identity, check_qinf_limit, c_lambda)
from .qmapstar import q_map_e, q_map_inv_sym, star, check_pieri, apply_e_r_Y


class VerifyReport:
    """Outcome of one suite: case count, failures, wall time."""

    __slots__ = ("suite", "cases", "failures", "elapsed")

    def __init__(self, suite, cases, failures, elapsed):
        self.suite = suite
        self.cases = cases
        self.failures = failures
        self.elapsed = elapsed

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [{"case": c, "expected": e, "actual": a}
                         for c, e, a in self.failures],
            "elapsed": self.elapsed,
        }

    def render(self):
        lines = ["suite %s: %d cases, %d failures (%.2fs)"
                 % (self.suite, self.cases, len(self.failures), self.elapsed)]
        if self.failures:
            case, exp, act = self.failures[0]
            lines.append("first counterexample: %s" % case)
            lines.append("  expected: %s" % exp)
            lines.append("  actual:   %s" % act)
        return "\n".join(lines)


def _run(suite, checks):
    """Run (case_id, thunk) pairs; thunk returns None or (expected, actual)."""
    start = time.time()
    failures = []
    for case, thunk in checks:
        bad = thunk()
        if bad is not None:
            failures.append((case, bad[0], bad[1]))
    return VerifyReport(suite, len(checks), failures, time.time() - start)


def _eq_check(lhs_fn, rhs_fn):
    def thunk():
        lhs, rhs = lhs_fn(), rhs_fn()
        if lhs == rhs:
            return None
        return (render_xpoly(rhs), render_xpoly(lhs))
    return thunk


def _bool_check(fn):
    def thunk():
        return None if fn() else ("identity holds", "identity fails")
    return thunk


def _rand_poly(rng, m, deg, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(m))
        terms[e] = qt_monomial(rng.randint(-4, 4), rng.randint(-1, 1), rng.randint(-1, 1))
    return XPoly(m, terms)


def suite_relations(m=5, deg_max=4, count=50, seed=0):
    """Operator relation checks on random polynomials, fixed seed, in
    2..m variables."""
    rng = random.Random(seed)
    checks = []
    t = qt_monomial(1, 0, 1)
    for mm in range(2, m + 1):
        for deg in range(1, deg_max + 1):
            for trial in range(count):
                f = _rand_poly(rng, mm, deg)
                i = rng.randrange(mm)
                j = rng.randrange(mm)
                tag = "m=%d deg=%d trial=%d" % (mm, deg, trial)

                checks.append(("quadratic " + tag, _eq_check(
                    lambda f=f, i=i: apply_T(i, apply_T(i, f)),
                    lambda f=f, i=i: apply_T(i, f) * (t - 1) + f * t)))
                checks.append(("rotation " + tag, _eq_check(
                    lambda f=f, i=i: apply_pi(apply_T(i, f)),
                    lambda f=f, i=i: apply_T((i + 1) % mm, apply_pi(f)))))

                if mm > 2:
                    jj = (i + 1) % mm
                    checks.append(("braid " + tag, _eq_check(
                        lambda f=f, i=i, jj=jj: apply_T(i, apply_T(jj, apply_T(i, f))),
                        lambda f=f, i=i, jj=jj: apply_T(jj, apply_T(i, apply_T(jj, f))))))

                if mm > 3 and j not in (i, (i + 1) % mm, (i - 1) % mm):
                    checks.append(("commutation " + tag, _eq_check(
                        lambda f=f, i=i, j=j: apply_T(i, apply_T(j, f)),
                        lambda f=f, i=i, j=j: apply_T(j, apply_T(i, f)))))

                yi = rng.randint(1, mm)
                yj = rng.randint(1, mm)
                checks.append(("Y-commutativity " + tag, _eq_check(
                    lambda f=f, yi=yi, yj=yj: apply_Y(yi, apply_Y(yj, f)),
                    lambda f=f, yi=yi, yj=yj: apply_Y(yj, apply_Y(yi, f)))))

                if trial < 5:
                    ti = rng.randrange(1, mm)
                    # e_2(Y) is central, so it commutes with T_i.
                    checks.append(("centrality " + tag, _eq_check(
                        lambda f=f, ti=ti: apply_e_r_Y(2, apply_T(ti, f)),
                        lambda f=f, ti=ti: apply_T(ti, apply_e_r_Y(2, f)))))
    return _run("relations", checks)


def suite_modular(n=4, m=5):
    """The three-term linear relation on both computation paths."""
    checks = []
    t = qt_monomial(1, 0, 1)
    for nn in range(3, n + 1):
        for (e, ep, epp, tag) in modular_triples(nn):
            case = "n=%d %s case %s" % (nn, e, tag)

            checks.append(("operator " + case, _eq_check(
                lambda e=e: qt_csf(e, m) * (t + 1),
                lambda ep=ep, epp=epp: qt_csf(ep, m) * t + qt_csf(epp, m))))
            checks.append(("coloring " + case, _eq_check(
                lambda e=e, nn=nn: chromatic_qsf(graph_from_eseq(e), nn) * (t + 1),
                lambda ep=ep, epp=epp, nn=nn: (
                    chromatic_qsf(graph_from_eseq(ep), nn) * t
                    + chromatic_qsf(graph_from_eseq(epp), nn)))))
    return _run("modular", checks)


def suite_stability(n=4, m=6):
    checks = []
    for e in enumerate_eseqs(n):
        for mp in range(2, m):
            case = "%s m=%d m'=%d" % (e, m, mp)
            checks.append((case, _bool_check(lambda e=e, mp=mp: check_stability(e, m, mp))))
    return _run("stability", checks)


def suite_symmetry(n=5, m=6):
    checks = []
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                case = "%s m=%d" % (e, mm)
                checks.append((case, _bool_check(
                    lambda e=e, mm=mm: is_symmetric(qt_csf(e, mm)))))
    return _run("symmetry", checks)


def suite_integrality(n=5, m=6):
    checks = []
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                case = "%s m=%d" % (e, mm)
                checks.append((case, _bool_check(
                    lambda e=e, mm=mm: assert_integral(qt_csf(e, mm)))))
    return _run("integrality", checks)


def suite_q1(n=5, m=6):
    checks = [("%s m=%d" % (e, m), _bool_check(lambda e=e: check_q1_collapse(e, m)))
              for e in enumerate_eseqs(n)]
    return _run("q1", checks)


def suite_qinf(n=5, m=None):
    if m is None:
        m = max(n, 2)
    checks = [("%s m=%d" % (e, m), _bool_check(lambda e=e: check_qinf_limit(e, m)))
              for e in enumerate_eseqs(n)]
    return _run("qinf", checks)


def suite_dist(n=5):
    checks = []
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            checks.append(("%s" % (e,), _bool_check(lambda e=e: check_dist_identity(e))))
    return _run("dist", checks)


def suite_pieri(r=5):
    checks = [("r=%d m=%d" % (rr, 2 * rr + 2),
               _bool_check(lambda rr=rr: check_pieri(rr, 2 * rr + 2)))
              for rr in range(0, r + 1)]
    return _run("pieri", checks)


def suite_mult(n=4, m=None):
    if m is None:
        m = 2 * n
    checks = []
    for n1 in range(1, n):
        for n2 in range(1, n - n1 + 1):
            for e1 in enumerate_eseqs(n1):
                for e2 in enumerate_eseqs(n2):
                    case = "%s + %s m=%d" % (e1, e2, m)
                    checks.append((case, _eq_check(
                        lambda e1=e1, e2=e2: qt_csf(concat(e1, e2), m),
                        lambda e1=e1, e2=e2: star(qt_csf(e1, m), qt_csf(e2, m)))))
    return _run("mult", checks)


def suite_qmap(r=5, m=10):
    """Transported elementaries against the closed form, plus round trips.

    Each e_r case checks both routes to e_r(Y) . 1: q_map_e, and the
    operator e_r(Y) applied to 1.
    """
    checks = []
    for mm in range(2, m + 1):
        for rr in range(1, min(r, mm) + 1):
            case = "e_%d m=%d" % (rr, mm)

            def thunk(rr=rr, mm=mm):
                rhs = e_poly((rr,), mm) * qt_monomial(1, 0, rr * (rr - 1) // 2)
                for lhs in (q_map_e((rr,), mm), apply_e_r_Y(rr, XPoly.one(mm))):
                    if lhs != rhs:
                        return (render_xpoly(rhs), render_xpoly(lhs))
                return None
            checks.append((case, thunk))
    for nn in range(1, 5):
        for e in enumerate_eseqs(nn):
            case = "round trip %s m=%d" % (e, 2 * nn)

            def rt(e=e, nn=nn):
                lhs = q_map_inv_sym(qt_csf(e, max(2 * nn, 2)))
                rhs = c_lambda(e)
                return None if lhs == rhs else (str(rhs), str(lhs))
            checks.append((case, rt))
    return _run("qmap", checks)


SUITES = {
    "relations": suite_relations,
    "modular": suite_modular,
    "stability": suite_stability,
    "symmetry": suite_symmetry,
    "integrality": suite_integrality,
    "q1": suite_q1,
    "qinf": suite_qinf,
    "dist": suite_dist,
    "pieri": suite_pieri,
    "mult": suite_mult,
    "qmap": suite_qmap,
}
