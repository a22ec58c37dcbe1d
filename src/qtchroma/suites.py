"""Named verification suites over the whole pipeline.

Each suite is a generator of exact identity checks: it yields one
(case, None or (expected, actual)) pair per case, and the _suite
decorator runs it into a VerifyReport.  Randomized suites draw from a
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import functools
import random
import time

from .qt import qt_monomial
from .xring import XPoly, is_symmetric, assert_integral
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


def _suite(name):
    """Run a generator suite into a VerifyReport named name."""
    def decorate(gen):
        @functools.wraps(gen)
        def run(*args, **kwargs):
            start = time.time()
            cases = 0
            failures = []
            for case, bad in gen(*args, **kwargs):
                cases += 1
                if bad is not None:
                    failures.append((case, bad[0], bad[1]))
            return VerifyReport(name, cases, failures, time.time() - start)
        return run
    return decorate


def _diff(lhs, rhs):
    """None if lhs == rhs, else (expected, actual): rhs and lhs as text."""
    return None if lhs == rhs else (str(rhs), str(lhs))


def _holds(ok):
    """None if the identity holds, else the fixed (expected, actual)."""
    return None if ok else ("identity holds", "identity fails")


def _rand_poly(rng, m, deg, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(m))
        terms[e] = qt_monomial(rng.randint(-4, 4), rng.randint(-1, 1), rng.randint(-1, 1))
    return XPoly(m, terms)


@_suite("relations")
def suite_relations(m=5, deg_max=4, count=50, seed=0):
    """Operator relation checks on random polynomials, fixed seed, in
    2..m variables."""
    rng = random.Random(seed)
    t = qt_monomial(1, 0, 1)
    for mm in range(2, m + 1):
        for deg in range(1, deg_max + 1):
            for trial in range(count):
                f = _rand_poly(rng, mm, deg)
                i = rng.randrange(mm)
                j = rng.randrange(mm)
                tag = "m=%d deg=%d trial=%d" % (mm, deg, trial)

                yield "quadratic " + tag, _diff(
                    apply_T(i, apply_T(i, f)), apply_T(i, f) * (t - 1) + f * t)
                yield "rotation " + tag, _diff(
                    apply_pi(apply_T(i, f)), apply_T((i + 1) % mm, apply_pi(f)))

                if mm > 2:
                    jj = (i + 1) % mm
                    yield "braid " + tag, _diff(
                        apply_T(i, apply_T(jj, apply_T(i, f))),
                        apply_T(jj, apply_T(i, apply_T(jj, f))))

                if mm > 3 and j not in (i, (i + 1) % mm, (i - 1) % mm):
                    yield "commutation " + tag, _diff(
                        apply_T(i, apply_T(j, f)), apply_T(j, apply_T(i, f)))

                yi = rng.randint(1, mm)
                yj = rng.randint(1, mm)
                yield "Y-commutativity " + tag, _diff(
                    apply_Y(yi, apply_Y(yj, f)), apply_Y(yj, apply_Y(yi, f)))

                if trial < 5:
                    ti = rng.randrange(1, mm)
                    # e_2(Y) is central, so it commutes with T_i.
                    yield "centrality " + tag, _diff(
                        apply_e_r_Y(2, apply_T(ti, f)), apply_T(ti, apply_e_r_Y(2, f)))


@_suite("modular")
def suite_modular(n=4, m=5):
    """The three-term linear relation on both computation paths."""
    t = qt_monomial(1, 0, 1)
    for nn in range(3, n + 1):
        for (e, ep, epp, tag) in modular_triples(nn):
            case = "n=%d %s case %s" % (nn, e, tag)
            yield "operator " + case, _diff(
                qt_csf(e, m) * (t + 1), qt_csf(ep, m) * t + qt_csf(epp, m))
            yield "coloring " + case, _diff(
                chromatic_qsf(graph_from_eseq(e), nn) * (t + 1),
                chromatic_qsf(graph_from_eseq(ep), nn) * t
                + chromatic_qsf(graph_from_eseq(epp), nn))


@_suite("stability")
def suite_stability(n=4, m=6):
    for e in enumerate_eseqs(n):
        for mp in range(2, m):
            yield "%s m=%d m'=%d" % (e, m, mp), _holds(check_stability(e, m, mp))


@_suite("symmetry")
def suite_symmetry(n=5, m=6):
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                yield "%s m=%d" % (e, mm), _holds(is_symmetric(qt_csf(e, mm)))


@_suite("integrality")
def suite_integrality(n=5, m=6):
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                yield "%s m=%d" % (e, mm), _holds(assert_integral(qt_csf(e, mm)))


@_suite("q1")
def suite_q1(n=5, m=6):
    for e in enumerate_eseqs(n):
        yield "%s m=%d" % (e, m), _holds(check_q1_collapse(e, m))


@_suite("qinf")
def suite_qinf(n=5, m=None):
    if m is None:
        m = max(n, 2)
    for e in enumerate_eseqs(n):
        yield "%s m=%d" % (e, m), _holds(check_qinf_limit(e, m))


@_suite("dist")
def suite_dist(n=5):
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            yield "%s" % (e,), _holds(check_dist_identity(e))


@_suite("pieri")
def suite_pieri(r=5):
    for rr in range(0, r + 1):
        yield "r=%d m=%d" % (rr, 2 * rr + 2), _holds(check_pieri(rr, 2 * rr + 2))


@_suite("mult")
def suite_mult(n=4, m=None):
    if m is None:
        m = 2 * n
    for n1 in range(1, n):
        for n2 in range(1, n - n1 + 1):
            for e1 in enumerate_eseqs(n1):
                for e2 in enumerate_eseqs(n2):
                    yield "%s + %s m=%d" % (e1, e2, m), _diff(
                        qt_csf(concat(e1, e2), m), star(qt_csf(e1, m), qt_csf(e2, m)))


@_suite("qmap")
def suite_qmap(r=5, m=10):
    """Transported elementaries against the closed form, plus round trips.

    Each e_r case checks both routes to e_r(Y) . 1: q_map_e, and the
    operator e_r(Y) applied to 1.  The round trips run for the graphs
    with n <= min(4, r, m), each at m' = min(2n, m) >= 2.
    """
    for mm in range(2, m + 1):
        for rr in range(1, min(r, mm) + 1):
            rhs = e_poly((rr,), mm) * qt_monomial(1, 0, rr * (rr - 1) // 2)
            yield "e_%d m=%d" % (rr, mm), (
                _diff(q_map_e((rr,), mm), rhs)
                or _diff(apply_e_r_Y(rr, XPoly.one(mm)), rhs))
    if m < 2:
        return
    for nn in range(1, min(4, r, m) + 1):
        mm = min(2 * nn, m)
        for e in enumerate_eseqs(nn):
            yield "round trip %s m=%d" % (e, mm), _diff(
                q_map_inv_sym(qt_csf(e, mm)), c_lambda(e))


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
