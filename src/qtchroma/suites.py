"""Named verification suites over the whole pipeline.

Each suite is a generator of exact identity checks: it yields one
(case, None or (expected, actual)) pair per case, and the _suite
decorator runs it into a VerifyReport.  Randomized suites draw from a
seeded generator so runs are reproducible.
"""

from __future__ import annotations

import collections
import functools
import random
import time

from .qt import (ONE, ZERO, QTError, qt_monomial, t_int, t_factorial,
                 specialize_q1, limit_q_infinity)
from .xring import XPoly, XError, truncate, _asymmetry, _positive_q_power
from .hecke import apply_T, apply_pi, apply_Y
from .symfn import e_poly, e_range, expand_in_e, apply_N, e_stat
from .graphs import (enumerate_eseqs, modular_triples, concat, graph_from_eseq,
                     chromatic_qsf, eseq_weight)
from .qtcsf import qt_csf, c_lambda
from .qmapstar import q_map_e, q_map_inv_sym, star, apply_e_r_Y


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


def _witness(find, f, expected, fault):
    """None if find(f) is None, else (expected, fault % the term there)."""
    x = find(f)
    return None if x is None else (
        expected, fault % XPoly(f.m, {x: f.terms[x]}))


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
    """The three-term linear relation on both computation paths.

    A graph enters several triples, so each graph's pair (qt_csf at m
    variables, chromatic_qsf at n colours) is computed once per call and
    dropped after the last triple that reads it.
    """
    t = qt_monomial(1, 0, 1)
    triples = [(nn, triple) for nn in range(3, n + 1)
               for triple in modular_triples(nn)]
    reads = collections.Counter(x for _nn, triple in triples
                                for x in triple[:3])
    held = {}

    def both(x, nn):
        pair = held.get(x)
        if pair is None:
            pair = held[x] = (qt_csf(x, m),
                              chromatic_qsf(graph_from_eseq(x), nn))
        reads[x] -= 1
        if not reads[x]:
            del held[x]
        return pair

    for nn, (e, ep, epp, tag) in triples:
        (f, cf), (fp, cfp), (fpp, cfpp) = both(e, nn), both(ep, nn), both(epp, nn)
        case = "n=%d %s case %s" % (nn, e, tag)
        yield "operator " + case, _diff(f * (t + 1), fp * t + fpp)
        yield "coloring " + case, _diff(cf * (t + 1), cfp * t + cfpp)


@_suite("stability")
def suite_stability(n=4, m=6):
    """Truncating the m-variable result to m' < m variables gives the
    m'-variable result."""
    for e in enumerate_eseqs(n) if m > 2 else ():
        full = qt_csf(e, m)
        for mp in range(2, m):
            yield "%s m=%d m'=%d" % (e, m, mp), _diff(truncate(full, mp), qt_csf(e, mp))


@_suite("symmetry")
def suite_symmetry(n=5, m=6):
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                yield "%s m=%d" % (e, mm), _witness(
                    _asymmetry, qt_csf(e, mm), "symmetric",
                    "the term %s differs from a transposed partner")


@_suite("integrality")
def suite_integrality(n=5, m=6):
    for nn in range(1, n + 1):
        for e in enumerate_eseqs(nn):
            for mm in range(2, m + 1):
                yield "%s m=%d" % (e, mm), _witness(
                    _positive_q_power, qt_csf(e, mm), "no positive power of q",
                    "the term %s has a positive power of q")


@_suite("q1")
def suite_q1(n=5, m=6):
    """At q = 1 the e-coordinates are those of the coloring sum, rescaled
    by apply_N.  Those do not depend on the number of colours once it is
    at least n, so the oracle is c_lambda, the sum at n colours.
    c_lambda computes only the sum's dominant coefficients, and no
    operator."""
    if m < n:
        raise XError("need m >= n for a faithful e-expansion")
    for e in enumerate_eseqs(n):
        f = qt_csf(e, m)
        f1 = XPoly(m, {x: specialize_q1(c) for x, c in f.terms.items()})
        yield "%s m=%d" % (e, m), _diff(expand_in_e(f1), apply_N(c_lambda(e)))


@_suite("qinf")
def suite_qinf(n=5, m=None):
    """Coefficientwise q -> infinity limit against the closed form
    [n]_t! t^k e_n, where k counts the edges."""
    if m is None:
        m = max(n, 2)
    if m < n:
        raise XError("need m >= n")
    for e in enumerate_eseqs(n):
        k = n * (n - 1) // 2 - eseq_weight(e)
        want = e_poly((n,), m) * (t_factorial(n) * qt_monomial(1, 0, k))
        f = qt_csf(e, m)
        case = "%s m=%d" % (e, m)
        try:
            lim = XPoly(m, {x: limit_q_infinity(c) for x, c in f.terms.items()})
        except QTError as exc:
            yield case, (str(want), "%s: %s" % (exc, f))
            continue
        yield case, _diff(lim, want)


@_suite("dist")
def suite_dist(n=5):
    """The weighted sum of the c_lam / prod_i [lam_i]_t! telescopes to 1.

    Checked with denominators cleared: sum_lam t^{w - e_stat(lam)} c_lam
    times the t-multinomial [n]_t! / prod_i [lam_i]_t! must equal [n]_t!.
    """
    for nn in range(1, n + 1):
        nfact = t_factorial(nn)
        for e in enumerate_eseqs(nn):
            w = eseq_weight(e)
            total = ZERO
            for lam, c in c_lambda(e).coeffs.items():
                multinomial = nfact
                for p in lam:
                    multinomial = multinomial / t_factorial(p)
                total = total + qt_monomial(1, 0, w - e_stat(lam)) * c * multinomial
            yield "%s" % (e,), _diff(total, nfact)


def _pieri_sides(r, m):
    """The sides (what, lhs, rhs) of the rank-one Pieri rule at m variables.

    For each 1 <= a <= m the partial sum of the operator words
    T_{a-1}...T_1 Pi applied to e_r, against its two-sum closed form in
    split elementary polynomials; then star(e_1, e_r), the sum at a = m,
    against its closed form.  Needs m >= max(r, 1): with fewer variables
    e_r is zero and every side vanishes.
    """
    er = e_range(r, 1, m, m)
    qinv = qt_monomial(1, -1, 0)
    one_m_qinv = ONE - qinv
    word = apply_pi(er)
    total = word
    for a in range(1, m + 1):
        rhs = XPoly.zero(m)
        for k in range(1, a + 1):
            rhs = rhs + e_range(k, 1, a, m) * e_range(r - k + 1, a + 1, m, m) * t_int(k)
        rhs = rhs * one_m_qinv
        inner = XPoly.zero(m)
        for k in range(0, a + 1):
            inner = inner + e_range(k, 1, a, m) * e_range(r - k, a + 1, m, m)
        yield "partial sum a=%d" % a, total, rhs + e_range(1, 1, a, m) * inner * qinv
        if a < m:
            word = apply_T(a, word)
            total = total + word
    e1 = e_range(1, 1, m, m)
    yield ("star(e_1, e_r)", star(e1, er),
           e_range(r + 1, 1, m, m) * (one_m_qinv * t_int(r + 1)) + e1 * er * qinv)


@_suite("pieri")
def suite_pieri(r=5):
    for rr in range(0, r + 1):
        m = 2 * rr + 2
        case, bad = "r=%d m=%d" % (rr, m), None
        for what, lhs, rhs in _pieri_sides(rr, m):
            bad = _diff(lhs, rhs)
            if bad:
                case += " " + what
                break
        yield case, bad


@_suite("mult")
def suite_mult(n=4, m=None):
    if m is None:
        m = max(n, 2)
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
    with n <= min(4, r, m), each at the faithfulness bound m' = max(n, 2).
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
        mm = max(nn, 2)
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
