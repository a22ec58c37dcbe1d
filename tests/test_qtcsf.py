"""Tests for the symmetrizer operators and the main polynomial builder."""

import itertools
import random

import pytest

from qtchroma.qt import (ONE, from_int, qt_monomial, t_int, t_factorial,
                         specialize_q1)
from qtchroma.xring import XPoly, XError, is_symmetric, assert_integral, truncate
from qtchroma.hecke import apply_T, apply_T_inv, apply_pi
from qtchroma.symfn import e_range, e_poly, expand_in_e, EExpansion, apply_N
from qtchroma.graphs import (enumerate_eseqs, modular_triples, complete_eseq,
                             graph_from_eseq, chromatic_qsf, check_eseq,
                             eseq_to_aseq)
from qtchroma.qtcsf import apply_hatS, qt_csf, c_lambda
from qtchroma.suites import suite_q1, suite_qinf, suite_dist

T = qt_monomial(1, 0, 1)
QINV = qt_monomial(1, -1, 0)


def rand_poly(rng, m, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(m))
        terms[e] = qt_monomial(rng.randint(-3, 3), 0, rng.randint(0, 1))
    return XPoly(m, terms)


# -- the second factorization (test oracle) ---------------------------------

def apply_S(i, e, f):
    """The partial symmetrizer with m+e-i+1 summands (T indices mod m).

    Zero when e < i-m, the identity when e = i-m.
    """
    m = f.m
    if e < i - m:
        return XPoly.zero(m)
    total = f
    g = f
    for j in range(i, m + e):
        g = apply_T_inv(j % m, g)
        total = total + g
    return total


def qt_csf_via_s(eseq, m):
    """qt_csf through the other operator factorization (S then Pi^n)."""
    eseq = check_eseq(eseq)
    if m < 2:
        raise XError("need m >= 2 variables")
    n = len(eseq)
    f = XPoly.one(m)
    for _ in range(n):
        f = apply_pi(f)
    for i in range(n, 0, -1):
        f = apply_S(i, eseq[i - 1], f)
        if f.is_zero():
            return f
    return f * qt_monomial(1, 0, n * (m - 1))


# -- partial symmetrizers ---------------------------------------------------

def test_apply_S_degenerate_cases():
    f = XPoly(3, {(1, 0, 2): 1})
    assert apply_S(2, 2 - 3, f) == f          # single summand: identity
    assert apply_S(2, -2, f) == XPoly.zero(3)  # below the cutoff: zero


def test_apply_hatS_bounds():
    f = XPoly.one(3)
    assert apply_hatS(-1, f) == XPoly.zero(3)
    with pytest.raises(XError):
        apply_hatS(3, f)
    # index 0 is just the cyclic shift
    assert apply_hatS(0, f) == apply_pi(f)


def test_hatS_on_split_elementaries():
    # hatS_a e_r(X_1..X_b) expands as a t-weighted sum of split products
    for m in (3, 4, 5):
        for b in range(0, m):
            for a in range(0, b + 1):
                for r in range(0, b + 1):
                    f = e_range(r, 1, b, m)
                    lhs = apply_hatS(a, f)
                    rhs = XPoly.zero(m)
                    for k in range(a + 1):
                        rhs = rhs + (e_range(k + 1, 1, a + 1, m)
                                     * e_range(r - k, a + 2, b + 1, m)
                                     * t_int(k + 1))
                    assert lhs == rhs * qt_monomial(1, 0, -a), (m, b, a, r)


def test_hatS_output_symmetric_in_prefix():
    # the result of hatS_a is invariant in the first a+1 variables
    rng = random.Random(1)
    for _ in range(15):
        m = rng.randint(3, 5)
        a = rng.randint(1, m - 1)
        f = e_range(rng.randint(0, 2), a + 2, m, m)
        g = apply_hatS(a, f)
        for i in range(1, a + 1):
            assert apply_T(i, g) == g * T


def hatS_reference(a, f):
    # Pi f plus the chained T^{-1} sum, every monomial kept
    g = apply_pi(f)
    total = g
    for j in range(1, a + 1):
        g = apply_T_inv(j, g)
        total = total + g
    return total


def rand_coeff(rng):
    # monomials, sums, and binomials whose product with a t - 1 factor
    # merges or cancels terms
    return rng.choice([
        qt_monomial(rng.choice([-2, -1, 1, 3]), rng.randint(-1, 1),
                    rng.randint(-1, 2)),
        t_int(rng.randint(2, 3)) + QINV,
        rng.choice([T - 1, ONE + T]) * qt_monomial(rng.choice([-1, 1]),
                                                  rng.randint(-1, 0),
                                                  rng.randint(-1, 1)),
    ])


def prefix_symmetric_poly(rng, m, a, nterms):
    # each random monomial spread over every rearrangement of its first a
    # exponents; the small range gives plenty of repeated exponents
    terms = {}
    for _ in range(nterms):
        e = [rng.randint(-1, 2) for _ in range(m)]
        if rng.random() < 0.3:
            e[:a] = [e[0]] * a
        c = rand_coeff(rng)
        for head in set(itertools.permutations(e[:a])):
            terms[head + tuple(e[a:])] = c
    return XPoly(m, terms)


def test_hatS_matches_unpruned_reference_on_prefix_symmetric_input():
    rng = random.Random(11)
    for m in range(2, 6):
        for a in range(m):
            for _ in range(4):
                f = prefix_symmetric_poly(rng, m, a, rng.randint(1, 4))
                assert apply_hatS(a, f) == hatS_reference(a, f), (m, a, f)


def test_hatS_matches_unpruned_reference_on_arbitrary_input():
    rng = random.Random(12)
    for m in range(2, 6):
        for a in range(m):
            for _ in range(4):
                f = XPoly(m, {tuple(rng.randint(-1, 2) for _ in range(m)):
                              rand_coeff(rng) for _ in range(4)})
                assert apply_hatS(a, f) == hatS_reference(a, f), (m, a, f)


# -- the main builder --------------------------------------------------------

def test_qt_csf_needs_two_variables():
    with pytest.raises(XError):
        qt_csf((0,), 1)


def test_qt_csf_single_vertex():
    assert qt_csf((0,), 2) == XPoly(2, {(1, 0): 1, (0, 1): 1})
    assert qt_csf((0,), 3) == e_poly((1,), 3)


def test_qt_csf_frozen_small_values():
    # one edge on two vertices
    assert qt_csf((0, 0), 2) == XPoly(2, {(1, 1): T + T * T})
    # two isolated vertices: e_1^2 plus a q-correction on the square-free part
    got = qt_csf((0, 1), 2)
    want = XPoly(2, {(2, 0): QINV, (0, 2): QINV,
                     (1, 1): QINV - QINV * T + ONE + T})
    assert got == want
    # the three-vertex path at m = 2
    c = qt_monomial(1, -1, 2)
    assert qt_csf((0, 0, 1), 2) == XPoly(2, {(2, 1): c, (1, 2): c})


def test_qt_csf_three_vertex_path_closed_form():
    fac = (from_int(-1) + qt_monomial(1, 1, 0) + qt_monomial(1, 1, 1)) * t_int(3)
    for m in (2, 3, 4):
        want = (e_poly((2, 1), m) + e_poly((3,), m) * fac) * qt_monomial(1, -1, 2)
        assert qt_csf((0, 0, 1), m) == want


def test_qt_csf_complete_graphs():
    for n in (1, 2, 3, 4):
        for m in (2, 3, 4):
            want = e_poly((n,), m) * (t_factorial(n)
                                      * qt_monomial(1, 0, n * (n - 1) // 2))
            assert qt_csf(complete_eseq(n), m) == want


def test_two_factorizations_agree():
    for n in (1, 2, 3):
        for e in enumerate_eseqs(n):
            for m in (2, 3):
                assert qt_csf(e, m) == qt_csf_via_s(e, m)


def test_two_factorizations_agree_with_fewer_variables_than_vertices():
    # m < n sends some symmetrizer index below zero, where the result is 0
    for n in (3, 4, 5):
        for e in enumerate_eseqs(n):
            assert qt_csf(e, 2) == qt_csf_via_s(e, 2), e


def test_qt_csf_symmetric_and_integral():
    for e in enumerate_eseqs(3):
        f = qt_csf(e, 4)
        assert is_symmetric(f)
        assert assert_integral(f)


def test_stability():
    for e in enumerate_eseqs(3):
        assert truncate(qt_csf(e, 5), 3) == qt_csf(e, 3)
        assert truncate(qt_csf(e, 4), 2) == qt_csf(e, 2)
    with pytest.raises(XError):
        truncate(qt_csf((0,), 3), 3)


def test_q1_collapse():
    # at q = 1 the e-coordinates are the twisted coloring sum's at any
    # m >= n colours; suite_q1 reads them from c_lambda, at n colours
    for e in enumerate_eseqs(3):
        for m in (3, 4):
            f = qt_csf(e, m)
            f1 = XPoly(m, {x: specialize_q1(c) for x, c in f.terms.items()})
            oracle = expand_in_e(chromatic_qsf(graph_from_eseq(e), m))
            assert expand_in_e(f1) == apply_N(oracle) == apply_N(c_lambda(e)), e
    assert suite_q1(n=3, m=4).ok


def test_c_lambda_values():
    assert c_lambda((0,)) == EExpansion(1, {(1,): ONE})
    assert c_lambda((0, 0)) == EExpansion(2, {(2,): ONE + T})
    assert c_lambda((0, 1)) == EExpansion(2, {(1, 1): ONE})
    assert c_lambda((0, 0, 1)) == EExpansion(3, {(2, 1): T, (3,): t_int(3)})


# -- c_lambda: the coloring sum read at its dominant coefficients ----------

def test_c_lambda_is_the_expanded_coloring_sum():
    # the DP over ordered stable sets against the full coloring sum, live:
    # every graph with n <= 5, then a seeded sample past that range, 20 of
    # the 132 graphs with n = 6 and one with n = 7
    graphs = [e for n in range(1, 6) for e in enumerate_eseqs(n)]
    rng = random.Random(0)
    graphs += rng.sample(enumerate_eseqs(6), 20) + [rng.choice(enumerate_eseqs(7))]
    for e in graphs:
        want = expand_in_e(chromatic_qsf(graph_from_eseq(e), len(e)))
        assert c_lambda(e) == want, e


def test_c_lambda_of_the_roadmap_graph_is_the_pipeline_at_q1():
    e = (0, 0, 0, 1, 2, 3, 4, 5)
    exp = expand_in_e(qt_csf(e, 8))
    at_q1 = EExpansion(8, {lam: specialize_q1(c) for lam, c in exp.coeffs.items()})
    assert at_q1 == apply_N(c_lambda(e))


def test_c_lambda_invariants():
    # e-positivity (Stanley-Stembridge), palindromic coefficients
    # t^|E| c(1/t) = c(t), and no e_lam with lam_1 below the clique number,
    # which some lam reaches
    for n in range(1, 7):
        for e in enumerate_eseqs(n):
            edges = len(graph_from_eseq(e).edges)
            exp = c_lambda(e)
            for lam, c in exp.coeffs.items():
                assert all(qe == 0 and te >= 0 and v > 0
                           for (qe, te), v in c.terms.items()), (e, lam)
                assert {(0, edges - te): v
                        for (_qe, te), v in c.terms.items()} == c.terms, (e, lam)
            assert min(lam[0] for lam in exp.coeffs) == max(eseq_to_aseq(e)) + 1, e


def test_dist_identity():
    rep = suite_dist(n=4)
    assert rep.ok, rep.render()
    assert rep.cases == 1 + 2 + 5 + 14


def test_qinf_limit():
    for n in (1, 2, 3):
        rep = suite_qinf(n=n)
        assert rep.ok, rep.render()
        assert rep.cases == len(enumerate_eseqs(n))


def test_modular_law_small():
    for e, ep, epp, _tag in modular_triples(3):
        for m in (3, 4):
            lhs = qt_csf(e, m) * (T + 1)
            rhs = qt_csf(ep, m) * T + qt_csf(epp, m)
            assert lhs == rhs


def test_modular_law_oracle_side():
    for e, ep, epp, _tag in modular_triples(4):
        lhs = chromatic_qsf(graph_from_eseq(e), 4) * (T + 1)
        rhs = (chromatic_qsf(graph_from_eseq(ep), 4) * T
               + chromatic_qsf(graph_from_eseq(epp), 4))
        assert lhs == rhs


def test_second_symmetrizer_annihilation():
    # hatS_{a+1} hatS_a (1 - t T_{m-1}^{-1}) kills everything for a < m-1
    rng = random.Random(5)
    for _ in range(10):
        m = rng.randint(3, 4)
        a = rng.randint(0, m - 2)
        f = rand_poly(rng, m)
        g = f - apply_T_inv(m - 1, f) * T
        assert apply_hatS(a + 1, apply_hatS(a, g)) == XPoly.zero(m)


def test_symmetrizer_three_term_recurrence():
    # (1+t) hatS_a hatS_a F = t hatS_{a+1} hatS_a F + hatS_a hatS_{a-1} F
    # whenever F is symmetric in the last two variables
    rng = random.Random(6)
    for _ in range(10):
        m = rng.randint(3, 4)
        a = rng.randint(1, m - 2)
        f = rand_poly(rng, m)
        sym = f + XPoly(m, {e[:-2] + (e[-1], e[-2]): c
                            for e, c in f.terms.items()})
        inner = apply_hatS(a, sym)
        lhs = apply_hatS(a, inner) * (T + 1)
        rhs = apply_hatS(a + 1, inner) * T + apply_hatS(a, apply_hatS(a - 1, sym))
        assert lhs == rhs
