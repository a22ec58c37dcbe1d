"""Tests for the operator transport map, its inverse, and the quantum
product."""

import random

import pytest

from qtchroma.qt import ONE, qt_monomial, t_int, t_factorial
from qtchroma.xring import XPoly, XError
from qtchroma.symfn import partitions_of, e_poly, e_range, expand_in_e, EExpansion
from qtchroma.graphs import enumerate_eseqs, concat, eseq_of_partition
from qtchroma.qtcsf import qt_csf, c_lambda
from qtchroma import qmapstar
from qtchroma.qmapstar import (QMapError, q_map, q_map_e, q_map_inv_sym, star,
                               qt_elementary, apply_e_r_Y)
from qtchroma.suites import suite_pieri, _pieri_sides

T = qt_monomial(1, 0, 1)


def apply_ypoly_sym(coords, g):
    """Apply sum_lam c_lam e_lam(Y) to g, given e-coordinates."""
    out = XPoly.zero(g.m)
    for lam, c in coords.coeffs.items():
        h = g
        for part in lam:
            h = apply_e_r_Y(part, h)
        out = out + h * c
    return out


def star_by_y_operators(f, g):
    """Reference quantum product: pull f back to a symmetric Y-polynomial
    and apply it to g as an operator."""
    return apply_ypoly_sym(q_map_inv_sym(f), g)


def _random_monomial(rng):
    return qt_monomial(rng.choice((-2, -1, 1, 3)), rng.randint(-3, 1),
                       rng.randint(-1, 2))


def _random_coeff(rng):
    """A sum of a few pieces: monomials with negative q-powers, multiples
    of the non-monomial u = 1 - t + q^-1 t^2, and pieces that cancel each
    other or divide exactly."""
    u = ONE - T + qt_monomial(1, -1, 2)
    total = qt_monomial(0)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            piece = _random_monomial(rng)
        elif kind == 1:
            piece = u * qt_monomial(rng.choice((-1, 1)), rng.randint(-2, 0), 0)
        elif kind == 2:
            piece = qt_monomial(1, -1, 1) * u - u * qt_monomial(1, -1, 1)
        else:
            piece = (T * u - u) / (T - 1)   # exactly u
        total = total + piece
    return total


def var(i, m):
    """The variable X_i, 1 <= i <= m."""
    return XPoly(m, {tuple(int(j == i) for j in range(1, m + 1)): 1})


def _random_symmetric(rng, d, m, coeff=_random_coeff):
    """A nonzero symmetric homogeneous polynomial of degree d in m variables."""
    while True:
        exp = EExpansion(d, {lam: coeff(rng) for lam in partitions_of(d)
                             if rng.random() < 0.7})
        f = exp.to_xpoly(m)
        if f:
            return f


def test_q_map_constant_and_linear():
    assert q_map(XPoly.one(3)) == XPoly.one(3)
    # each Y variable evaluates to the matching X variable on 1
    for m in (2, 3, 4):
        assert q_map(e_poly((1,), m)) == e_poly((1,), m)
        for i in range(1, m + 1):
            assert q_map(var(i, m)) == var(i, m)


def test_q_map_rejects_laurent_input():
    with pytest.raises(QMapError):
        q_map(XPoly(2, {(-1, 0): 1}))


def test_q_map_elementaries_closed_form():
    for m in (2, 3, 4, 5):
        for r in range(1, m + 1):
            want = e_poly((r,), m) * qt_monomial(1, 0, r * (r - 1) // 2)
            assert q_map_e((r,), m) == want


def test_q_map_e_matches_q_map_of_e_poly():
    # every partition of weight <= 4, including parts larger than m
    for m in range(1, 9):
        for d in range(5):
            for lam in partitions_of(d):
                want = q_map(e_poly(lam, m))
                assert q_map_e(lam, m).to_json() == want.to_json(), (lam, m)


def _e_image_by_y_operators(m, lam, memo):
    """e_lam(Y) . 1 by the Y-operator chain: e_{lam_1}(Y) applied to the
    image of (lam_2, lam_3, ...), each suffix image computed once."""
    if not lam:
        return XPoly.one(m)
    img = memo.get(lam)
    if img is None:
        img = memo[lam] = apply_e_r_Y(lam[0],
                                      _e_image_by_y_operators(m, lam[1:], memo))
    return img


def test_q_map_e_matches_y_operator_chain():
    # the symmetrizer route of q_map_e against the Y-operator chain, on
    # every (lam, m) a test, suite or benchmark workload uses
    cases = [(m, d) for m in range(1, 11) for d in range(5)] + [(10, 5)]
    memos = {}
    for m, d in cases:
        memo = memos.setdefault(m, {})
        for lam in partitions_of(d):
            want = _e_image_by_y_operators(m, lam, memo).to_json()
            assert q_map_e(lam, m).to_json() == want, (lam, m)


def test_q_map_e_rejects_non_partitions():
    for lam in [(1, 2), (2, 0), (0,), (-1,)]:
        with pytest.raises(QMapError):
            q_map_e(lam, 4)


def test_q_map_is_linear():
    rng = random.Random(1)
    for _ in range(10):
        m = rng.randint(2, 4)
        f = XPoly(m, {tuple(rng.randint(0, 2) for _ in range(m)):
                      rng.randint(-3, 3) for _ in range(3)})
        g = XPoly(m, {tuple(rng.randint(0, 2) for _ in range(m)):
                      rng.randint(-3, 3) for _ in range(3)})
        assert q_map(f + g) == q_map(f) + q_map(g)
        assert q_map(f * 3) == q_map(f) * 3


def test_apply_e_r_Y_edge_cases():
    g = XPoly.one(3)
    assert apply_e_r_Y(0, g) == g
    assert apply_e_r_Y(4, g) == XPoly.zero(3)
    assert apply_e_r_Y(-1, g) == XPoly.zero(3)
    # applying e_r(Y) to 1 is the transported elementary
    for m in (3, 4):
        for r in (1, 2, 3):
            assert apply_e_r_Y(r, XPoly.one(m)) == q_map_e((r,), m)


def test_q_map_inv_sym_round_trips():
    rng = random.Random(2)
    for _ in range(12):
        d = rng.randint(1, 3)
        m = 2 * d + rng.randint(0, 1)
        coeffs = {lam: qt_monomial(rng.randint(-2, 2), rng.randint(-1, 0),
                                   rng.randint(0, 1))
                  for lam in partitions_of(d) if rng.random() < 0.7}
        want = EExpansion(d, coeffs)
        if not want.coeffs:
            continue
        f = XPoly.zero(m)
        for lam, c in want.coeffs.items():
            f = f + q_map_e(lam, m) * c
        assert q_map_inv_sym(f) == want


def test_q_map_inv_sym_round_trips_every_degree_at_one_m():
    # one m, several degrees: each degree has its own transported table
    rng = random.Random(4)
    m = 8
    for d in (4, 1, 3, 2, 4, 1):
        want = EExpansion(d, {lam: _random_coeff(rng) for lam in partitions_of(d)})
        if not want:
            continue
        f = XPoly.zero(m)
        for lam, c in want.coeffs.items():
            f = f + q_map_e(lam, m) * c
        assert q_map_inv_sym(f).to_json() == want.to_json()


def test_transported_elementaries_are_triangular():
    # the evidence back substitution rests on: the column of lam holds only
    # e_mu with mu >= lam (lex), and its e_lam coefficient is the monomial
    # t^{sum binom(lam_i, 2)} q^{-n(lam)}, n(lam) = sum (i-1) lam_i
    # every column with |lam| <= 6 at m = |lam|, where the columns are
    # built, and the lower degrees at the m >= 2|lam| the solves use
    cases = [(d, m) for d in range(1, 5) for m in range(2 * d, 2 * d + 3)]
    cases += [(5, 10)] + [(d, max(d, 2)) for d in range(1, 7)]
    for d, m in cases:
        for lam in partitions_of(d):
            coeffs = expand_in_e(q_map_e(lam, m)).coeffs
            assert all(mu >= lam for mu in coeffs), (lam, m)
            te = sum(p * (p - 1) // 2 for p in lam)
            qe = -sum(i * p for i, p in enumerate(lam))
            assert coeffs[lam] == qt_monomial(1, qe, te), (lam, m)


def test_q_map_e_is_the_lifted_kernel_function():
    # the column built once at m = |lam| and lifted by to_xpoly against the
    # direct pipeline at each m: qt_csf of K_lam over prod_i [lam_i]_t!
    cases = [(d, m) for d in range(1, 6) for m in range(2, 2 * d + 3)]
    for d, m in cases + [(6, 7), (6, 8)]:
        for lam in partitions_of(d):
            scale = ONE
            for p in lam:
                scale = scale * t_factorial(p)
            # orbit members share one coefficient object: divide each once
            quotients = {}
            want = {}
            for e, c in qt_csf(eseq_of_partition(lam), m).terms.items():
                x = quotients.get(id(c))
                if x is None:
                    x = quotients[id(c)] = c / scale
                want[e] = x
            want = XPoly(m, want)
            assert q_map_e(lam, m).to_json() == want.to_json(), (lam, m)


@pytest.fixture
def cold_columns():
    qmapstar._column.cache_clear()
    yield
    qmapstar._column.cache_clear()


def test_q_map_inv_sym_builds_only_reached_columns(cold_columns):
    out = q_map_inv_sym(e_poly((5,), 12))
    assert qmapstar._column.cache_info().misses == 1
    assert out.to_json() == EExpansion(5, {(5,): qt_monomial(1, 0, -10)}).to_json()


def test_q_map_inv_sym_rejects_non_triangular_images(monkeypatch, cold_columns):
    f = e_poly((2,), 4)
    # a monomial diagonal, but e_{1,1} sits below (2,) in lex order
    monkeypatch.setattr(qmapstar, "_e_image",
                        lambda lam: {lam: ONE, (1,) * sum(lam): ONE})
    with pytest.raises(QMapError, match="not triangular"):
        q_map_inv_sym(f)
    # a diagonal entry 1 + t is not a monomial
    monkeypatch.setattr(qmapstar, "_e_image", lambda lam: {lam: T + 1})
    with pytest.raises(QMapError, match="not triangular"):
        q_map_inv_sym(f)


def test_q_map_inv_sym_degree_zero():
    f = XPoly(3, {(0, 0, 0): 5})
    out = q_map_inv_sym(f)
    assert out.coeffs == {(): qt_monomial(5)}
    assert q_map_inv_sym(XPoly.zero(3)) == EExpansion(0, {})
    # a constant goes through the column of the empty partition
    assert q_map_inv_sym(XPoly(3, {(0, 0, 0): 3})) == EExpansion(0, {(): 3})


FAITHFUL_2_AT_1 = ("need at least 2 variables for a faithful degree-2 "
                   "e-expansion, got m=1")


def test_q_map_inv_sym_preconditions():
    with pytest.raises(QMapError, match=FAITHFUL_2_AT_1):
        q_map_inv_sym(e_poly((1, 1), 1))          # X1^2: m < degree
    with pytest.raises(QMapError):
        q_map_inv_sym(XPoly(4, {(1, 0, 0, 0): 1}))  # not symmetric
    with pytest.raises(QMapError):
        q_map_inv_sym(e_poly((1,), 4) + e_poly((1, 1), 4))  # inhomogeneous


def test_star_commutative_small():
    m = 8
    a = e_poly((2,), m)
    b = e_poly((1, 1), m)
    assert star(a, b) == star(b, a)


def test_star_associative_small():
    m = 6
    e1 = e_poly((1,), m)
    assert star(star(e1, e1), e1) == star(e1, star(e1, e1))


def test_star_identity_element():
    m = 4
    f = e_poly((2,), m)
    assert star(XPoly.one(m), f) == f
    assert star(f, XPoly.one(m)) == f
    assert star(XPoly.zero(m), f) == XPoly.zero(m)
    assert star(f, XPoly.zero(m)) == XPoly.zero(m)


def test_star_headroom_check():
    # each input needs m >= its degree, and no more: the product may
    # exceed m in degree
    x1, x1sq = e_poly((1,), 1), e_poly((1, 1), 1)
    for f, g in ((x1sq, x1), (x1, x1sq)):
        with pytest.raises(QMapError, match=FAITHFUL_2_AT_1):
            star(f, g)
    assert star(x1, x1) == qt_elementary((1, 1), 1)


def test_star_matches_y_operator_oracle():
    # star is commutative, so the oracle applies the lower-degree factor
    # as a Y-operator and both argument orders are compared with it; a
    # constant factor is covered by the identity tests.  m runs from the
    # faithfulness bound max(df, dg) to 2(df + dg) + 1
    rng = random.Random(7)
    for df in (1, 2):
        for dg in range(df, 5 - df):
            for m in range(max(df, dg), 2 * (df + dg) + 2):
                f = _random_symmetric(rng, df, m)
                g = _random_symmetric(rng, dg, m, _random_monomial)
                want = star_by_y_operators(f, g).to_json()
                assert star(f, g).to_json() == want, (df, dg, m)
                assert star(g, f).to_json() == want, (dg, df, m)


def test_star_with_cancelling_orbits():
    # h has no X1*X2*X3 term, while both of its transported coordinates
    # e_3(Y).1 and e_{2,1}(Y).1 have one, so their contributions cancel there
    m = 6
    h = e_poly((2, 1), m) - e_poly((3,), m) * 3
    assert (0, 0, 0, 1, 1, 1) not in h.terms
    assert set(q_map_inv_sym(h).coeffs) == {(3,), (2, 1)}
    assert star(XPoly.one(m), h).to_json() == h.to_json()
    assert star(h, XPoly.one(m)).to_json() == h.to_json()


def test_star_rejects_non_symmetric_or_inhomogeneous_g():
    m = 6
    f = e_poly((1,), m)
    with pytest.raises(QMapError):
        star(f, var(1, m))                      # not symmetric
    with pytest.raises(QMapError):
        star(f, e_poly((1,), m) + e_poly((2,), m))         # inhomogeneous
    with pytest.raises(QMapError):
        star(var(1, m), f)                      # f not symmetric


def test_star_multiplicative_on_disjoint_graphs():
    # every product with n1 + n2 <= 4, from the faithfulness bound of the
    # larger input up to twice the product's degree
    for n1 in range(1, 4):
        for n2 in range(1, 5 - n1):
            for m in range(max(n1, n2, 2), 2 * (n1 + n2) + 1):
                for e1 in enumerate_eseqs(n1):
                    for e2 in enumerate_eseqs(n2):
                        lhs = qt_csf(concat(e1, e2), m)
                        rhs = star(qt_csf(e1, m), qt_csf(e2, m))
                        assert lhs.to_json() == rhs.to_json(), (e1, e2, m)


def test_pieri_rule():
    # e_1 * e_r = (1 - q^{-1}) [r+1]_t e_{r+1} + q^{-1} e_1 e_r
    qinv = qt_monomial(1, -1, 0)
    for r in (0, 1, 2):
        m = 2 * r + 2
        e1, er = e_range(1, 1, m, m), e_range(r, 1, m, m)
        want = (e_range(r + 1, 1, m, m) * ((qt_monomial(1) - qinv) * t_int(r + 1))
                + e1 * er * qinv)
        assert star(e1, er) == want, r
    report = suite_pieri(r=2)
    assert report.ok, report.render()
    assert report.cases == 3


def test_pieri_rule_from_the_faithfulness_bound():
    # every m from max(r, 1), where e_r stops vanishing, to 2r + 1, below
    # the m = 2r + 2 that suite_pieri runs
    for r in range(6):
        for m in range(max(r, 1), 2 * r + 2):
            for what, lhs, rhs in _pieri_sides(r, m):
                assert lhs == rhs, (r, m, what)


def test_qt_elementary_single_part():
    for r in (1, 2):
        m = 2 * r
        assert qt_elementary((r,), m) == e_poly((r,), m)


def test_qt_elementary_column():
    # (1,1): e_1 star e_1
    m = 4
    want = (e_range(2, 1, m, m) * ((qt_monomial(1) - qt_monomial(1, -1, 0)) * t_int(2))
            + e_range(1, 1, m, m) * e_range(1, 1, m, m) * qt_monomial(1, -1, 0))
    assert qt_elementary((1, 1), m) == want


def test_qt_elementary_matches_iterated_y_operator_product():
    # the rescaled transported e_lam against the iterated product, each
    # factor applied by the Y-operator oracle
    # at every m from 1, including those below the weight
    for n in range(0, 4):
        for m in range(1, max(2 * n, 1) + 1):
            for lam in partitions_of(n):
                out = XPoly.one(m)
                for part in reversed(lam):
                    out = star_by_y_operators(e_range(part, 1, m, m), out)
                assert qt_elementary(lam, m).to_json() == out.to_json(), (lam, m)


def test_qt_elementary_headroom():
    # the columns lift to every m >= 1, and m <= 0 names no polynomial ring
    for m in (0, -1):
        with pytest.raises(XError, match="need at least one variable"):
            qt_elementary((1,), m)
        with pytest.raises(XError, match="need at least one variable"):
            q_map_e((), m)
        with pytest.raises(XError, match="need at least one variable"):
            EExpansion(0, {(): 1}).to_xpoly(m)
    assert q_map_e((), 1) == XPoly.one(1)


def test_qt_elementary_matches_graph_values():
    # the polynomial of a disjoint union of complete graphs
    from qtchroma.graphs import eseq_of_partition
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        n = sum(lam)
        m = 2 * n
        scale = ONE
        for p in lam:
            scale = scale * t_factorial(p) * qt_monomial(1, 0, p * (p - 1) // 2)
        assert qt_csf(eseq_of_partition(lam), m) == qt_elementary(lam, m) * scale


def test_round_trip_against_oracle_coefficients():
    # every graph with n <= 4 at every m from the faithfulness bound n
    # (qt_csf needs m >= 2) to 2n
    for n in (1, 2, 3, 4):
        for e in enumerate_eseqs(n):
            for m in range(max(n, 2), 2 * n + 1):
                assert q_map_inv_sym(qt_csf(e, m)) == c_lambda(e), (e, m)
