"""Tests for partitions, elementary polynomials, and e-expansions."""

import random

import pytest

from qtchroma.qt import ONE, from_int, qt_monomial
from qtchroma.xring import XPoly, is_symmetric
from qtchroma.symfn import (SymFnError, partitions_of, conjugate, e_range,
                            e_poly, EExpansion, expand_in_e, apply_N, e_stat,
                            _e_table)
from qtchroma.graphs import enumerate_eseqs
from qtchroma.qtcsf import qt_csf


def expand_by_peeling(f):
    """Reference e-expansion: peel off full e_poly products.

    Under lex order the leading monomial of e_mu is X^{mu'}, so subtracting
    c * e_mu for the lex-leading exponent pattern of the remainder
    terminates without any division.  It reads every monomial of f.
    """
    assert is_symmetric(f)
    coeffs = {}
    rem = f
    while rem.terms:
        lead = max(tuple(sorted(e, reverse=True)) for e in rem.terms)
        c = rem.terms[lead]
        mu = conjugate(tuple(p for p in lead if p))
        assert mu not in coeffs
        coeffs[mu] = c
        rem = rem - e_poly(mu, f.m) * c
    return EExpansion(f.degree() if coeffs else 0, coeffs)


def dominates(a, b):
    """a >= b in dominance order (partitions of the same integer)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def test_partition_counts():
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]):
        assert len(partitions_of(n)) == count


def test_partition_order_and_validity():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    for lam in partitions_of(7):
        assert sum(lam) == 7
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    with pytest.raises(SymFnError):
        partitions_of(-1)


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    for lam in partitions_of(6):
        assert conjugate(conjugate(lam)) == lam


def test_e_range_values():
    # e_1(X_1..X_2) in three variables
    assert e_range(1, 1, 2, 3) == XPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert e_range(2, 2, 3, 3) == XPoly(3, {(0, 1, 1): 1})
    assert e_range(0, 1, 3, 3) == XPoly.one(3)
    assert e_range(0, 3, 2, 3) == XPoly.one(3)   # an empty range
    assert e_range(-1, 1, 3, 3) == XPoly.zero(3)
    assert e_range(3, 1, 2, 3) == XPoly.zero(3)  # too few variables


def test_e_poly():
    assert e_poly((), 2) == XPoly.one(2)
    assert e_poly((2,), 2) == XPoly(2, {(1, 1): 1})
    assert e_poly((1, 1), 2) == XPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert e_poly((3,), 2) == XPoly.zero(2)


def test_e_range_split_identity():
    # e_r(all) = sum_k e_k(front) e_{r-k}(back)
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(2, 6)
        a = rng.randint(1, m - 1)
        r = rng.randint(0, m)
        total = XPoly.zero(m)
        for k in range(r + 1):
            total = total + e_range(k, 1, a, m) * e_range(r - k, a + 1, m, m)
        assert total == e_range(r, 1, m, m)


def test_expand_in_e_round_trip():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 2)
        coeffs = {}
        for lam in partitions_of(n):
            if rng.random() < 0.5:
                coeffs[lam] = qt_monomial(rng.randint(-3, 3),
                                          rng.randint(-1, 1), rng.randint(0, 2))
        exp = EExpansion(n, coeffs)
        if not exp.coeffs:
            continue
        assert expand_in_e(exp.to_xpoly(m)) == exp


def test_to_xpoly_matches_e_poly_products():
    # m below n drops the e_lam with lam_1 > m and the monomials with more
    # than m parts; coefficients that cancel on a dominant monomial leave
    # its whole orbit out
    rng = random.Random(6)
    for n in range(0, 6):
        parts = partitions_of(n)
        for m in range(1, n + 3):
            coeffs = {lam: _random_coeff(rng) for lam in parts if rng.random() < 0.7}
            exp = EExpansion(n, coeffs)
            want = XPoly.zero(m)
            for lam, c in exp.coeffs.items():
                want = want + e_poly(lam, m) * c
            assert exp.to_xpoly(m).to_json() == want.to_json(), (n, m)
    # 2 e_2 - e_1^2 is -p_2: the X1*X2 orbit cancels
    exp = EExpansion(2, {(2,): 2, (1, 1): -1})
    assert exp.to_xpoly(3) == XPoly(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1})


def test_expand_in_e_known():
    # the square of e_1 in two variables
    f = e_poly((1,), 2) * e_poly((1,), 2)
    assert expand_in_e(f) == EExpansion(2, {(1, 1): 1})
    # power sum p_2 = e_1^2 - 2 e_2
    p2 = XPoly(2, {(2, 0): 1, (0, 2): 1})
    assert expand_in_e(p2) == EExpansion(2, {(1, 1): 1, (2,): -2})


def test_expand_in_e_errors():
    with pytest.raises(SymFnError):
        expand_in_e(XPoly(2, {(1, 0): 1}))  # not symmetric
    # right on every dominant monomial, not symmetric on X_2 X_3
    with pytest.raises(SymFnError, match="not symmetric"):
        expand_in_e(e_poly((1, 1), 3) + XPoly(3, {(0, 1, 1): 1}))
    with pytest.raises(SymFnError):
        expand_in_e(XPoly(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1}))  # inhomogeneous
    with pytest.raises(SymFnError):
        expand_in_e(e_poly((2, 1), 2))      # m < degree: not faithful
    with pytest.raises(SymFnError):
        expand_in_e(XPoly(2, {(-1, -1): 1}))


def _random_coeff(rng):
    """A sum of a few pieces: monomials with negative q-powers, multiples
    of the non-monomial u = 1 - t + q^-1 t^2, and pieces that cancel each
    other or divide exactly."""
    t = qt_monomial(1, 0, 1)
    u = ONE - t + qt_monomial(1, -1, 2)
    total = from_int(0)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            piece = qt_monomial(rng.choice((-2, -1, 1, 3)), rng.randint(-3, 1),
                                rng.randint(-1, 2))
        elif kind == 1:
            piece = u * qt_monomial(rng.choice((-1, 1)), rng.randint(-2, 0), 0)
        elif kind == 2:
            piece = qt_monomial(1, -1, 1) * u - u * qt_monomial(1, -1, 1)
        else:
            piece = (t * u - u) / (t - 1)   # exactly u
        total = total + piece
    return total


def test_expand_in_e_matches_peeling_on_random_expansions():
    rng = random.Random(5)
    for n in range(1, 7):
        parts = partitions_of(n)
        for m in (n, n + 1, n + 2):
            for _ in range(3 if n < 6 else 1):
                coeffs = {lam: _random_coeff(rng) for lam in parts
                          if rng.random() < 0.6}
                exp = EExpansion(n, coeffs)
                if not exp:
                    continue
                f = exp.to_xpoly(m)
                got = expand_in_e(f)
                assert got == exp
                assert got.to_json() == expand_by_peeling(f).to_json()


def test_expand_in_e_matches_peeling_on_cancelling_inputs():
    # power-sum products p_lam vanish on most dominant monomials, and
    # p_lam - e_lam cancels on some, so the solve meets zero dominant
    # coefficients next to nonzero e-coefficients
    for n in range(1, 6):
        for m in (n, n + 1):
            for lam in partitions_of(n):
                f = XPoly.one(m)
                for p in lam:
                    f = f * XPoly(m, {tuple(p if j == i else 0 for j in range(m)): 1
                                      for i in range(m)})
                g = f - e_poly(lam, m)
                for h in (f, g):
                    if not h.is_zero():
                        assert expand_in_e(h) == expand_by_peeling(h)


def test_expand_in_e_matches_peeling_on_qt_csf():
    for n in range(1, 6):
        for e in enumerate_eseqs(n):
            for m in sorted({max(n, 2), n + 1}):   # qt_csf needs m >= 2
                f = qt_csf(e, m)
                assert expand_in_e(f).to_json() == expand_by_peeling(f).to_json()


def test_e_table_entries():
    for n in range(7):
        parts = partitions_of(n)
        polys = {lam: e_poly(lam, n) for lam in parts}
        table = _e_table(n)
        assert [nu for nu, _, _ in table] == parts
        for nu, mu, entries in table:
            assert mu == conjugate(nu)
            row = dict(entries)
            assert len(row) == len(entries) and 0 not in row.values()
            assert row[mu] == 1
            pad = nu + (0,) * (n - len(nu))
            for lam in parts:
                want = polys[lam].terms.get(pad)
                assert row.get(lam, 0) == (0 if want is None else want)
                if not dominates(conjugate(lam), nu):
                    assert lam not in row
        assert _e_table(n) is table


def test_eexpansion_validation_and_pruning():
    with pytest.raises(SymFnError):
        EExpansion(3, {(2, 2): ONE})
    e = EExpansion(2, {(2,): 0, (1, 1): 5})
    assert list(e.coeffs) == [(1, 1)]


def test_eexpansion_items_order():
    e = EExpansion(3, {(1, 1, 1): 1, (3,): 1, (2, 1): 1})
    assert [lam for lam, _ in e.items()] == [(3,), (2, 1), (1, 1, 1)]


def test_eexpansion_str():
    t = qt_monomial(1, 0, 1)
    e = EExpansion(3, {(3,): t, (2, 1): -1})
    # ascending lex order, the CLI's; to_json keeps reverse-lex
    assert str(e) == "-e[2,1] + t*e[3]"
    assert str(EExpansion(0, {})) == "0"


def test_eexpansion_json_round_trip():
    # the written format: partitions in reverse lex order, each with its
    # coefficient in QTCoeff's format
    c = qt_monomial(3, -1, 2)
    e = EExpansion(4, {(2, 2): c, (4,): 1, (3, 1): 0})
    assert e.to_json() == {"n": 4, "coeffs": [
        {"partition": [4], "coeff": ONE.to_json()},
        {"partition": [2, 2], "coeff": c.to_json()}]}
    assert EExpansion(0, {}).to_json() == {"n": 0, "coeffs": []}


def test_apply_N():
    t = qt_monomial(1, 0, 1)
    e = EExpansion(4, {(3, 1): from_int(1), (2, 2): t})
    out = apply_N(e)
    assert out.coeffs[(3, 1)] == qt_monomial(1, 0, 3)
    assert out.coeffs[(2, 2)] == qt_monomial(1, 0, 3)  # t * t^{1+1}


def test_e_stat():
    assert e_stat(()) == 0
    assert e_stat((5,)) == 0
    assert e_stat((2, 1)) == 2
    assert e_stat((1, 1, 1)) == 3
    assert e_stat((3, 2, 1)) == 11
