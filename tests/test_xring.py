"""Tests for the X-variable Laurent polynomial ring."""

import itertools
import random

import pytest

from qtchroma.qt import QTCoeff, ONE, from_int, qt_monomial
from qtchroma.xring import (XPoly, XError, truncate, is_symmetric,
                            assert_integral, render_xpoly, _distinct_perms,
                            _asymmetry, _positive_q_power)


def rand_xpoly(rng, m, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-1, deg) for _ in range(m))
        terms[e] = qt_monomial(rng.randint(-3, 3), rng.randint(-1, 1),
                               rng.randint(-1, 1))
    return XPoly(m, terms)


def test_constructor_prunes_zeros():
    f = XPoly(2, {(1, 0): 0, (0, 1): 3})
    assert list(f.terms) == [(0, 1)]
    assert f.terms[(0, 1)] == from_int(3)


def test_constructor_rejects_bad_exponent_length():
    with pytest.raises(XError):
        XPoly(3, {(1, 0): 1})
    with pytest.raises(XError):
        XPoly(0)


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 4)
        f, g, h = (rand_xpoly(rng, m) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f - f == XPoly.zero(m)
        assert f * XPoly.one(m) == f


def test_mixed_m_rejected():
    with pytest.raises(XError):
        XPoly.one(2) + XPoly.one(3)


def test_scalar_multiplication():
    f = XPoly(2, {(1, 0): 1, (0, 1): 1})
    assert f * 2 == XPoly(2, {(1, 0): 2, (0, 1): 2})
    assert 2 * f == f * 2
    assert f * 0 == XPoly.zero(2)
    t = qt_monomial(1, 0, 1)
    assert (f * t).terms[(1, 0)] == t


def test_degree_and_homogeneity():
    assert XPoly.zero(2).degree() is None
    f = XPoly(2, {(2, 1): 1})
    assert f.degree() == 3 and f.is_homogeneous()
    g = f + XPoly(2, {(1, 0): 1})
    assert not g.is_homogeneous()
    assert XPoly(2, {(-1, 0): 1}).is_polynomial() is False
    assert f.is_polynomial()


def test_truncate():
    f = XPoly(3, {(1, 1, 0): 1, (1, 0, 1): 2, (2, 0, 0): 3})
    assert truncate(f, 2) == XPoly(2, {(1, 1): 1, (2, 0): 3})
    with pytest.raises(XError):
        truncate(f, 3)
    with pytest.raises(XError):
        truncate(f, 0)
    with pytest.raises(XError):
        truncate(XPoly(2, {(0, -1): 1}), 1)


def test_swap_and_symmetry():
    f = XPoly(2, {(1, 0): 1, (0, 1): 1})
    assert is_symmetric(f)
    g = XPoly(2, {(1, 0): 1})
    assert not is_symmetric(g)
    assert _asymmetry(f) is None
    assert _asymmetry(g) == (1, 0)
    # symmetric with a nontrivial coefficient pattern
    t = qt_monomial(1, 0, 1)
    h = XPoly(2, {(2, 1): t, (1, 2): t})
    assert is_symmetric(h)
    h2 = XPoly(2, {(2, 1): t, (1, 2): ONE})
    assert not is_symmetric(h2)
    assert _asymmetry(h2) == (2, 1)
    # symmetric in a prefix only; equal coefficients need not be one object
    p = XPoly(3, {(2, 1, 0): t, (1, 2, 0): qt_monomial(1, 0, 1)})
    assert is_symmetric(p, 2)
    assert not is_symmetric(p)
    assert _asymmetry(p, 2) is None
    # X2 <-> X3 sends X1^2*X2 to X1^2*X3, which is absent
    assert _asymmetry(p) == (2, 1, 0)
    assert is_symmetric(XPoly(3, {(0, 1, 2): t}), 1)


def test_distinct_perms():
    for p in [(), (0,), (2, 0, 2), (1, 1, 1), (3, 1, 0, 1), (2, 1, 0, 0, 1)]:
        got = list(_distinct_perms(p))
        assert got == sorted(set(itertools.permutations(p))), p


def test_assert_integral():
    t = qt_monomial(1, 0, 1)
    f = XPoly(2, {(1, 0): t + 1, (0, 1): qt_monomial(1, -2, -1)})
    assert assert_integral(f)
    assert _positive_q_power(f) is None
    # positive powers of q are not allowed
    assert not assert_integral(XPoly(2, {(1, 0): qt_monomial(1, 1, 0)}))
    # nor in any one term of a sum
    c = ONE + qt_monomial(1, 1, -1)
    g = XPoly(2, {(1, 0): t, (0, 1): c})
    assert not assert_integral(g)
    assert _positive_q_power(g) == (0, 1)


def test_render():
    assert render_xpoly(XPoly.zero(2)) == "0"
    f = XPoly(2, {(1, 0): 1, (0, 1): 1})
    assert render_xpoly(f) == "X1 + X2"
    g = XPoly(2, {(2, 1): 1, (1, 2): -1})
    assert render_xpoly(g) == "X1^2*X2 - X1*X2^2"


def test_render_constant_terms():
    # a constant keeps its coefficient, 1 and -1 included, and joins by sign
    assert render_xpoly(XPoly.one(2)) == "1"
    q = qt_monomial(1, 1, 0)
    h = XPoly(2, {(0, 0): -1, (1, 0): -2, (0, -1): q + 1, (1, 1): -q})
    assert render_xpoly(h) == "-q*X1*X2 - 2*X1 - 1 + (1+q)*X2^-1"
    assert render_xpoly(XPoly(1, {(0,): -3, (2,): -1})) == "-X1^2 - 3"


def test_json_round_trip():
    # the written format: terms in ascending lex order of exponents, each
    # with its coefficient in QTCoeff's format
    q = qt_monomial(1, 1, 0)
    f = XPoly(2, {(0, -1): q + 1, (1, 1): -q, (0, 0): 0})
    assert f.to_json() == {"m": 2, "terms": [
        {"exp": [0, -1], "coeff": (q + 1).to_json()},
        {"exp": [1, 1], "coeff": (-q).to_json()}]}
    rng = random.Random(7)
    for _ in range(20):
        f = rand_xpoly(rng, rng.randint(1, 4))
        obj = f.to_json()
        assert obj["m"] == f.m
        assert [tuple(t["exp"]) for t in obj["terms"]] == sorted(f.terms)
        assert [t["coeff"] for t in obj["terms"]] == [
            f.terms[e].to_json() for e in sorted(f.terms)]
