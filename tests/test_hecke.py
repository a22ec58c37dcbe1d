"""Tests for the operator action: Hecke generators, the cyclic shift, and
the commuting Y family."""

import random

import pytest

from qtchroma.qt import qt_monomial, from_int
from qtchroma.xring import XPoly
from qtchroma.hecke import (HeckeError, apply_T, apply_T_inv, apply_pi,
                            apply_pi_inv, apply_Y)

T = qt_monomial(1, 0, 1)


def rand_poly(rng, m, deg=3, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(m))
        terms[e] = qt_monomial(rng.randint(-3, 3), rng.randint(-1, 1),
                               rng.randint(-1, 1))
    return XPoly(m, terms)


def var(i, m):
    """The variable X_i, 1 <= i <= m."""
    return XPoly(m, {tuple(int(j == i) for j in range(1, m + 1)): 1})


# -- Hecke generators ------------------------------------------------------

def test_T_frozen_values():
    m = 2
    one = XPoly.one(m)
    x1 = var(1, m)
    x2 = var(2, m)
    assert apply_T(1, one) == one * T
    assert apply_T(1, x1) == x2
    assert apply_T(1, x2) == x1 * T + x2 * (T - 1)
    # degree 2: T_1 . X_1^2 = X_2^2 - (t-1) X_1 X_2
    assert apply_T(1, XPoly(m, {(2, 0): 1})) == XPoly(
        m, {(0, 2): from_int(1), (1, 1): from_int(1) - T})


def test_T_fixes_symmetric_pairs():
    # polynomials symmetric in X_i, X_{i+1} are t-eigenvectors
    m = 3
    f = XPoly(m, {(1, 0, 0): 1, (0, 1, 0): 1})
    assert apply_T(1, f) == f * T
    g = XPoly(m, {(1, 1, 0): 1})
    assert apply_T(1, g) == g * T


def test_T_inverse_is_inverse():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 5)
        f = rand_poly(rng, m)
        i = rng.randrange(m)
        assert apply_T_inv(i, apply_T(i, f)) == f
        assert apply_T(i, apply_T_inv(i, f)) == f


def test_quadratic_relation():
    rng = random.Random(4)
    for _ in range(30):
        m = rng.randint(2, 5)
        f = rand_poly(rng, m)
        i = rng.randrange(m)
        lhs = apply_T(i, apply_T(i, f))
        assert lhs == apply_T(i, f) * (T - 1) + f * T


def test_braid_relation():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(3, 5)
        f = rand_poly(rng, m)
        i = rng.randrange(m)
        j = (i + 1) % m
        lhs = apply_T(i, apply_T(j, apply_T(i, f)))
        rhs = apply_T(j, apply_T(i, apply_T(j, f)))
        assert lhs == rhs


def test_distant_generators_commute():
    rng = random.Random(6)
    for _ in range(20):
        m = rng.randint(4, 6)
        f = rand_poly(rng, m)
        i = rng.randrange(m)
        choices = [j for j in range(m)
                   if j not in (i, (i + 1) % m, (i - 1) % m)]
        j = rng.choice(choices)
        assert apply_T(i, apply_T(j, f)) == apply_T(j, apply_T(i, f))


def test_T_needs_two_variables():
    # at m = 1 there is no pair X_i, X_{i+1}; T_0 = Pi T_0 Pi^{-1} would
    # conjugate itself forever
    f = XPoly(1, {(1,): 1})
    for op in (apply_T, apply_T_inv):
        for i in (0, 1):
            with pytest.raises(HeckeError, match="at least 2 variables"):
                op(i, f)
    # Pi and Y_1 act on one variable
    assert apply_pi(f) == XPoly(1, {(2,): qt_monomial(1, -1, 0)})
    assert apply_Y(1, f) == apply_pi(f)


# -- cyclic shift ----------------------------------------------------------

def test_pi_frozen_values():
    m = 3
    assert apply_pi(XPoly.one(m)) == var(1, m)
    # the last variable wraps around with a q-twist
    x3 = var(3, m)
    assert apply_pi(x3) == XPoly(m, {(2, 0, 0): qt_monomial(1, -1, 0)})
    assert apply_pi(var(1, m)) == XPoly(m, {(1, 1, 0): 1})


def test_pi_inverse():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(2, 5)
        f = rand_poly(rng, m)
        assert apply_pi_inv(apply_pi(f)) == f
        assert apply_pi(apply_pi_inv(f)) == f


def test_pi_rotation_relation():
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randint(2, 5)
        f = rand_poly(rng, m)
        i = rng.randrange(m)
        assert apply_pi(apply_T(i, f)) == apply_T((i + 1) % m, apply_pi(f))


def test_pi_power_m_is_scalar_on_homogeneous():
    rng = random.Random(9)
    for _ in range(20):
        m = rng.randint(2, 4)
        d = rng.randint(0, 4)
        # one homogeneous monomial of degree d
        e = [0] * m
        for _ in range(d):
            e[rng.randrange(m)] += 1
        f = XPoly(m, {tuple(e): qt_monomial(1, 0, rng.randint(0, 2))})
        g = f
        for _ in range(m):
            g = apply_pi(g)
        prod = XPoly(m, {(1,) * m: qt_monomial(1, -d, 0)})
        assert g == f * prod


# -- the Y family ----------------------------------------------------------

def test_Y_on_one():
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            assert apply_Y(i, XPoly.one(m)) == var(i, m)


def test_Y_index_range():
    with pytest.raises(HeckeError):
        apply_Y(0, XPoly.one(3))
    with pytest.raises(HeckeError):
        apply_Y(4, XPoly.one(3))


def test_Y_commute():
    rng = random.Random(10)
    for _ in range(20):
        m = rng.randint(2, 4)
        f = rand_poly(rng, m)
        i, j = rng.randint(1, m), rng.randint(1, m)
        assert apply_Y(i, apply_Y(j, f)) == apply_Y(j, apply_Y(i, f))


def test_Y_product_is_pi_power():
    rng = random.Random(12)
    for m in (2, 3):
        f = rand_poly(rng, m)
        g = f
        for i in range(1, m + 1):
            g = apply_Y(i, g)
        h = f * qt_monomial(1, 0, m * (m - 1) // 2)
        for _ in range(m):
            h = apply_pi(h)
        assert g == h

