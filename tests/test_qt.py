"""Tests for exact arithmetic in Z[q^±1, t^±1]."""

import random

import pytest

from qtchroma.qt import (QTCoeff, QTError, ZERO, ONE, from_int, qt_monomial,
                         t_int, t_factorial, specialize_q1, limit_q_infinity,
                         render_coeff)


def rand_coeff(rng, nterms=3):
    return QTCoeff({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                    for _ in range(nterms)})


def to_sympy(c, q, t):
    return sum((v * q ** qe * t ** te for (qe, te), v in c.terms.items()), 0)


def test_self_division():
    one_minus_t = QTCoeff({(0, 0): 1, (0, 1): -1})
    assert one_minus_t / one_minus_t == ONE


def test_telescoping_division():
    num = QTCoeff({(0, 0): 1, (0, 2): -1})   # 1 - t^2
    den = QTCoeff({(0, 0): 1, (0, 1): -1})   # 1 - t
    assert num / den == QTCoeff({(0, 0): 1, (0, 1): 1})


def test_inverse_monomials():
    a = qt_monomial(1, -1, 2)
    b = qt_monomial(1, 1, -2)
    assert a * b == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_t_int_values():
    assert t_int(1) == ONE
    assert t_int(0) == ZERO
    assert t_int(3) == QTCoeff({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    # negative arguments follow the rational-function definition
    assert t_int(-2) == QTCoeff({(0, -2): -1, (0, -1): -1})
    one_minus_t = ONE - qt_monomial(1, 0, 1)
    for n in (-3, -1, 2, 5):
        assert t_int(n) * one_minus_t == ONE - qt_monomial(1, 0, n)


def test_t_factorial_values():
    assert t_factorial(0) == ONE
    assert t_factorial(2) == QTCoeff({(0, 0): 1, (0, 1): 1})
    assert t_factorial(3) == QTCoeff({(0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 1})
    with pytest.raises(ValueError):
        t_factorial(-1)


def test_t_int_addition_rule():
    rng = random.Random(11)
    tpow = lambda k: qt_monomial(1, 0, k)
    for _ in range(20):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        assert t_int(m + n) == t_int(m) + tpow(m) * t_int(n)


def test_specialize_q1():
    f = QTCoeff({(0, 0): -1, (1, 0): 1, (1, 1): 1})  # -1 + q + qt
    assert specialize_q1(f) == qt_monomial(1, 0, 1)
    assert specialize_q1(qt_monomial(1, -1, 2)) == qt_monomial(1, 0, 2)
    one_minus_qinv = ONE - qt_monomial(1, -1, 0)
    assert specialize_q1(one_minus_qinv) == ZERO


def test_limit_q_infinity():
    assert limit_q_infinity(ONE - qt_monomial(1, -1, 0)) == ONE
    assert limit_q_infinity(qt_monomial(1, -1, 2)) == ZERO
    f = QTCoeff({(0, 0): -1, (1, 0): 1, (1, 1): 1})
    assert limit_q_infinity(f / qt_monomial(1, 1, 0)) == QTCoeff({(0, 0): 1, (0, 1): 1})
    with pytest.raises(QTError):
        limit_q_infinity(qt_monomial(1, 1, 0))


def test_ring_axioms_against_sympy():
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    rng = random.Random(0)

    def agrees(c, expr):
        return sympy.cancel(to_sympy(c, q, t) - expr) == 0

    def divides(sa, sb):
        # sa / sb is a Laurent polynomial over Z iff, times a large enough
        # monomial, it is a polynomial with integer coefficients
        try:
            p = sympy.Poly(sympy.cancel(sa / sb * (q * t) ** 20), q, t)
        except sympy.PolynomialError:
            return False
        return all(k.is_integer for k in p.coeffs())

    exact = inexact = 0
    for _ in range(60):
        a, b, c = (rand_coeff(rng, rng.randint(1, 4)) for _ in range(3))
        sa, sb = to_sympy(a, q, t), to_sympy(b, q, t)
        assert agrees(a + b, sa + sb)
        assert agrees(a - b, sa - sb)
        assert agrees(a * b, sa * sb)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        if b:
            assert (a * b) / b == a
            if divides(sa, sb):
                exact += 1
                assert agrees(a / b, sa / sb)
            else:
                inexact += 1
                with pytest.raises(QTError):
                    a / b
    assert exact and inexact


def test_inexact_division_and_non_units_raise():
    t = qt_monomial(1, 0, 1)
    with pytest.raises(QTError):
        ONE / (ONE - t)
    with pytest.raises(QTError):
        qt_monomial(3, 1, 0) / qt_monomial(2, 0, 1)
    with pytest.raises(QTError):
        (ONE + t + t * t) / (ONE + t)
    with pytest.raises(QTError):
        (ONE - t).inverse()
    with pytest.raises(QTError):
        from_int(2).inverse()
    assert qt_monomial(-1, 2, -1).inverse() == qt_monomial(-1, -2, 1)
    # the constructor QTCoeff(num, den) divides exactly, or raises
    with pytest.raises(QTError):
        QTCoeff({(0, 0): 1}, {(0, 0): 1, (0, 1): -1})
    one_minus_t = QTCoeff({(0, 0): 1, (0, 2): -1}, {(0, 0): 1, (0, 1): 1})
    assert one_minus_t == ONE - t


def test_equal_values_identical_normal_form():
    # (1 - t^2)/(1 + t) + t must collapse to the constant 1
    t = qt_monomial(1, 0, 1)
    assert (ONE - t * t) / (ONE + t) + t == ONE
    # the same value through different quotients
    x = QTCoeff({(0, 0): 2, (0, 1): 2}, {(0, 0): 2})
    y = QTCoeff({(0, 1): 1, (0, 2): 1}, {(0, 1): 1})
    assert x == y == ONE + t


def test_specializations_are_homomorphisms():
    rng = random.Random(5)
    for _ in range(30):
        a, b = rand_coeff(rng), rand_coeff(rng)
        sa, sb = specialize_q1(a), specialize_q1(b)
        assert specialize_q1(a * b) == sa * sb
        assert specialize_q1(a + b) == sa + sb


def test_json_round_trip():
    # the written format: [value, qexp, texp] triples sorted by (qexp, texp),
    # over the denominator 1
    assert (ONE + qt_monomial(3, -1, 2) - qt_monomial(1, 0, -1)).to_json() == {
        "num": [[3, -1, 2], [-1, 0, -1], [1, 0, 0]], "den": [[1, 0, 0]]}
    assert ZERO.to_json() == {"num": [], "den": [[1, 0, 0]]}
    rng = random.Random(9)
    for _ in range(40):
        a = rand_coeff(rng)
        obj = a.to_json()
        # the triples read back as the value's terms
        assert [(qe, te) for _v, qe, te in obj["num"]] == sorted(a.terms)
        assert {(qe, te): v for v, qe, te in obj["num"]} == a.terms
        # the fraction view a/1 that the JSON "den" field also shows
        assert obj["den"] == [[1, 0, 0]]
        assert a.num is a and a.den == ONE
        assert QTCoeff(a.num, a.den) == a


def test_rendering():
    assert render_coeff(ZERO) == "0"
    assert render_coeff(qt_monomial(1, -1, 2)) == "q^-1*t^2"
    assert render_coeff(ONE + qt_monomial(1, 0, 1)) == "(1+t)"
