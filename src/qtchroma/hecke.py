"""The level-one action of the affine Hecke algebra of GL_m on XPoly.

Generators: Hecke operators T_i and their inverses (i taken mod m), the
cyclic operator Pi and its inverse, and the commuting family Y_1..Y_m.  All act exactly; T_i for 1 <= i <= m-1 uses
closed monomial formulas so no polynomial division ever happens, and
T_0 is the conjugate Pi T_{m-1} Pi^{-1}.
"""

from __future__ import annotations

from .qt import QTCoeff, qt_monomial
from .xring import XPoly

_T = qt_monomial(1, 0, 1)          # t
_TINV = qt_monomial(1, 0, -1)      # t^-1


class HeckeError(ValueError):
    """Raised for bad operator indices, and for T_i at m = 1."""


def _acc(out, e, c):
    s = out.get(e)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


def _times_tdiff(c, hi, lo):
    """c * (t^hi - t^lo), as two shifts and a subtract."""
    n = c.terms
    out = {(qe, te + hi): v for (qe, te), v in n.items()}
    for (qe, te), v in n.items():
        k = (qe, te + lo)
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            del out[k]
    return QTCoeff._raw(out)


def _t_pair(out, i, e, c, k, l):
    """Accumulate T_i applied to one monomial with X_i^k X_{i+1}^l."""
    base = e[:i - 1]
    rest = e[i + 1:]
    if l >= k:
        _acc(out, base + (l, k) + rest, c * _T)
        if l > k:
            d = _times_tdiff(c, 1, 0)
            for a in range(k, l):
                _acc(out, base + (a, k + l - a) + rest, d)
    else:
        _acc(out, base + (l, k) + rest, c)
        if k > l + 1:
            d = _times_tdiff(c, 0, 1)
            for a in range(l + 1, k):
                _acc(out, base + (a, k + l - a) + rest, d)


def _t_pair_inv(out, i, e, c, k, l):
    """Accumulate T_i^{-1} applied to one monomial with X_i^k X_{i+1}^l."""
    base = e[:i - 1]
    rest = e[i + 1:]
    if l > k:
        _acc(out, base + (l, k) + rest, c)
        if l > k + 1:
            d = _times_tdiff(c, 0, -1)
            for a in range(k + 1, l):
                _acc(out, base + (a, k + l - a) + rest, d)
    else:
        _acc(out, base + (l, k) + rest, c * _TINV)
        if k > l:
            d = _times_tdiff(c, -1, 0)
            for a in range(l + 1, k + 1):
                _acc(out, base + (a, k + l - a) + rest, d)


def _apply_generator(kernel, i, f):
    """Accumulate kernel (_t_pair or _t_pair_inv) over the monomials of f,
    for the index i mod m; T_0 is the conjugate Pi T_{m-1} Pi^{-1}."""
    m = f.m
    if m < 2:
        raise HeckeError("T_%d needs at least 2 variables, got m=%d" % (i, m))
    i %= m
    if i == 0:
        return apply_pi(_apply_generator(kernel, m - 1, apply_pi_inv(f)))
    out = {}
    for e, c in f.terms.items():
        kernel(out, i, e, c, e[i - 1], e[i])
    return XPoly._raw(m, out)


def apply_T(i, f):
    """The Hecke generator T_i (index mod m)."""
    return _apply_generator(_t_pair, i, f)


def apply_T_inv(i, f):
    """The inverse Hecke generator T_i^{-1} (index mod m)."""
    return _apply_generator(_t_pair_inv, i, f)


def apply_pi(f):
    """Pi: F(X_1,...,X_m) -> X_1 F(X_2,...,X_m, X_{m+1})."""
    m = f.m
    out = {}
    for e, c in f.terms.items():
        am = e[-1]
        ep = (1 + am,) + e[:-1]
        _acc(out, ep, c if am == 0 else c * qt_monomial(1, -am, 0))
    return XPoly._raw(m, out)


def apply_pi_inv(f):
    """The inverse of Pi."""
    m = f.m
    out = {}
    for e, c in f.terms.items():
        b1 = e[0]
        ep = e[1:] + (b1 - 1,)
        qe = b1 - 1
        _acc(out, ep, c if qe == 0 else c * qt_monomial(1, qe, 0))
    return XPoly._raw(m, out)


def apply_Y(i, f):
    """Y_i = t^{m-i} T_{i-1}...T_1 Pi T_{m-1}^{-1}...T_i^{-1}."""
    m = f.m
    if not 1 <= i <= m:
        raise HeckeError("Y index %d out of range 1..%d" % (i, m))
    g = f
    for j in range(i, m):
        g = apply_T_inv(j, g)
    g = apply_pi(g)
    for j in range(1, i):
        g = apply_T(j, g)
    if i != m:
        g = g * qt_monomial(1, 0, m - i)
    return g
