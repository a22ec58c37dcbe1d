"""The Y-to-X transport map, its inverse on symmetric inputs, and the
quantum product.

A Y-polynomial is an XPoly whose variables are read as the commuting
operators Y_1..Y_m; the transport map evaluates the operator on 1.
The chromatic functions are multiplicative under the quantum product,
so the transported elementary e_lam(Y) . 1 is the function of the
disjoint union of complete graphs K_lam divided by prod_i [lam_i]_t!.
That is a symmetric function, so its e-coordinates do not depend on m:
they are built once per partition, by the hat-symmetrizer pipeline at
m = |lam|, and kept as one column per lam; the Y-operator chain
(apply_e_r_Y, q_map) stays as a test oracle.  The inverse is computed
only on the symmetric subspace, by back substitution in e-basis
coordinates: the column of lam holds only e_mu with mu >= lam (lex) and
a monomial e_lam coefficient, and each column is built lazily, the
first time the solve reaches lam with a nonzero coefficient.  Symmetric
polynomials in the Y operators commute, so the quantum product of f and
g is the ordinary product of their transported e-coordinates, summed in
e-coordinates over the columns of e_nu(Y) . 1 and mapped to a
polynomial once.

Since the columns are m-free, the one precondition on m is that of
expand_in_e: an input of degree d needs m >= d variables, so that its
e-coordinates are faithful.  The outputs are exact at every m >= 1.
"""

from __future__ import annotations

from functools import lru_cache

from .qt import ONE, qt_monomial, t_factorial
from .xring import XPoly, XError, _acc
from .hecke import apply_Y
from .symfn import (EExpansion, SymFnError, partitions_of, expand_in_e,
                    _check_partition)
from .graphs import eseq_of_partition
from .qtcsf import qt_csf


class QMapError(ValueError):
    """Raised when an inverse transport or quantum product is ill-posed."""


def _y_image(m, exps, memo):
    """The operator monomial Y^exps applied to 1, memoized in `memo`."""
    img = memo.get(exps)
    if img is not None:
        return img
    for i in range(m):
        if exps[i]:
            sub = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            img = apply_Y(i + 1, _y_image(m, sub, memo))
            break
    else:
        img = XPoly.one(m)
    memo[exps] = img
    return img


def q_map(f):
    """Evaluate a Y-polynomial on 1, extending monomial images linearly."""
    if not f.is_polynomial():
        raise QMapError("transport map needs a polynomial Y-input")
    memo = {}
    out = XPoly.zero(f.m)
    for e, c in f.terms.items():
        out = out + _y_image(f.m, e, memo) * c
    return out


def _e_image(lam):
    """The e-coordinates of e_lam(Y) . 1, uncached: those of qt_csf of
    K_lam at m = max(|lam|, 2), each divided exactly by prod_i [lam_i]_t!
    (exact, since expand_in_e is unitriangular over Z)."""
    if not lam:
        return {(): ONE}
    scale = ONE
    for p in lam:
        scale = scale * t_factorial(p)
    coeffs = expand_in_e(qt_csf(eseq_of_partition(lam), max(sum(lam), 2))).coeffs
    return {mu: c / scale for mu, c in coeffs.items()}


@lru_cache(maxsize=128)
def _column(lam):
    """The e-coordinates of e_lam(Y) . 1 as (diagonal, other items), one
    column per partition for every m.

    Checked once when built: only e_mu with mu >= lam (lex) may occur,
    and the e_lam coefficient must be a monomial, so back substitution
    divides only by monomials.  The items are a tuple so callers cannot
    mutate the cached column.
    """
    coeffs = _e_image(lam)
    diag = coeffs.get(lam)
    if diag is None or len(diag.terms) != 1 or any(mu < lam for mu in coeffs):
        raise QMapError("transported e_%s is not triangular" % (lam,))
    return diag, tuple((mu, c) for mu, c in coeffs.items() if mu != lam)


def _transport(n, coords, m):
    """The polynomial sum c_nu e_nu(Y) . 1 in m variables, for the
    degree-n e-coordinates coords = {nu: c_nu}: the cached columns,
    summed in e-coordinates and mapped to a polynomial once."""
    out = {}
    for nu, c in coords.items():
        diag, others = _column(nu)
        for mu, k in ((nu, diag),) + others:
            _acc(out, mu, k * c)
    return EExpansion(n, out).to_xpoly(m)


def q_map_e(lam, m):
    """The image e_lam(Y) . 1 of the elementary product along a partition.

    The column of lam, built once at m = |lam|, mapped to m variables by
    EExpansion.to_xpoly.  The Y-operator chain apply_e_r_Y(lam_1, ...)
    gives the same image and serves as its test oracle.
    """
    lam = tuple(lam)
    try:
        _check_partition(lam)
    except SymFnError as exc:
        raise QMapError(str(exc)) from None
    return _transport(sum(lam), {lam: ONE}, m)


def q_map_inv_sym(f):
    """Coordinates of f in the transported elementary basis.

    Returns the unique EExpansion c with sum_lam c_lam * q_map_e(lam)
    equal to f.  Needs f symmetric homogeneous with m >= deg f variables,
    the bound at which expand_in_e reads faithful e-coordinates; the
    columns do not depend on m, so no further headroom is needed.  Solves
    by back substitution in ascending lex order: the column of lam holds
    only e_mu with mu >= lam and a monomial e_lam coefficient, so the
    lowest partition left with a nonzero coefficient fixes c_lam, and
    only the columns the solve reaches are built.
    """
    try:
        target = expand_in_e(f)
    except SymFnError as exc:
        raise QMapError(str(exc)) from None
    d = target.n
    rest = dict(target.coeffs)
    sol = {}
    for lam in reversed(partitions_of(d)):
        c = rest.pop(lam, None)
        if c is None:
            continue
        diag, others = _column(lam)
        x = c / diag
        sol[lam] = x
        for mu, k in others:
            _acc(rest, mu, -(x * k))
    return EExpansion(d, sol)


def apply_e_r_Y(r, g):
    """Apply the operator e_r(Y_1..Y_m) to g.

    Sums Y_I . g over all r-element index sets I, sharing common
    prefixes of the nested applications.
    """
    m = g.m
    if r < 0:
        return XPoly.zero(m)
    total = [XPoly.zero(m)]

    def rec(start, left, h):
        if left == 0:
            total[0] = total[0] + h
            return
        # Y_i for i in start..m, keeping room for the remaining picks.
        for i in range(start, m - left + 2):
            rec(i + 1, left - 1, apply_Y(i, h))

    rec(1, r, g)
    return total[0]


def star(f, g):
    """The quantum product of two symmetric homogeneous polynomials.

    With f = sum c_lam e_lam(Y) . 1 and g = sum d_mu e_mu(Y) . 1, the
    product is sum c_lam d_mu e_{lam u mu}(Y) . 1.  The sum is taken in
    e-coordinates, over the cached columns of the images, and mapped to
    a polynomial once.  Needs m >= the degree of each input, as
    q_map_inv_sym does; the product may exceed m in degree and is still
    exact as a polynomial.
    """
    if f.m != g.m:
        raise XError("variable counts differ: %d vs %d" % (f.m, g.m))
    b = q_map_inv_sym(g)
    a = q_map_inv_sym(f)
    coords = {}
    for lam, c in a.coeffs.items():
        for mu, d in b.coeffs.items():
            _acc(coords, tuple(sorted(lam + mu, reverse=True)), c * d)
    return _transport(a.n + b.n, coords, f.m)


def qt_elementary(lam, m):
    """The iterated quantum product of elementaries along lam.

    Equals the transported e_lam(Y) rescaled by t^{-sum lam_i(lam_i-1)/2},
    exact at every m >= 1; its e-coordinates are faithful from m >= |lam|.
    """
    lam = tuple(sorted(lam, reverse=True))
    k = sum(p * (p - 1) // 2 for p in lam)
    return q_map_e(lam, m) * qt_monomial(1, 0, -k)

