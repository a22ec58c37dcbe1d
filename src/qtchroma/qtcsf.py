"""Partial symmetrizers and the two-parameter chromatic functions.

The main entry point qt_csf builds the polynomial by applying a product
of hat-symmetrizers to 1, right-to-left.  Each hat-symmetrizer is a sum
of operator words sharing prefixes, so the k-term sum costs k single
generator applications.

Each step hatS_a keeps only the orbit representatives of its output (the
monomials whose first a+1 exponents weakly decrease) and fills the orbits
at the end.  This needs its input to be symmetric in X_1..X_a, which the
area-sequence condition a(i+1) <= a(i) + 1 guarantees for every step of
qt_csf; apply_hatS checks it and on other inputs keeps every monomial.
"""

from __future__ import annotations

from .qt import qt_monomial
from .xring import XPoly, XError, is_symmetric, _distinct_perms
from .hecke import apply_T_inv, apply_pi
from .symfn import expand_in_e
from .graphs import eseq_to_aseq, graph_from_eseq, chromatic_qsf


def apply_hatS(a, f):
    """(1 + T_1^{-1} + ... + T_a^{-1}...T_1^{-1}) Pi, zero for a < 0.

    When f is symmetric in X_1..X_a the result is symmetric in X_1..X_{a+1},
    so only its representatives are computed: the monomials whose first
    r = a+1 exponents weakly decrease.  T_j^{-1} touches only X_j and
    X_{j+1}, so after g_j = T_j^{-1}...T_1^{-1} Pi f the exponents 1..j are
    frozen for every later summand; and each T^{-1} keeps the pair's sum
    and both new exponents between the old ones.  A monomial of g_j whose
    frozen prefix is not weakly decreasing, or whose exponents j+1..r sum
    to more than (r-j) times exponent j, never reaches a representative and
    is dropped before the next generator.  Each orbit is then filled from
    its representative, all members sharing one coefficient object.  For
    any other f, r = 1: nothing is dropped and the fill is the identity.
    """
    m = f.m
    if a < 0:
        return XPoly.zero(m)
    if a >= m:
        raise XError("hat symmetrizer index %d outside supported range 0..%d"
                     % (a, m - 1))
    r = a + 1 if is_symmetric(f, a) else 1
    total = XPoly.zero(m)
    g = apply_pi(f)
    for j in range(a + 1):
        if j:
            g = apply_T_inv(j, g)
            if j < r:
                k = r - j
                g = XPoly._raw(m, {e: c for e, c in g.terms.items()
                                   if (j < 2 or e[j - 2] >= e[j - 1])
                                   and sum(e[j:r]) <= k * e[j - 1]})
        total = total + _representatives(g, j, r)
    out = {}
    for e, c in total.terms.items():
        tail = e[r:]
        for head in _distinct_perms(e[:r]):
            out[head + tail] = c
    return XPoly._raw(m, out)


def _representatives(g, j, r):
    """The terms of g whose exponents j..r (1-based) weakly decrease.

    Exponents 1..j are already known to weakly decrease.
    """
    lo = max(j - 1, 0)
    out = {}
    for e, c in g.terms.items():
        for i in range(lo, r - 1):
            if e[i] < e[i + 1]:
                break
        else:
            out[e] = c
    return XPoly._raw(g.m, out)


def qt_csf(eseq, m):
    """The m-variable two-parameter chromatic polynomial of the graph.

    Computed as the product of hat-symmetrizers indexed by m-1-a(i),
    applied from the right to the constant t^{n(m-1)}; every step is linear
    over Z[q^±1, t^±1], so the constant rides along instead of scaling the
    result.  A clique larger than m gives an index below 0, whose step is
    zero.
    """
    a = eseq_to_aseq(eseq)
    if m < 2:
        raise XError("need m >= 2 variables")
    n = len(a)
    f = XPoly(m, {(0,) * m: qt_monomial(1, 0, n * (m - 1))})
    for i in range(n, 0, -1):
        f = apply_hatS(m - 1 - a[i - 1], f)
    return f


def c_lambda(eseq):
    """e-basis coefficients of the coloring oracle (evaluated at m = n)."""
    g = graph_from_eseq(eseq)
    return expand_in_e(chromatic_qsf(g, g.n))
