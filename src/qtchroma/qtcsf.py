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

from .qt import QTCoeff, ZERO, qt_monomial
from .xring import XPoly, XError, is_symmetric, _distinct_perms
from .hecke import apply_T_inv, apply_pi
from .symfn import _solve_dominant
from .graphs import eseq_to_aseq, graph_from_eseq


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
    """The e-coordinates of the coloring sum, expand_in_e(chromatic_qsf).

    expand_in_e reads only one coefficient a_nu per partition nu of n: the
    sum of t^asc over the proper colourings that use colour i nu_i times.
    Such a colouring is a sequence (S_1, ..., S_l) of disjoint stable sets
    covering the vertices, with |S_i| = nu_i, and adding S_i after U =
    S_1 u ... u S_{i-1} adds one ascent per edge u -> s with u in U and s
    in S_i.  So each a_nu is a DP over the vertex sets U, as bitmasks,
    one level per part; partitions that share a prefix share its levels.
    The a_nu then go through expand_in_e's unitriangular solve.
    chromatic_qsf, the full coloring sum, stays the definition.
    """
    g = graph_from_eseq(eseq)
    n = g.n
    into = [0] * n      # into[s]: the vertices u with an edge u -> s
    near = [0] * n      # near[s]: the neighbours of s
    for v, w in g.edges:
        into[w - 1] |= 1 << (v - 1)
        near[w - 1] |= 1 << (v - 1)
        near[v - 1] |= 1 << (w - 1)
    stable = [[] for _ in range(n + 1)]   # by size: (mask, vertices)
    for mask in range(1, 1 << n):
        verts = [s for s in range(n) if mask >> s & 1]
        if not any(near[s] & mask for s in verts):
            stable[len(verts)].append((mask, verts))
    full = (1 << n) - 1
    dominant = {}

    def extend(level, rest, most, nu):
        if not rest:
            poly = level[full]
            dominant[nu] = QTCoeff._raw({(0, d): c for d, c in poly.items()})
            return
        for k in range(min(rest, most), 0, -1):
            nxt = {}
            for u, poly in level.items():
                for s_mask, verts in stable[k]:
                    if s_mask & u:
                        continue
                    asc = sum((into[s] & u).bit_count() for s in verts)
                    acc = nxt.setdefault(u | s_mask, {})
                    for d, c in poly.items():
                        acc[d + asc] = acc.get(d + asc, 0) + c
            if nxt:
                extend(nxt, rest - k, k, nu + (k,))

    extend({0: {0: 1}}, n, n, ())
    return _solve_dominant(n, lambda nu: dominant.get(nu, ZERO))
