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

from .qt import (ZERO, qt_monomial, t_factorial, specialize_q1,
                 limit_q_infinity, QTError)
from .xring import XPoly, XError, truncate, is_symmetric, _distinct_perms
from .hecke import apply_T_inv, apply_pi
from .symfn import expand_in_e, apply_N, e_stat, e_poly
from .graphs import (check_eseq, eseq_to_aseq, graph_from_eseq, chromatic_qsf,
                     eseq_weight)


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
    eseq = check_eseq(eseq)
    if m < 2:
        raise XError("need m >= 2 variables")
    n = len(eseq)
    a = eseq_to_aseq(eseq)
    f = XPoly(m, {(0,) * m: qt_monomial(1, 0, n * (m - 1))})
    for i in range(n, 0, -1):
        f = apply_hatS(m - 1 - a[i - 1], f)
    return f


def check_stability(eseq, m, mp):
    """True iff the m-variable result truncates to the m'-variable one."""
    if not 2 <= mp < m:
        raise XError("need 2 <= m' < m")
    return truncate(qt_csf(eseq, m), mp) == qt_csf(eseq, mp)


def check_q1_collapse(eseq, m):
    """At q=1 the operator result must match the twisted coloring oracle."""
    eseq = check_eseq(eseq)
    n = len(eseq)
    if m < n:
        raise XError("need m >= n for a faithful e-expansion")
    f = qt_csf(eseq, m)
    f1 = XPoly(m, {e: specialize_q1(c) for e, c in f.terms.items()})
    lhs = expand_in_e(f1)
    oracle = chromatic_qsf(graph_from_eseq(eseq), m)
    rhs = apply_N(expand_in_e(oracle))
    return lhs == rhs


def c_lambda(eseq):
    """e-basis coefficients of the coloring oracle (evaluated at m = n)."""
    eseq = check_eseq(eseq)
    n = len(eseq)
    return expand_in_e(chromatic_qsf(graph_from_eseq(eseq), n))


def check_dist_identity(eseq):
    """The weighted sum of the c_lam / prod_i [lam_i]_t! must telescope to 1.

    Checked with denominators cleared: sum_lam t^{w - e_stat(lam)} c_lam
    times the t-multinomial [n]_t! / prod_i [lam_i]_t! must equal [n]_t!.
    """
    eseq = check_eseq(eseq)
    w = eseq_weight(eseq)
    nfact = t_factorial(len(eseq))
    total = ZERO
    for lam, c in c_lambda(eseq).coeffs.items():
        multinomial = nfact
        for p in lam:
            multinomial = multinomial / t_factorial(p)
        total = total + qt_monomial(1, 0, w - e_stat(lam)) * c * multinomial
    return total == nfact


def check_qinf_limit(eseq, m):
    """Coefficientwise q -> infinity limit against the closed form."""
    eseq = check_eseq(eseq)
    n = len(eseq)
    if m < n:
        raise XError("need m >= n")
    f = qt_csf(eseq, m)
    try:
        lim = XPoly(m, {e: limit_q_infinity(c) for e, c in f.terms.items()})
    except QTError:
        return False
    k = n * (n - 1) // 2 - eseq_weight(eseq)
    want = e_poly((n,), m) * (t_factorial(n) * qt_monomial(1, 0, k))
    return lim == want
