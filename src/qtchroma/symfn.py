"""Partitions, elementary symmetric polynomials, and e-basis expansions.

Partitions are plain tuples of weakly decreasing positive integers.
Everything iterates partitions in reverse-lexicographic order so output
is deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .qt import ZERO, ONE, from_int, qt_monomial, _render_sum
from .xring import XPoly, XError, is_symmetric, _distinct_perms


class SymFnError(ValueError):
    """Raised when an e-expansion precondition fails."""


def partitions_of(n):
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise SymFnError("cannot partition a negative integer")
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            prefix.append(p)
            rec(rest - p, p, prefix)
            prefix.pop()

    rec(n, n if n else 1, [])
    return out


def conjugate(lam):
    """The transposed partition."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def e_range(r, lo, hi, m):
    """e_r(X_lo, ..., X_hi) in m variables (1-based, inclusive bounds).

    Follows the usual conventions: 1 for r = 0, 0 for r < 0 or when the
    range holds fewer than r variables.
    """
    if r < 0:
        return XPoly.zero(m)
    terms = {}
    for comb in combinations(range(max(lo, 1) - 1, min(hi, m)), r):
        e = [0] * m
        for j in comb:
            e[j] = 1
        terms[tuple(e)] = ONE
    return XPoly._raw(m, terms)


def e_poly(lam, m):
    """The product of elementary symmetric polynomials e_{lam_i}(X_1..X_m)."""
    out = XPoly.one(m)
    for part in lam:
        out = out * e_range(part, 1, m, m)
    return out


class EExpansion:
    """A symmetric function of degree n written in the elementary basis."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for lam, c in coeffs.items():
                lam = tuple(lam)
                if sum(lam) != n:
                    raise SymFnError("partition %r has weight %d, expected %d"
                                     % (lam, sum(lam), n))
                if isinstance(c, int):
                    c = from_int(c)
                if not c.is_zero():
                    self.coeffs[lam] = c

    def __eq__(self, other):
        if not isinstance(other, EExpansion):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def items(self):
        """(partition, coefficient) pairs in reverse-lexicographic order."""
        return [(lam, self.coeffs[lam]) for lam in sorted(self.coeffs, reverse=True)]

    def to_xpoly(self, m):
        """The polynomial sum c_lam e_lam(X_1..X_m).

        Its coefficient of X^nu, for each partition nu of n with at most m
        parts, is sum_lam c_lam [X^nu] e_lam, read from the per-degree
        table; every rearrangement of nu gets the same coefficient.
        """
        if m < 1:
            raise XError("need at least one variable, got m=%d" % m)
        out = {}
        for nu, _mu, entries in _e_table(self.n):
            if len(nu) > m:
                continue
            acc = ZERO
            for lam, k in entries:
                c = self.coeffs.get(lam)
                if c is not None:
                    acc = acc + (c if k == 1 else c * k)
            if acc:
                for e in _distinct_perms(nu + (0,) * (m - len(nu))):
                    out[e] = acc
        return XPoly._raw(m, out)

    def __str__(self):
        """Text form with partitions in ascending lexicographic order."""
        return _render_sum((c, "e[%s]" % ",".join(str(p) for p in lam))
                           for lam, c in sorted(self.coeffs.items()))

    def __repr__(self):
        return "EExpansion(n=%d, %s)" % (self.n, self)

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": [{"partition": list(lam), "coeff": c.to_json()}
                       for lam, c in self.items()],
        }


def _zero_one_count(rows, cols, memo):
    """Number of 0-1 matrices with row sums `rows` and column sums `cols`.

    `cols` is weakly decreasing with no zeros: columns with equal remaining
    sums are interchangeable, so each recursive call sorts them and
    `memo` sees one key per multiset.
    """
    if not rows:
        return 0 if cols else 1
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    total = 0
    rest = rows[1:]
    for chosen in combinations(range(len(cols)), rows[0]):
        left = list(cols)
        for j in chosen:
            left[j] -= 1
        total += _zero_one_count(rest, tuple(sorted((c for c in left if c),
                                                    reverse=True)), memo)
    memo[key] = total
    return total


@lru_cache(maxsize=16)
def _e_table(n):
    """The dominant-monomial coefficients of every e_lam of degree n.

    One row (nu, conjugate(nu), entries) per partition nu of n, in
    reverse-lexicographic order; entries holds the pairs (lam, k) with
    k != 0 the coefficient of X^nu in e_lam, i.e. the number of 0-1
    matrices with row sums lam and column sums nu.  The entry of lam =
    conjugate(nu) is 1, and every other lam has conjugate(lam) lex-greater
    than nu.  Only tuples and integers, so callers cannot mutate it.
    """
    parts = partitions_of(n)
    memo = {}
    table = []
    for nu in parts:
        entries = []
        for lam in parts:
            k = _zero_one_count(lam, nu, memo)
            if k:
                entries.append((lam, k))
        table.append((nu, conjugate(nu), tuple(entries)))
    return tuple(table)


def _check_partition(lam):
    """Raise unless lam is a weakly decreasing tuple of positive parts."""
    if any(p < 1 for p in lam):
        raise SymFnError("partition parts must be positive, got %r" % (lam,))
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise SymFnError("partition must be weakly decreasing, got %r" % (lam,))


def _check_faithful(n, m):
    """Raise unless m >= n, so that a degree-n e-expansion is faithful."""
    if m < n:
        raise SymFnError("need at least %d variables for a faithful degree-%d "
                         "e-expansion, got m=%d" % (n, n, m))


def _solve_dominant(n, dominant):
    """The EExpansion of degree n whose X^nu coefficient is dominant(nu).

    dominant(nu) gives the coefficient a_nu of X^nu for each partition nu
    of n.  Under lex order the leading monomial of e_lam is X^{lam'} (the
    conjugate), so sum c_lam e_lam is unitriangular on these: going
    through nu in reverse-lex order, c_{nu'} = a_nu - sum_lam c_lam
    [X^nu] e_lam over the lam already solved.  The integers [X^nu] e_lam
    come from a per-degree table, so no division and no polynomial
    product is needed.
    """
    coeffs = {}
    for nu, mu, entries in _e_table(n):
        acc = dominant(nu)
        for lam, k in entries:
            c = coeffs.get(lam)
            if c is not None:
                acc = acc - (c if k == 1 else c * k)
        if acc:
            coeffs[mu] = acc
    return EExpansion(n, coeffs)


def expand_in_e(f):
    """Expand a symmetric homogeneous polynomial in the elementary basis.

    Reads only the dominant monomials of f: the coefficient a_nu of
    X^nu for each partition nu of n = deg f, solved for the e-coordinates
    by _solve_dominant.  Symmetry is checked on all of f, since the
    dominant monomials alone cannot see it.
    """
    if f.is_zero():
        return EExpansion(0, {})
    if not f.is_homogeneous():
        raise SymFnError("polynomial is not homogeneous")
    if not f.is_polynomial():
        raise SymFnError("polynomial has negative exponents")
    n = f.degree()
    _check_faithful(n, f.m)
    if not is_symmetric(f):
        raise SymFnError("polynomial is not symmetric")
    m = f.m
    terms = f.terms
    return _solve_dominant(
        n, lambda nu: terms.get(nu + (0,) * (m - len(nu)), ZERO))


def apply_N(exp):
    """Scale the coefficient of e_lam by t^{sum_i lam_i(lam_i-1)/2}."""
    out = {}
    for lam, c in exp.coeffs.items():
        k = sum(p * (p - 1) // 2 for p in lam)
        out[lam] = c * qt_monomial(1, 0, k) if k else c
    return EExpansion(exp.n, out)


def e_stat(lam):
    """The cross statistic sum_{i<j} lam_i lam_j."""
    total = sum(lam)
    return (total * total - sum(p * p for p in lam)) // 2
