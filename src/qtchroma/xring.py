"""Laurent polynomials in X_1..X_m with coefficients in Z[q^±1, t^±1].

The ring carries the index convention X_{i+km} = q^{-k} X_i, which the
cyclic operator Pi follows: X_{m+1} = q^{-1} X_1.  Exponent vectors are
stored dense (m is small), term maps are sparse.
"""

from __future__ import annotations

from .qt import QTCoeff, ONE, qt_monomial, _render_sum


class XError(ValueError):
    """Raised for malformed or incompatible X-polynomial operations."""


def _acc(out, e, c):
    """Add c into out[e], keeping no zero value: the XPoly invariant."""
    s = out.get(e)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(e, None)
    else:
        out[e] = s


class XPoly:
    """Sparse Laurent polynomial in m variables over Z[q^±1, t^±1].

    terms maps a length-m integer exponent tuple to a nonzero QTCoeff.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        if m < 1:
            raise XError("need at least one variable, got m=%d" % m)
        self.m = m
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != m:
                    raise XError("exponent vector %r has length %d, expected %d"
                                 % (exps, len(exps), m))
                if isinstance(c, int):
                    c = qt_monomial(c)
                if not c.is_zero():
                    self.terms[tuple(exps)] = c

    @classmethod
    def _raw(cls, m, terms):
        # Internal: terms already pruned and well-formed; no copy.
        self = cls.__new__(cls)
        self.m = m
        self.terms = terms
        return self

    @classmethod
    def zero(cls, m):
        return cls._raw(m, {})

    @classmethod
    def one(cls, m):
        return cls._raw(m, {(0,) * m: ONE})

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def degree(self):
        """Total degree (max over terms); None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_polynomial(self):
        return all(min(e) >= 0 for e in self.terms)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise XError("variable counts differ: %d vs %d" % (self.m, other.m))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _acc(out, e, c)
        return XPoly._raw(self.m, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return XPoly._raw(self.m, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, QTCoeff)):
            return self.scale(other)
        self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                _acc(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return XPoly._raw(self.m, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, int):
            c = qt_monomial(c)
        if c.is_zero():
            return XPoly.zero(self.m)
        return XPoly._raw(self.m, {e: k * c for e, k in self.terms.items()})

    # -- rendering / serialization ---------------------------------------

    def __str__(self):
        """Canonical text form, terms in descending lex order of exponents."""
        return _render_sum((self.terms[e], _render_monomial(e))
                           for e in sorted(self.terms, reverse=True))

    def __repr__(self):
        return "XPoly(m=%d, %s)" % (self.m, self)

    def to_json(self):
        return {
            "m": self.m,
            "terms": [{"exp": list(e), "coeff": c.to_json()}
                      for e, c in sorted(self.terms.items())],
        }


def truncate(f, mp):
    """Set X_i = 0 for mp < i <= f.m; the result lives in mp variables."""
    if not (0 < mp < f.m):
        raise XError("truncation target must satisfy 0 < m' < m, got %d" % mp)
    out = {}
    for e, c in f.terms.items():
        tail = e[mp:]
        if any(x < 0 for x in tail):
            raise XError("cannot truncate: negative exponent on X_%d"
                         % (mp + 1 + [x < 0 for x in tail].index(True)))
        if any(tail):
            continue
        out[e[:mp]] = c
    return XPoly._raw(mp, out)


def _asymmetry(f, n=None):
    """The first exponent of f whose coefficient changes when X_i and
    X_{i+1} swap, for some i < n (default m); None if there is none."""
    terms = f.terms
    for i in range(1, f.m if n is None else n):
        for e, c in terms.items():
            if e[i - 1] == e[i]:
                continue
            d = terms.get(e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:])
            # the members of an orbit often share one coefficient object
            if d is not c and d != c:
                return e
    return None


def is_symmetric(f, n=None):
    """True iff f is symmetric in X_1..X_n (n defaults to m)."""
    return _asymmetry(f, n) is None


def _distinct_perms(p):
    """Every distinct rearrangement of the tuple p, each once.

    Steps through the multiset's permutations in lexicographic order
    (next-permutation), never building the repeated ones.
    """
    x = sorted(p)
    n = len(x)
    while True:
        yield tuple(x)
        i = n - 2
        while i >= 0 and x[i] >= x[i + 1]:
            i -= 1
        if i < 0:
            return
        k = n - 1
        while x[k] <= x[i]:
            k -= 1
        x[i], x[k] = x[k], x[i]
        x[i + 1:] = x[:i:-1]


def _positive_q_power(f):
    """The first exponent of f whose coefficient has q^k, k > 0, or None."""
    return next((e for e, c in f.terms.items()
                 if any(qe > 0 for qe, _ in c.terms)), None)


def assert_integral(f):
    """True iff every coefficient lies in Z[q^{-1}, t^{+-1}]."""
    return _positive_q_power(f) is None


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_monomial(e):
    return "*".join("X%d" % (j + 1) if a == 1 else "X%d^%d" % (j + 1, a)
                    for j, a in enumerate(e) if a)
