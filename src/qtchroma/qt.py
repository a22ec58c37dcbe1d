"""Exact arithmetic in the Laurent polynomial ring Z[q^±1, t^±1].

A coefficient is a finite sum of terms c * q^a * t^b with integers c, a
and b, kept as a dict {(a, b): c} with no zero values, so equality is
plain structural comparison.  Division is exact: it succeeds only when
the quotient is again a Laurent polynomial with integer coefficients.
"""

from __future__ import annotations


class QTError(ArithmeticError):
    """Raised for domain errors in Z[q^±1, t^±1] arithmetic (inexact
    division, non-units, bad limits)."""


class QTCoeff:
    """A Laurent polynomial in q and t with integer coefficients.

    terms maps (qexp, texp) to a nonzero int.  QTCoeff(num, den) divides
    exactly; num and den read the value back as the fraction num/1.
    """

    __slots__ = ("terms",)

    def __init__(self, num=None, den=None):
        if isinstance(num, QTCoeff):
            terms = num.terms
        elif isinstance(num, int):
            terms = {(0, 0): num} if num else {}
        else:
            terms = {k: v for k, v in num.items() if v} if num else {}
        if den is not None:
            terms = (QTCoeff._raw(terms) / QTCoeff(den)).terms
        self.terms = terms

    @classmethod
    def _raw(cls, terms):
        # Internal: terms is already pruned; no copy.
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @property
    def num(self):
        """The numerator of the value as a fraction: the value itself."""
        return self

    @property
    def den(self):
        """The denominator of the value as a fraction: always ONE."""
        return ONE

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = qt_monomial(other)
        if not isinstance(other, QTCoeff):
            return NotImplemented
        return self.terms == other.terms

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = qt_monomial(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return QTCoeff._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = qt_monomial(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) - v
            if s:
                out[k] = s
            else:
                del out[k]
        return QTCoeff._raw(out)

    def __rsub__(self, other):
        return qt_monomial(other) - self

    def __neg__(self):
        return QTCoeff._raw({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = qt_monomial(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return QTCoeff._raw({})
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # A monomial factor only shifts keys: no collisions, no zeros.
            ((dq, dt), vb), = b.items()
            return QTCoeff._raw({(qa + dq, ta + dt): va * vb
                                 for (qa, ta), va in a.items()})
        out = {}
        for (qa, ta), va in a.items():
            for (qb, tb), vb in b.items():
                k = (qa + qb, ta + tb)
                s = out.get(k, 0) + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return QTCoeff._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division; QTError when the quotient is not in the ring."""
        if isinstance(other, int):
            other = qt_monomial(other)
        a, b = self.terms, other.terms
        if not b:
            raise ZeroDivisionError("division by zero in Z[q^±1, t^±1]")
        if not a:
            return ZERO
        if len(b) == 1:
            ((dq, dt), lc), = b.items()
            out = {}
            for (qe, te), v in a.items():
                x, rem = divmod(v, lc)
                if rem:
                    raise self._inexact(other)
                out[qe - dq, te - dt] = x
            return QTCoeff._raw(out)
        # Leading-term division under lex order, q before t.  If b divides
        # a, the Newton polygon of a is that of the quotient plus that of b,
        # so every quotient term lies in the box below; the terms come out
        # strictly decreasing, so leaving the box bounds the loop.
        aq, at = [k[0] for k in a], [k[1] for k in a]
        bq, bt = [k[0] for k in b], [k[1] for k in b]
        qlo, qhi = min(aq) - min(bq), max(aq) - max(bq)
        tlo, thi = min(at) - min(bt), max(at) - max(bt)
        lq, lt = lead = max(b)
        lc = b[lead]
        r = dict(a)
        out = {}
        while r:
            kq, kt = k = max(r)
            x, rem = divmod(r[k], lc)
            dq, dt = kq - lq, kt - lt
            if rem or not (qlo <= dq <= qhi and tlo <= dt <= thi):
                raise self._inexact(other)
            out[dq, dt] = x
            for (qe, te), w in b.items():
                key = (qe + dq, te + dt)
                s = r.get(key, 0) - x * w
                if s:
                    r[key] = s
                else:
                    del r[key]
        return QTCoeff._raw(out)

    def __rtruediv__(self, other):
        return qt_monomial(other) / self

    def _inexact(self, other):
        return QTError("%s / %s is not a Laurent polynomial"
                       % (render_coeff(self), render_coeff(other)))

    def inverse(self):
        """The inverse of a unit ±q^a*t^b; nothing else is invertible."""
        return ONE / self

    # -- rendering / serialization ------------------------------------------

    def __str__(self):
        return render_coeff(self)

    def __repr__(self):
        return "QTCoeff(%s)" % render_coeff(self)

    def to_json(self):
        # "den" is kept so the format still reads as a fraction num/den.
        return {
            "num": [[v, qe, te] for (qe, te), v in sorted(self.terms.items())],
            "den": [[1, 0, 0]],
        }


def qt_monomial(c=1, qe=0, te=0):
    """The coefficient c * q^qe * t^te."""
    return QTCoeff._raw({(qe, te): c} if c else {})


ZERO = qt_monomial(0)
ONE = qt_monomial(1)


def t_int(n):
    """The t-integer (1 - t^n)/(1 - t) as an exact coefficient."""
    if n >= 0:
        return QTCoeff._raw({(0, i): 1 for i in range(n)})
    return QTCoeff._raw({(0, i): -1 for i in range(n, 0)})

def t_factorial(n):
    """Product of the t-integers 1..n."""
    if n < 0:
        raise ValueError("t_factorial needs n >= 0")
    out = ONE
    for i in range(2, n + 1):
        out = out * t_int(i)
    return out


def specialize_q1(c):
    """Substitute q = 1 exactly; the result involves t only."""
    out = {}
    for (_, te), v in c.terms.items():
        k = (0, te)
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return QTCoeff._raw(out)

def limit_q_infinity(c):
    """The limit q -> infinity: the q^0 part, when no positive power of q
    occurs."""
    if any(qe > 0 for qe, _ in c.terms):
        raise QTError("divergent at q=infinity")
    return QTCoeff._raw({k: v for k, v in c.terms.items() if k[0] == 0})


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def _render_term(v, qe, te):
    parts = []
    if qe:
        parts.append("q" if qe == 1 else "q^%d" % qe)
    if te:
        parts.append("t" if te == 1 else "t^%d" % te)
    if not parts:
        return str(v)
    body = "*".join(parts)
    if v == 1:
        return body
    if v == -1:
        return "-" + body
    return "%d*%s" % (v, body)

def render_coeff(c):
    """Canonical text form: 0, a bare monomial, or a parenthesized sum."""
    if not c.terms:
        return "0"
    s = "+".join(_render_term(v, qe, te)
                 for (qe, te), v in sorted(c.terms.items())).replace("+-", "-")
    return s if len(c.terms) == 1 else "(%s)" % s


def _render_sum(pairs):
    """Text form of a sum of (coefficient, basis element) pairs, in the
    order given: a coefficient 1 or -1 before a basis element is elided
    to its sign, an empty basis element leaves the bare coefficient, and
    a term with a leading minus joins with " - "."""
    out = []
    for c, body in pairs:
        cs = render_coeff(c)
        if not body:
            term = cs
        elif cs == "1":
            term = body
        elif cs == "-1":
            term = "-" + body
        else:
            term = "%s*%s" % (cs, body)
        if not out:
            out.append(term)
        elif term.startswith("-"):
            out.append(" - " + term[1:])
        else:
            out.append(" + " + term)
    return "".join(out) or "0"
