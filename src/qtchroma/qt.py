"""Exact arithmetic in the rational function field Q(q,t).

Elements are fractions of integer Laurent polynomials in the two variables
q and t.  Every ``QTCoeff`` is kept in a normal form (coprime numerator and
denominator, denominator a genuine polynomial with minimal exponents and a
positive leading coefficient under graded-lex order with q > t), so equality
is plain structural comparison.
"""

from __future__ import annotations

from math import gcd as _igcd


class QTError(ArithmeticError):
    """Raised for domain errors in Q(q,t) arithmetic (bad division, bad limits)."""


# ---------------------------------------------------------------------------
# Integer Laurent polynomials in q, t: dict {(qexp, texp): int}, no zeros.
# ---------------------------------------------------------------------------

class QTLaurent:
    """A Laurent polynomial in q and t with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v:
                    self.terms[k] = v

    @classmethod
    def _raw(cls, terms):
        # Internal: terms is already pruned; no copy.
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def monomial(cls, c, qe=0, te=0):
        return cls._raw({(qe, te): c} if c else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, QTLaurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return QTLaurent._raw({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QTLaurent._raw(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) - v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QTLaurent._raw(out)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return QTLaurent._raw({})
        if len(other.terms) == 1:
            # A monomial factor only shifts keys: no collisions, no zeros.
            ((dq, dt), vb), = other.terms.items()
            return QTLaurent._raw({(qa + dq, ta + dt): va * vb
                                   for (qa, ta), va in self.terms.items()})
        out = {}
        for (qa, ta), va in self.terms.items():
            for (qb, tb), vb in other.terms.items():
                k = (qa + qb, ta + tb)
                s = out.get(k, 0) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return QTLaurent._raw(out)

    def shifted(self, dq, dt):
        """Multiply by the monomial q^dq * t^dt."""
        if not (dq or dt):
            return self
        return QTLaurent._raw({(qe + dq, te + dt): v for (qe, te), v in self.terms.items()})

    def min_exps(self):
        qs = [qe for qe, _ in self.terms]
        ts = [te for _, te in self.terms]
        return min(qs), min(ts)

    def max_qexp(self):
        return max(qe for qe, _ in self.terms)

    def subs_q1(self):
        """Substitute q = 1, returning a Laurent polynomial in t alone."""
        out = {}
        for (qe, te), v in self.terms.items():
            k = (0, te)
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QTLaurent._raw(out)

    def lead_qcoeff(self):
        """Coefficient (in t) of the highest power of q."""
        mq = self.max_qexp()
        return QTLaurent._raw({(0, te): v for (qe, te), v in self.terms.items() if qe == mq})

    def __repr__(self):
        return "QTLaurent(%r)" % (self.terms,)


# ---------------------------------------------------------------------------
# gcd over Z[q,t] via primitive pseudo-remainder sequences, one variable at
# a time.  Polynomials in t are dense coefficient lists; polynomials in q
# over Z[t] are lists of those lists.
# ---------------------------------------------------------------------------

def _tp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a

def _tp_neg(a):
    return [-c for c in a]

def _tp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _tp_trim(out)

def _tp_content(a):
    g = 0
    for c in a:
        g = _igcd(g, abs(c))
    return g

def _tp_divexact_int(a, n):
    return [c // n for c in a]

def _tp_prem(a, b):
    """Pseudo-remainder of a by b over Z (b nonzero)."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [lb * c for c in r]
        for j in range(db + 1):
            r[dr - db + j] -= lead * b[j]
        _tp_trim(r)
    return r

def _tp_primitive(a):
    if not a:
        return a
    c = _tp_content(a)
    if a[-1] < 0:
        c = -c
    return _tp_divexact_int(a, c)

def _tp_gcd(a, b):
    """gcd in Z[t] up to sign (leading coefficient positive), content included."""
    a, b = list(a), list(b)
    if not a:
        b = list(b)
        return b if not b else [c if b[-1] > 0 else -c for c in b]
    if not b:
        return a if a[-1] > 0 else _tp_neg(a)
    ca, cb = _tp_content(a), _tp_content(b)
    a = _tp_primitive(a)
    b = _tp_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _tp_prem(a, b)
        a, b = b, _tp_primitive(r)
    c = _igcd(ca, cb)
    return _tp_trim([c * x for x in _tp_primitive(a)])

def _tp_divexact(a, b):
    """Exact division in Z[t]; raises if not exact."""
    if not a:
        return []
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        c, rem = divmod(r[-1], lb)
        if rem:
            raise QTError("inexact polynomial division in Z[t]")
        q[dr - db] = c
        for j in range(db + 1):
            r[dr - db + j] -= c * b[j]
        _tp_trim(r)
    if r:
        raise QTError("inexact polynomial division in Z[t]")
    return q

def _qp_trim(a):
    while a and not a[-1]:
        a.pop()
    return a

def _qp_content(a):
    g = []
    for c in a:
        if c:
            g = _tp_gcd(g, c)
    return g

def _qp_scale(a, tp):
    return [_tp_mul(c, tp) for c in a]

def _qp_divexact_tp(a, tp):
    return [_tp_divexact(c, tp) for c in a]

def _qp_primitive(a):
    if not a:
        return a
    c = _qp_content(a)
    if a[-1][-1] < 0:
        c = _tp_neg(c)
    return _qp_divexact_tp(a, c)

def _qp_sub_shifted(r, c, b, shift):
    """r -= c * b * q^shift, in place on the list-of-lists representation."""
    for j, bj in enumerate(b):
        if bj:
            prod = _tp_mul(c, bj)
            tgt = r[shift + j]
            n = max(len(tgt), len(prod))
            tgt = tgt + [0] * (n - len(tgt))
            for k, v in enumerate(prod):
                tgt[k] -= v
            r[shift + j] = _tp_trim(tgt)
    return r

def _qp_prem2(a, b):
    """Pseudo-remainder in (Z[t])[q]."""
    db = len(b) - 1
    lb = b[-1]
    r = [list(c) for c in a]
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[-1]
        # scale by lb, then cancel the leading term with lead * b * q^(dr-db)
        r = [_tp_mul(lb, c) for c in r]
        r = _qp_sub_shifted(r, lead, b, dr - db)
        _qp_trim(r)
    return r

def _qp_gcd(a, b):
    if not a:
        return _qp_primitive(b)
    if not b:
        return _qp_primitive(a)
    ca, cb = _qp_content(a), _qp_content(b)
    a = _qp_primitive(a)
    b = _qp_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _qp_prem2(a, b)
        a, b = b, _qp_primitive(r)
    c = _tp_gcd(ca, cb)
    return _qp_trim(_qp_scale(a, c))

def _qp_divexact(a, b):
    if not a:
        return []
    db = len(b) - 1
    lb = b[-1]
    r = [list(c) for c in a]
    q = [[] for _ in range(len(a) - db)]
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        c = _tp_divexact(r[-1], lb)
        q[dr - db] = c
        r = _qp_sub_shifted(r, c, b, dr - db)
        _qp_trim(r)
    if r:
        raise QTError("inexact polynomial division in Z[q,t]")
    return q


def _dict_to_qp(d):
    """{(qe,te): c} with nonnegative exponents -> list over qe of t-lists."""
    mq = max(qe for qe, _ in d)
    out = [[] for _ in range(mq + 1)]
    for (qe, te), v in d.items():
        row = out[qe]
        if len(row) <= te:
            row.extend([0] * (te + 1 - len(row)))
        row[te] = v
    for row in out:
        _tp_trim(row)
    while out and not out[-1]:
        out.pop()
    return out

def _qp_to_dict(a):
    out = {}
    for qe, row in enumerate(a):
        for te, v in enumerate(row):
            if v:
                out[(qe, te)] = v
    return out


def gcd_zqt(a, b):
    """gcd of two polynomial dicts over Z[q,t] (nonnegative exponents)."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    g = _qp_gcd(_dict_to_qp(a), _dict_to_qp(b))
    return _qp_to_dict(g)


# ---------------------------------------------------------------------------
# QTCoeff: normalized fraction num/den of QTLaurent values.
# ---------------------------------------------------------------------------

def _grlex_lead_sign(d):
    key = max(d, key=lambda k: (k[0] + k[1], k[0]))
    return 1 if d[key] > 0 else -1

def _normalize(num, den):
    """Normal form for a fraction of term-dicts.  Returns (num, den)."""
    if not den:
        raise ZeroDivisionError("division by zero in Q(q,t)")
    if not num:
        return {}, {(0, 0): 1}
    if len(den) == 1:
        ((dq, dt), dc), = den.items()
        if dq or dt:
            num = {(qe - dq, te - dt): v for (qe, te), v in num.items()}
        g = 0
        for v in num.values():
            g = _igcd(g, abs(v))
        g = _igcd(g, abs(dc))
        if dc < 0:
            g = -g
        num = {k: v // g for k, v in num.items()}
        dc //= g
        return num, {(0, 0): dc}
    # Shift the denominator to minimal nonnegative exponents.
    dq = min(qe for qe, _ in den)
    dt = min(te for _, te in den)
    if dq or dt:
        den = {(qe - dq, te - dt): v for (qe, te), v in den.items()}
        num = {(qe - dq, te - dt): v for (qe, te), v in num.items()}
    # Pull the monomial content out of the numerator.
    nq = min(qe for qe, _ in num)
    nt = min(te for _, te in num)
    numpoly = {(qe - nq, te - nt): v for (qe, te), v in num.items()}
    g = gcd_zqt(numpoly, den)
    if len(g) > 1 or g.get((0, 0), 1) != 1:
        gqp = _dict_to_qp(g)
        numpoly = _qp_to_dict(_qp_divexact(_dict_to_qp(numpoly), gqp))
        den = _qp_to_dict(_qp_divexact(_dict_to_qp(den), gqp))
    if _grlex_lead_sign(den) < 0:
        den = {k: -v for k, v in den.items()}
        numpoly = {k: -v for k, v in numpoly.items()}
    num = {(qe + nq, te + nt): v for (qe, te), v in numpoly.items()}
    if len(den) == 1:
        # gcd removal may have reduced the denominator to a monomial
        return _normalize(num, den)
    return num, den


class QTCoeff:
    """An element of Q(q,t) in normal form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, QTCoeff):
            q = num if den is None else num / QTCoeff(den)
            self.num = q.num
            self.den = q.den
            return
        if isinstance(num, int):
            num = QTLaurent.monomial(num)
        if den is None:
            den = _ONE_TERMS
        elif isinstance(den, QTLaurent):
            den = den.terms
        else:
            den = {k: v for k, v in den.items() if v}
        if isinstance(num, QTLaurent):
            num = num.terms
        else:
            num = {k: v for k, v in num.items() if v}
        n, d = _normalize(num, den)
        self.num = QTLaurent._raw(n)
        self.den = QTLaurent._raw(d)

    @classmethod
    def _raw(cls, num, den):
        self = cls.__new__(cls)
        self.num = num
        self.den = den
        return self

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num.terms

    def is_one(self):
        return self.num.terms == _ONE_TERMS and self.den.terms == _ONE_TERMS

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, QTCoeff):
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self):
        return hash((frozenset(self.num.terms.items()), frozenset(self.den.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if self.den.terms == other.den.terms:
            n = self.num + other.num
            if self.den.terms == _ONE_TERMS:
                return QTCoeff._raw(n, _QL_ONE)
            return QTCoeff(n, self.den)
        return QTCoeff(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if self.den.terms == other.den.terms:
            n = self.num - other.num
            if self.den.terms == _ONE_TERMS:
                return QTCoeff._raw(n, _QL_ONE)
            return QTCoeff(n, self.den)
        return QTCoeff(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return from_int(other) - self

    def __neg__(self):
        return QTCoeff._raw(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return QTCoeff._raw(self.num * other.num, _QL_ONE)
        return QTCoeff(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q,t)")
        return QTCoeff(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return from_int(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q,t)")
        return QTCoeff(self.den, self.num)

    # -- rendering / serialization ------------------------------------------

    def __str__(self):
        return render_coeff(self)

    def __repr__(self):
        return "QTCoeff(%s)" % render_coeff(self)

    def to_json(self):
        return {
            "num": [[v, qe, te] for (qe, te), v in sorted(self.num.terms.items())],
            "den": [[v, qe, te] for (qe, te), v in sorted(self.den.terms.items())],
        }

    @classmethod
    def from_json(cls, obj):
        num = {(qe, te): v for v, qe, te in obj["num"]}
        den = {(qe, te): v for v, qe, te in obj["den"]}
        return cls(num, den)


_ONE_TERMS = {(0, 0): 1}
_QL_ONE = QTLaurent._raw(_ONE_TERMS)


def from_int(n):
    return QTCoeff._raw(QTLaurent.monomial(n), _QL_ONE)

def qt_monomial(c=1, qe=0, te=0):
    """The coefficient c * q^qe * t^te."""
    return QTCoeff._raw(QTLaurent.monomial(c, qe, te), _QL_ONE)


ZERO = from_int(0)
ONE = from_int(1)


def t_int(n):
    """The t-integer (1 - t^n)/(1 - t) as an exact coefficient."""
    if n >= 0:
        return QTCoeff._raw(QTLaurent._raw({(0, i): 1 for i in range(n)}), _QL_ONE)
    return QTCoeff._raw(QTLaurent._raw({(0, i): -1 for i in range(n, 0)}), _QL_ONE)

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
    den = c.den.subs_q1()
    if den.is_zero():
        raise QTError("denominator vanishes at q=1")
    return QTCoeff(c.num.subs_q1(), den)

def limit_q_infinity(c):
    """The limit q -> infinity, viewing c as a rational function of q over Q(t)."""
    if c.is_zero():
        return ZERO
    dn = c.num.max_qexp()
    dd = c.den.max_qexp()
    if dn > dd:
        raise QTError("divergent at q=infinity")
    if dn < dd:
        return ZERO
    return QTCoeff(c.num.lead_qcoeff(), c.den.lead_qcoeff())


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

def render_laurent(p):
    if not p.terms:
        return "0"
    items = sorted(p.terms.items())
    s = "+".join(_render_term(v, qe, te) for (qe, te), v in items)
    return s.replace("+-", "-")

def render_coeff(c):
    """Canonical text form: bare monomial, (sum), or (num)/(den)."""
    if c.is_zero():
        return "0"
    ns = render_laurent(c.num)
    if c.den.terms == _ONE_TERMS:
        if len(c.num.terms) == 1:
            return ns
        return "(%s)" % ns
    return "(%s)/(%s)" % (ns, render_laurent(c.den))
