"""Unit interval graph encodings and the coloring-based oracle.

Three equivalent encodings of a unit interval graph on n vertices are
supported, all stored as plain tuples:

  * eseq: 0 <= e(i) < i and e(i) <= e(i+1)
  * aseq: 0 <= a(i) < i and a(i+1) <= a(i) + 1, with a(i) = i-1-e(i)
  * hseq: i <= h(i) <= n nondecreasing, with h(i) = n - e(n+1-i)

Vertex i receives oriented edges from its a(i) immediate predecessors.
The module also enumerates the triples entering the modular law and
provides a direct proper-coloring evaluation of the chromatic function,
which serves as an independent cross-check for the operator pipeline.
"""

from __future__ import annotations

from .qt import qt_monomial
from .xring import XPoly


class GraphError(ValueError):
    """Raised for malformed graph encodings."""


# ---------------------------------------------------------------------------
# Validation and conversion
# ---------------------------------------------------------------------------

def check_eseq(e):
    e = tuple(e)
    n = len(e)
    if n == 0:
        raise GraphError("empty sequence")
    for i in range(1, n + 1):
        if not 0 <= e[i - 1] < i:
            raise GraphError("eseq invalid: need 0 <= e(%d) < %d, got %d"
                             % (i, i, e[i - 1]))
        if i < n and e[i - 1] > e[i]:
            raise GraphError("eseq invalid: need e(%d) <= e(%d), got %d > %d"
                             % (i, i + 1, e[i - 1], e[i]))
    return e


def _a_flip(s):
    """a(i) = i-1-e(i); the map is its own inverse."""
    return tuple(i - x for i, x in enumerate(s))


def _h_flip(s):
    """h(i) = n-e(n+1-i); the map is its own inverse."""
    n = len(s)
    return tuple(n - x for x in reversed(s))


def _as_eseq(seq, flip, name):
    """flip(seq) as a checked eseq; an error names the encoding given."""
    seq = tuple(seq)
    e = flip(seq)
    try:
        return check_eseq(e)
    except GraphError as exc:
        raise GraphError("%s invalid: %s maps to eseq %s (%s)"
                         % (name, seq, e, exc)) from None


def eseq_to_aseq(e):
    return _a_flip(check_eseq(e))


def aseq_to_eseq(a):
    return _as_eseq(a, _a_flip, "aseq")


def eseq_to_hseq(e):
    return _h_flip(check_eseq(e))


def hseq_to_eseq(h):
    return _as_eseq(h, _h_flip, "hseq")


# ---------------------------------------------------------------------------
# Oriented graphs
# ---------------------------------------------------------------------------

class OrientedGraph:
    """A finite oriented graph on vertices 1..n without self-loops."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        self.edges = frozenset((int(v), int(w)) for v, w in edges)
        for v, w in self.edges:
            if v == w:
                raise GraphError("self-loop at vertex %d" % v)
            if not (1 <= v <= n and 1 <= w <= n):
                raise GraphError("edge (%d,%d) out of range 1..%d" % (v, w, n))

    def __repr__(self):
        return "OrientedGraph(n=%d, edges=%s)" % (self.n, sorted(self.edges))


def _edges(a):
    """Vertex i gets edges from i-a(i), ..., i-1; a is a checked aseq."""
    n = len(a)
    edges = set()
    for i in range(1, n + 1):
        for v in range(i - a[i - 1], i):
            edges.add((v, i))
    return OrientedGraph(n, edges)


def graph_from_eseq(e):
    return _edges(eseq_to_aseq(e))


def concat(e, ep):
    """Concatenation: the disjoint union of the two graphs, in order."""
    e = check_eseq(e)
    ep = check_eseq(ep)
    n = len(e)
    return e + tuple(x + n for x in ep)


def eseq_weight(e):
    """Sum of the entries (the number of non-edges above the diagonal)."""
    return sum(e)


def complete_eseq(n):
    """The sequence whose graph is the complete graph on n vertices."""
    return (0,) * n


def eseq_of_partition(mu):
    """Concatenation of complete-graph sequences along the parts of mu."""
    out = ()
    for p in mu:
        out = concat(out, complete_eseq(p)) if out else complete_eseq(p)
    return out


def enumerate_eseqs(n):
    """All valid sequences of length n (there are Catalan(n) of them)."""
    if n < 1:
        raise GraphError("need n >= 1")
    out = []

    def rec(i, prefix):
        if i > n:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, i):
            prefix.append(v)
            rec(i + 1, prefix)
            prefix.pop()

    rec(1, [])
    return out


def modular_triples(n):
    """All triples (e, e', e'') entering the modular law, with case tags.

    Case "i": an index 1 < i <= n with e(i-1) < e(i) < e(i+1) (reading
    e(n+1) = n-1 when i = n) and e(e(i)) = e(e(i)+1); then e' bumps
    e(i) up by one and e'' bumps it down.

    Case "ii": an index i < n with e(i+1) = e(i)+1 and no j with
    e(j) = i; then e' lifts position i to e(i+1) and e'' lowers
    position i+1 to e(i).
    """
    triples = []
    for e in enumerate_eseqs(n):
        for i in range(2, n + 1):
            nxt = e[i] if i < n else n - 1
            if not (e[i - 2] < e[i - 1] < nxt):
                continue
            v = e[i - 1]
            if e[v - 1] != e[v]:
                continue
            ep = e[:i - 1] + (v + 1,) + e[i:]
            epp = e[:i - 1] + (v - 1,) + e[i:]
            triples.append((e, check_eseq(ep), check_eseq(epp), "i"))
        for i in range(1, n):
            if e[i] != e[i - 1] + 1:
                continue
            if i in e:
                continue
            ep = e[:i - 1] + (e[i], e[i]) + e[i + 1:]
            epp = e[:i - 1] + (e[i - 1], e[i - 1]) + e[i + 1:]
            triples.append((e, check_eseq(ep), check_eseq(epp), "ii"))
    return triples


# ---------------------------------------------------------------------------
# Coloring oracle
# ---------------------------------------------------------------------------

def chromatic_qsf(g, m):
    """Sum over proper colorings kappa of t^{asc(kappa)} X_kappa.

    Direct enumeration with pruning on edge conflicts; asc counts edges
    v -> w with kappa(v) < kappa(w).  Independent of the operator
    pipeline, so it serves as a cross-oracle.
    """
    if m < 1:
        raise GraphError("need m >= 1 colors")
    n = g.n
    # For vertex i, edges joining it to earlier vertices, with direction.
    back = [[] for _ in range(n + 1)]
    for v, w in g.edges:
        lo, hi = min(v, w), max(v, w)
        back[hi].append((lo, v < w))
    tpow = [qt_monomial(1, 0, k) for k in range(len(g.edges) + 1)]
    out = {}
    colors = [0] * (n + 1)

    def rec(i, asc):
        if i > n:
            counts = [0] * m
            for v in range(1, n + 1):
                counts[colors[v] - 1] += 1
            key = tuple(counts)
            c = out.get(key)
            out[key] = tpow[asc] if c is None else c + tpow[asc]
            return
        for col in range(1, m + 1):
            a = asc
            ok = True
            for (u, forward) in back[i]:
                cu = colors[u]
                if cu == col:
                    ok = False
                    break
                # forward means the edge is u -> i.
                if forward == (cu < col):
                    a += 1
            if ok:
                colors[i] = col
                rec(i + 1, a)
        colors[i] = 0

    rec(1, 0)
    return XPoly(m, out)
