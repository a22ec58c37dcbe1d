"""The benchmark workloads: inputs made from a seed, the timed operations,
and the exact checks run on their results after the timed region.

Every operation calls the library through the ``qtchroma`` package namespace
at call time, so a traced run sees the wrapped functions.  Each check takes a
route independent of the timed call: the coloring oracle (live, or its stored
answers in reference.json), a second factorization, closed forms, or a stored
digest of the exact answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import zlib

import qtchroma as qc
from qtchroma.qt import QTCoeff, specialize_q1

HERE = os.path.dirname(os.path.abspath(__file__))

ROADMAP_GRAPH = (0, 0, 0, 1, 2, 3, 4, 5)
LARGE_M = 8
LARGE_MAX_WEIGHT = 15
# The other csf_large graphs are split into this many strata of equal size by
# their reference time, and the seed picks one graph from each: a plain random
# sample of 0.001s-3.7s operations would make the batch time depend on the seed.
LARGE_STRATA = 16
GOLDEN = (5 ** 0.5 - 1) / 2

SWEEP_N = 6
TRANSPORT_N = 4
STAR_MAX_N = 4
VERIFY_MODULAR = (5, 5)   # (n, m)
VERIFY_Q1 = (5, 6)


class Op:
    """One checked library call; ``cases`` is how many verified ops it counts as.

    ``check(result)`` returns None when the result is right, else
    (failed cases, message).
    """

    __slots__ = ("label", "call", "check", "cases")

    def __init__(self, label, call, check, cases=1):
        self.label = label
        self.call = call
        self.check = check
        self.cases = cases


def digest(value):
    """A digest of an exact XPoly or EExpansion, stable across processes."""
    text = json.dumps(value.to_json(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def reference():
    """The stored answers; make_reference.py rebuilds them."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def in_normal_form(coeffs):
    """Whether every coefficient is nonzero and equal, term for term, to its
    own renormalization, as the library's literal ``QTCoeff.__eq__`` needs."""
    return all(c and QTCoeff(c.num, c.den) == c for c in coeffs)


def at_q1(x):
    """An e-expansion with every coefficient specialized at q = 1."""
    return qc.EExpansion(x.n, {lam: specialize_q1(c) for lam, c in x.coeffs.items()})


# ---------------------------------------------------------------------------
# csf_large: qt_csf(e, 8) in the monomial basis
# ---------------------------------------------------------------------------

def large_population():
    return [e for e in qc.enumerate_eseqs(LARGE_M) if qc.eseq_weight(e) <= LARGE_MAX_WEIGHT]


def _check_large(e, stored):
    def check(f):
        if digest(f) != stored:
            return (1, "digest differs from the reference")
        if not qc.is_symmetric(f):
            return (1, "not symmetric")
        if not qc.assert_integral(f):
            return (1, "not integral")
        try:
            lim = qc.XPoly(LARGE_M, {x: qc.limit_q_infinity(c) for x, c in f.terms.items()})
        except qc.QTError as exc:
            return (1, "q -> infinity limit diverges: %s" % exc)
        n = len(e)
        k = n * (n - 1) // 2 - qc.eseq_weight(e)
        if lim != qc.e_poly((n,), LARGE_M) * (qc.t_factorial(n) * qc.qt_monomial(1, 0, k)):
            return (1, "q -> infinity limit differs from the closed form")
        return None
    return check


def csf_large(seed):
    ref = reference()["csf_large"]["graphs"]
    digests = {tuple(g["eseq"]): g["digest"] for g in ref}
    ref_s = {tuple(g["eseq"]): g["ref_s"] for g in ref}
    population = large_population()
    if set(population) != set(digests):
        raise RuntimeError("csf_large reference does not list the graph population")
    others = sorted((e for e in population if e != ROADMAP_GRAPH),
                    key=lambda e: (ref_s[e], e))
    rng = random.Random(seed)
    size = len(others) / LARGE_STRATA
    # The seed sets where the first pick lies in its stratum; each later pick
    # lies a golden-ratio step further round, so cheap and dear places within
    # the strata balance out (the summed reference time of a sample spreads
    # over 5% of its median across seeds, against 10% with independent picks).
    u = rng.random()
    picks = [ROADMAP_GRAPH]
    for s in range(LARGE_STRATA):
        stratum = others[round(s * size):round((s + 1) * size)]
        picks.append(stratum[int((u + s * GOLDEN) % 1.0 * len(stratum))])
    rng.shuffle(picks)
    return [Op("qt_csf%s" % (e,), (lambda e=e: qc.qt_csf(e, LARGE_M)),
               _check_large(e, digests[e])) for e in picks]


# ---------------------------------------------------------------------------
# csf_sweep: expand_in_e(qt_csf(e, 6)) over all Catalan(6) graphs
# ---------------------------------------------------------------------------

def _check_sweep(stored):
    def check(x):
        if not in_normal_form(x.coeffs.values()):
            return (1, "a coefficient is not in normal form")
        if digest(at_q1(x)) == stored:
            return None
        return (1, "q=1 collapse differs from the coloring oracle")
    return check


def csf_sweep(seed):
    oracle = {tuple(g["eseq"]): g["q1_digest"] for g in reference()["csf_sweep"]["graphs"]}
    graphs = qc.enumerate_eseqs(SWEEP_N)
    if set(graphs) != set(oracle):
        raise RuntimeError("csf_sweep reference does not list the Catalan(%d) graphs" % SWEEP_N)
    random.Random(seed).shuffle(graphs)
    return [Op("expand_in_e(qt_csf%s)" % (e,),
               (lambda e=e: qc.expand_in_e(qc.qt_csf(e, SWEEP_N))), _check_sweep(oracle[e]))
            for e in graphs]


# ---------------------------------------------------------------------------
# transport: inverse round trips at n = 4 and star products, cold caches
# ---------------------------------------------------------------------------

def _check_round_trip(e):
    return lambda x: None if x == qc.c_lambda(e) else (1, "round trip differs from c_lambda")


def _check_star(e1, e2, m):
    def check(f):
        return (None if f == qc.qt_csf(qc.concat(e1, e2), m)
                else (1, "star differs from the concatenated graph"))
    return check


def transport(seed):
    ops = []
    for e in qc.enumerate_eseqs(TRANSPORT_N):
        ops.append(Op("q_map_inv_sym(qt_csf%s)" % (e,),
                      (lambda e=e: qc.q_map_inv_sym(qc.qt_csf(e, 2 * TRANSPORT_N))),
                      _check_round_trip(e)))
    for n1 in range(1, STAR_MAX_N):
        for n2 in range(1, STAR_MAX_N - n1 + 1):
            m = 2 * (n1 + n2)
            for e1 in qc.enumerate_eseqs(n1):
                for e2 in qc.enumerate_eseqs(n2):
                    ops.append(Op("star%s%s m=%d" % (e1, e2, m),
                                  (lambda e1=e1, e2=e2, m=m:
                                   qc.star(qc.qt_csf(e1, m), qc.qt_csf(e2, m))),
                                  _check_star(e1, e2, m)))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify: two identity suites, run the way the CLI runs them by default
# ---------------------------------------------------------------------------
# The suites run on their default serial path (jobs=1, the CLI default).  With
# jobs=2 on a 2-vCPU machine the GIL handoff between the two threads doubled
# the run-to-run spread of the batch time (interquartile range 12% against 6%
# of the median, alternating the two in one process), which put the spread of
# ten runs at up to 23% against a bound of 25%.

def _check_report(cases):
    def check(report):
        if report.cases != cases:
            return (cases, "suite ran %d cases, expected %d" % (report.cases, cases))
        if report.ok:
            return None
        return (len(report.failures), "suite found %d failures" % len(report.failures))
    return check


def verify(seed):
    n, m = VERIFY_MODULAR
    modular_cases = 2 * sum(len(qc.modular_triples(k)) for k in range(3, n + 1))
    nq, mq = VERIFY_Q1
    q1_cases = len(qc.enumerate_eseqs(nq))
    return [
        Op("suite_modular(n=%d, m=%d)" % (n, m),
           lambda: qc.suites.suite_modular(n=n, m=m),
           _check_report(modular_cases), modular_cases),
        Op("suite_q1(n=%d, m=%d)" % (nq, mq),
           lambda: qc.suites.suite_q1(n=nq, m=mq),
           _check_report(q1_cases), q1_cases),
    ]


WORKLOADS = {
    "csf_large": csf_large,
    "csf_sweep": csf_sweep,
    "transport": transport,
    "verify": verify,
}


class _CompressingSink:
    """A file for a Pickler to write to; keeps only the compressed bytes."""

    def __init__(self):
        self._z = zlib.compressobj()
        self._chunks = []

    def write(self, data):
        self._chunks.append(self._z.compress(data))

    def close(self):
        self._chunks.append(self._z.flush())
        return b"".join(self._chunks)


def freeze(result):
    """Hold a result as a compressed pickle from its timed call until its
    check, so held results neither raise the peak RSS nor add GC work to later
    calls.  Unpickling restores the objects as the library built them, without
    renormalizing a coefficient.  An exception the call raised is held as it
    is: it counts as a failure whatever it holds, and not every one pickles.

    The pickle is streamed into the compressor without a memo table (results
    are trees, so none is needed): the memo of the largest csf_large result
    alone raised the batch's peak RSS by about 6 MB, above the library's own.
    """
    if isinstance(result, Exception):
        return result
    sink = _CompressingSink()
    pickler = pickle.Pickler(sink, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(result)
    return sink.close()


def thaw(frozen):
    return frozen if isinstance(frozen, Exception) else pickle.loads(zlib.decompress(frozen))


def corrupt(result):
    """Change one coefficient of a result (or fail one suite case)."""
    if isinstance(result, qc.XPoly):
        terms = dict(result.terms)
        x = next(iter(terms))
        terms[x] = terms[x] + 1
        return qc.XPoly(result.m, terms)
    if isinstance(result, qc.EExpansion):
        coeffs = dict(result.coeffs)
        lam = next(iter(coeffs))
        coeffs[lam] = coeffs[lam] + 1
        return qc.EExpansion(result.n, coeffs)
    if isinstance(result, qc.VerifyReport):
        return qc.VerifyReport(result.suite, result.cases,
                               result.failures + [("corrupted", "pass", "fail")],
                               result.elapsed)
    raise TypeError("cannot corrupt %r" % (result,))
