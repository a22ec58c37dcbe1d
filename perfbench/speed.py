"""The host's speed, sampled while a batch runs, so that op times can be given
in units of a fixed calibration loop.

On a shared host the speed of a vCPU changes by up to a half within seconds
and drifts over minutes with other tenants' load, and every raw time moves
with it: the middle half of the raw batch times of five to ten runs of one
workload spread by 10-30% of their median on a 2-vCPU VM.  The calibration loop
is fixed pure-Python work that does not touch the library: sums of products of
sparse Laurent polynomials in q and t held as dicts from exponent pairs to
integers, built the way the library builds its coefficients (a new object and
dict per result).  Of the loops tried against library calls on a 2-vCPU VM,
this one followed the speed of a csf_sweep call best; loops that also walk a
pool of 4096 or 32768 such polynomials followed the memory-heavier csf_large
calls no better.

The loop is timed between every two ops and, from a SIGALRM handler, every
SAMPLE_PERIOD_S during an op, because a single csf_large call lasts up to
3.7 s and the host changes speed within it.  An op's time in loop units is
its latency (the handler's own time taken out) times the mean of 1/(loop
time) over the samples taken during it and just before and after it.
"""

from __future__ import annotations

import bisect
import signal
import time

SAMPLE_PERIOD_S = 0.05
LOOP_ROUNDS = 100


class _Poly:
    """A copy of the library's Laurent-polynomial sum and product, kept here
    so that a change to the library does not change the loop."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for (qa, ta), va in self.terms.items():
            for (qb, tb), vb in other.terms.items():
                k = (qa + qb, ta + tb)
                s = out.get(k, 0) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _Poly(out)


_POLYS = [_Poly({((p * 5 + i * 3) % 6, (p * 7 + i) % 6): (p * 31 + i * 17) % 9 * 10 ** 12 + 1
                 for i in range(6)}) for p in range(64)]


def calibration_loop():
    acc = _Poly({})
    for i in range(LOOP_ROUNDS):
        acc = acc + _POLYS[i % 64] * _POLYS[7 * i % 64]
    return acc


class SpeedSampler:
    """Times the calibration loop on demand and, while started, every
    SAMPLE_PERIOD_S from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.starts = []   # perf_counter at the start of each sample, ascending
        self.ends = []
        self._busy = False
        calibration_loop()   # warm-up, not recorded

    def sample(self):
        self._busy = True   # an alarm during this sample takes none of its own
        a = time.perf_counter()
        calibration_loop()
        self.starts.append(a)
        self.ends.append(time.perf_counter())
        self._busy = False

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self):
        """Every sampled loop time, in order."""
        return [b - a for a, b in zip(self.starts, self.ends)]

    def op_time(self, a, b):
        """(latency, time in loop units) of an op that ran from a to b, with
        a sample taken just before a and just after b."""
        lo = bisect.bisect_left(self.starts, a) - 1
        hi = bisect.bisect_right(self.starts, b)
        inside = range(lo + 1, hi)
        latency = (b - a) - sum(self.ends[k] - self.starts[k] for k in inside)
        inverse = [1.0 / (self.ends[k] - self.starts[k]) for k in range(lo, hi + 1)]
        return latency, latency * sum(inverse) / len(inverse)
