"""Per-layer spans and counters for a traced benchmark run.

install() wraps the public functions of every qtchroma layer module, and the
arithmetic methods of QTCoeff and XPoly, in every qtchroma namespace that binds
them (``from .hecke import apply_T_inv`` makes qtcsf, qmapstar and suites hold
their own reference, so each is patched).  The program under ``src/`` is not
changed; uninstall() puts the original objects back.

Two kinds of wrapper:

* span layers (hecke, symfn, graphs, qtcsf, qmapstar, suites): every call is
  kept in memory as a span (id, parent id, name, start, end, self time, size)
  and written out by write_spans() when the run ends;
* leaf layers (qt, xring): coefficient and polynomial arithmetic runs millions
  of times, so calls are counted and timed in place, per thread, without a
  span record.

Self time is a call's duration minus the time spent in wrapped callees.  Each
thread keeps its own stack and tallies; worker threads started by a suite get
the suite's span as their parent.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("qt", "xring", "hecke", "symfn", "graphs", "qtcsf", "qmapstar", "suites")
LEAF_LAYERS = ("qt", "xring")

# Class methods wrapped in the leaf layers, with the name their calls are
# counted under (operator and reflected operator count together).
METHODS = {
    ("qt", "QTCoeff"): {
        "__init__": "normalize", "__add__": "add", "__radd__": "add",
        "__sub__": "sub", "__rsub__": "sub", "__mul__": "mul",
        "__rmul__": "mul", "__neg__": "neg", "__truediv__": "div",
        "__rtruediv__": "div", "inverse": "div",
    },
    ("xring", "XPoly"): {
        "__add__": "add", "__sub__": "sub", "__mul__": "mul",
        "__rmul__": "mul", "__neg__": "neg", "scale": "scale",
    },
}

# Functions the per-layer metrics are read from.  Other public functions of
# the layer modules are wrapped too when present, so their time is attributed
# to their own layer; these must exist.
REQUIRED = {
    "hecke": ("apply_T_inv", "apply_T", "apply_pi", "apply_Y"),
    "symfn": ("expand_in_e", "e_poly", "partitions_of"),
    "graphs": ("chromatic_qsf", "enumerate_eseqs"),
    "qtcsf": ("qt_csf", "apply_hatS"),
    "qmapstar": ("q_map_e", "q_map", "q_map_inv_sym", "apply_e_r_Y", "star"),
    "suites": ("suite_modular", "suite_q1"),
}

# Spans whose thread CPU time is read, for the GIL wait inside suites.
CPU_TIMED = ("qtcsf.qt_csf", "graphs.chromatic_qsf")


class TraceError(RuntimeError):
    """A wrapper target is missing, so a layer would go unmeasured."""


class _Thread:
    __slots__ = ("tid", "stack", "leaf", "spans", "counts", "peak")

    def __init__(self, tid, nkeys):
        self.tid = tid
        # A frame is [time covered by wrapped callees, span id, key index].
        self.stack = [[0.0, None, -1]]
        self.leaf = [[0, 0.0] for _ in range(nkeys)]
        self.spans = []
        self.counts = {}
        self.peak = 0


class Tracer:
    """Installs the wrappers, keeps the tallies and summarizes them."""

    def __init__(self):
        self.keys = []          # key index -> "layer.name"
        self._key_index = {}
        self._patched = []      # (namespace, attribute, original)
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._suite_parent = None
        self._local = threading.local()

    # -- thread state ---------------------------------------------------------

    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            with self._lock:
                st = _Thread(len(self._threads), len(self.keys))
                self._threads.append(st)
            self._local.st = st
            return st

    def _key(self, name):
        kid = self._key_index.get(name)
        if kid is None:
            kid = self._key_index[name] = len(self.keys)
            self.keys.append(name)
        return kid

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target and patch every qtchroma namespace binding it."""
        from qtchroma.xring import XPoly
        from qtchroma.symfn import partitions_of
        self._xpoly = XPoly
        self._partitions_of = partitions_of
        mods = {layer: importlib.import_module("qtchroma." + layer) for layer in LAYERS}

        replace = {}   # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for fname in REQUIRED.get(layer, ()):
                fn = getattr(mod, fname, None)
                if not inspect.isfunction(fn):
                    raise TraceError("wrapper target qtchroma.%s.%s no longer exists"
                                     % (layer, fname))
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or id(fn) in replace):
                    continue
                replace[id(fn)] = (fn, self._wrap(fn, "%s.%s" % (layer, fname), layer))

        for (layer, cname), methods in METHODS.items():
            cls = getattr(mods[layer], cname, None)
            if not inspect.isclass(cls):
                raise TraceError("wrapper target qtchroma.%s.%s no longer exists"
                                 % (layer, cname))
            for attr, alias in methods.items():
                fn = cls.__dict__.get(attr)
                if fn is None:
                    raise TraceError("wrapper target qtchroma.%s.%s.%s no longer exists"
                                     % (layer, cname, attr))
                self._patch(cls, attr, fn,
                            self._wrap(fn, "%s.%s.%s" % (layer, cname, alias), layer))

        self._state()   # the installing thread's tallies come first
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qtchroma" or name.startswith("qtchroma.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(ns, attr, val, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        """Put every original object back where it was."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        kid = self._key(name)
        if layer in LEAF_LAYERS:
            return self._leaf_wrapper(fn, kid, layer == "xring")
        if layer == "suites":
            return self._suite_wrapper(fn, kid)
        return self._span_wrapper(fn, kid, self._size_hook(name), name in CPU_TIMED)

    def _size_hook(self, name):
        """The one number kept on a span, and side tallies, per target."""
        xpoly = self._xpoly
        if name in ("hecke.apply_T_inv", "hecke.apply_Y"):
            return lambda st, args, res: len(args[1].terms)
        if name == "qtcsf.apply_hatS":
            return lambda st, args, res: len(res.terms)
        if name == "qmapstar.q_map_inv_sym":
            parts = self._partitions_of
            return lambda st, args, res: len(parts(args[0].degree() or 0))
        if name == "symfn.e_poly":
            peeler = self._key("symfn.expand_in_e")

            def peel_step(st, args, res):
                if st.stack[-1][2] == peeler:
                    c = st.counts
                    c["symfn.expand_in_e.peel_steps"] = c.get("symfn.expand_in_e.peel_steps", 0) + 1
                return None
            return peel_step
        if name == "qtcsf.qt_csf":
            def coeff_sizes(st, args, res):
                if type(res) is xpoly:
                    c = st.counts
                    for coeff in res.terms.values():
                        n = len(coeff.num.terms)
                        c["qt.coeff_count"] = c.get("qt.coeff_count", 0) + 1
                        c["qt.coeff_terms_sum"] = c.get("qt.coeff_terms_sum", 0) + n
                        if n > c.get("qt.coeff_terms_max", 0):
                            c["qt.coeff_terms_max"] = n
                return None
            return coeff_sizes
        return None

    def _span_wrapper(self, fn, kid, size_hook, cpu_timed):
        state = self._state
        ids = self._ids
        xpoly = self._xpoly
        clock = time.perf_counter
        tclock = time.thread_time
        tracer = self

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][1]
            if parent is None:
                parent = tracer._suite_parent
            sid = next(ids)
            frame = [0.0, sid, kid]
            stack.append(frame)
            if cpu_timed:
                c0 = tclock()
            t0 = clock()
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                if cpu_timed and tracer._suite_parent is not None:
                    cpu = tclock() - c0
                    st.counts["suites.gil_wait_s"] = (
                        st.counts.get("suites.gil_wait_s", 0.0) + max(dt - cpu, 0.0))
                size = None
                if res is not None:
                    if size_hook is not None:
                        size = size_hook(st, args, res)
                    if type(res) is xpoly and len(res.terms) > st.peak:
                        st.peak = len(res.terms)
                st.spans.append((sid, parent, kid, st.tid, t0, t1, dt - frame[0], size))
        return _named(wrapper, fn)

    def _leaf_wrapper(self, fn, kid, watch_peak):
        state = self._state
        xpoly = self._xpoly
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            frame = [0.0, stack[-1][1], kid]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                tally = st.leaf[kid]
                tally[0] += 1
                tally[1] += dt - frame[0]
            if watch_peak and type(res) is xpoly and len(res.terms) > st.peak:
                st.peak = len(res.terms)
            return res
        return _named(wrapper, fn)

    def _suite_wrapper(self, fn, kid):
        """A suite span: spans of the worker threads it starts hang below it."""
        tracer = self

        def suite(*args, **kwargs):
            st = tracer._state()
            outer = tracer._suite_parent
            tracer._suite_parent = st.stack[-1][1]
            cpu0 = time.process_time()
            try:
                report = fn(*args, **kwargs)
            finally:
                tracer._suite_parent = outer
            c = st.counts
            c["suites.cpu_s"] = c.get("suites.cpu_s", 0.0) + time.process_time() - cpu0
            c["suites.cases"] = c.get("suites.cases", 0) + report.cases
            c["suites.failures"] = c.get("suites.failures", 0) + len(report.failures)
            c["suites.elapsed_s"] = c.get("suites.elapsed_s", 0.0) + report.elapsed
            return report
        return self._span_wrapper(_named(suite, fn), kid, None, False)

    # -- reading the tallies ----------------------------------------------------

    def main_covered(self):
        """Seconds the installing thread has spent inside wrapped calls."""
        return self._threads[0].stack[0][0]

    def summary(self):
        """Per-key and per-layer totals over every thread."""
        nkeys = len(self.keys)
        calls = [0] * nkeys
        total = [0.0] * nkeys
        self_s = [0.0] * nkeys
        size_sum = [0] * nkeys
        size_max = [0] * nkeys
        counts = {}
        peak = 0
        for st in self._threads:
            for kid, (n, s) in enumerate(st.leaf):
                calls[kid] += n
                self_s[kid] += s
            for (_sid, _parent, kid, _tid, t0, t1, own, size) in st.spans:
                calls[kid] += 1
                total[kid] += t1 - t0
                self_s[kid] += own
                if size is not None:
                    size_sum[kid] += size
                    size_max[kid] = max(size_max[kid], size)
            for k, v in st.counts.items():
                counts[k] = max(counts.get(k, 0), v) if k.endswith("_max") else counts.get(k, 0) + v
            peak = max(peak, st.peak)
        by_name = {name: (calls[i], total[i], self_s[i], size_sum[i], size_max[i])
                   for i, name in enumerate(self.keys)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_n, _t, s, _ss, _sm) in by_name.items():
            layer_self[name.split(".", 1)[0]] += s
        return by_name, layer_self, counts, peak

    def spans(self):
        """Every buffered span: (id, parent id, key index, thread, start,
        end, self seconds, size)."""
        for st in self._threads:
            yield from st.spans

    def write_spans(self, path):
        """Write the buffered spans as JSON lines, names in the first line."""
        with open(path, "w") as out:
            out.write(json.dumps({"keys": self.keys}) + "\n")
            for sid, parent, kid, tid, t0, t1, own, size in self.spans():
                out.write(json.dumps([sid, parent, kid, tid, round(t0, 7),
                                      round(t1, 7), round(own, 7), size]) + "\n")


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper
