"""Span tracer that wraps primeconv's module-level functions from outside.

Every cross-module call in primeconv goes through a module attribute, and
calls inside a module resolve through the module's globals, so replacing the
attribute is enough to wrap a function. `Tracer.install` does that for the
layer functions listed in `LAYER_FUNCTIONS`; `Tracer.uninstall` puts the
originals back. Spans (name, start, end, parent, thread) and counters stay in
memory; `metrics` turns them into per-layer figures and `dump` writes the raw
spans out at the end of a run.

With `memory=True` tracemalloc runs while any span in `PEAK_SPANS` is open and
gives their `.peak_mb`. It slows Python-level allocation about twofold, so the
benchmark takes the peaks from a round of their own and the times from a
round without it.

Self time is computed by a sweep over span boundaries: each instant of the
traced interval goes to the innermost spans open at that instant, split evenly
when worker threads have several open at once, or to `outside` when none is
open. Self times plus the outside time therefore add up to the traced wall
time exactly, threads included. Inclusive `.s` figures are summed span
durations, so work done in two threads at once counts twice there.
"""

import importlib
import json
import math
import threading
import time
import tracemalloc
from collections import defaultdict

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>", except for the NTT and screen spans renamed below.
LAYER_FUNCTIONS = (
    ("segmentation", "make_params"),
    ("sieve", "primes_up_to"),
    ("sieve", "mu_up_to"),
    ("sieve", "screen_chunk"),
    ("modmath", "ntt_forward"),
    ("modmath", "ntt_inverse"),
    ("modmath", "power_series_exp"),
    ("modmath", "convolve_mod"),
    ("smooth_mobius", "smooth_mobius_cells"),
    ("smooth_mobius", "make_partitions"),
    ("error_correction", "pairs_correction"),
    ("error_correction", "triples_correction"),
    ("counting", "count_primes_result"),
    ("counting", "sum_over_primes_result"),
    ("counting", "count_primes_mod_result"),
    ("counting", "mertens_result"),
    ("counting", "mertens_multi"),
    ("counting", "count_squarefree_result"),
    ("counting", "totient_sum_result"),
    ("oracles", "pi_naive"),
    ("oracles", "mertens_naive"),
    ("oracles", "sqfree_naive"),
    ("oracles", "totient_sum_naive"),
    ("oracles", "sum_primes_naive"),
    ("oracles", "pi_mod_naive"),
    ("cli", "main"),
)

LAYERS = ("segmentation", "sieve", "modmath", "smooth_mobius",
          "error_correction", "counting", "oracles", "cli")

# spans whose peak traced memory (tracemalloc) is reported as .peak_mb
PEAK_SPANS = ("smooth_mobius.smooth_mobius_cells",
              "error_correction.pairs_correction",
              "error_correction.triples_correction")

_MB = float(1 << 20)


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "start", "end",
                 "mem_base", "mem_max")

    def __init__(self, sid, name, parent, thread, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.mem_base = 0
        self.mem_max = 0

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end}


class Tracer:
    """Records spans and counters for one traced region of one process."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.t_start = None
        self.t_end = None
        self._local = threading.local()
        self._main_stack = None
        self._main_thread = None
        self._lock = threading.Lock()
        self._open_peak = []
        self._originals = []

    # -- installation -----------------------------------------------------

    def install(self):
        for mod_name, fn_name in LAYER_FUNCTIONS:
            module = importlib.import_module(f"primeconv.{mod_name}")
            original = getattr(module, fn_name)
            self._originals.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(mod_name, fn_name, original))

    def uninstall(self):
        for module, fn_name, original in reversed(self._originals):
            setattr(module, fn_name, original)
        self._originals = []

    def start(self):
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self.t_start = time.perf_counter()

    def stop(self):
        self.t_end = time.perf_counter()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif threading.get_ident() != self._main_thread and self._main_stack:
            # a worker thread's first span was caused by the span the main
            # thread is waiting in
            parent = self._main_stack[-1].sid
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(),
                        time.perf_counter())
            self.spans.append(span)
            if self.memory and name in PEAK_SPANS:
                if not self._open_peak:
                    tracemalloc.start()
                self._fold_peak()
                span.mem_base = span.mem_max = tracemalloc.get_traced_memory()[0]
                self._open_peak.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        if self.memory and span.name in PEAK_SPANS:
            with self._lock:
                self._fold_peak()
                self._open_peak.remove(span)
                if not self._open_peak:
                    tracemalloc.stop()
            self.high(span.name + ".peak_bytes", span.mem_max - span.mem_base)

    def _fold_peak(self):
        """Credit the traced peak since the last reset to every open span
        that reports a peak, then start a new peak interval."""
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._open_peak:
            span.mem_max = max(span.mem_max, peak)
        tracemalloc.reset_peak()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def high(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def _wrap(self, mod_name, fn_name, original):
        tracer = self
        before = _BEFORE.get((mod_name, fn_name))
        after = _AFTER.get((mod_name, fn_name))
        span_name = _SPAN_NAMES.get((mod_name, fn_name), f"{mod_name}.{fn_name}")

        def wrapper(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = fn_name
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time and the time outside every span (see module
        docstring), over the traced interval."""
        events = []
        for span in self.spans:
            events.append((span.start, 1, span.sid))
            events.append((span.end, 0, span.sid))
        events.sort()
        open_children = defaultdict(int)
        leaves = set()
        self_s = defaultdict(float)
        outside = 0.0
        last = self.t_start
        for t, kind, sid in events:
            dt = t - last
            if dt > 0:
                if leaves:
                    share = dt / len(leaves)
                    for leaf in leaves:
                        self_s[leaf] += share
                else:
                    outside += dt
                last = t
            parent = self.spans[sid].parent
            if kind == 1:
                leaves.add(sid)
                if parent is not None:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(sid)
                if parent is not None:
                    open_children[parent] -= 1
                    if open_children[parent] == 0 and self.spans[parent].end > t:
                        leaves.add(parent)
        outside += self.t_end - last
        return self_s, outside

    def metrics(self):
        """Per-layer figures by metric name (unit implied by the suffix)."""
        wall = self.t_end - self.t_start
        self_by_id, outside = self.self_times()
        incl = defaultdict(float)
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        spans = self.spans  # a span's id is its index in this list
        for span in spans:
            # inclusive time of a name counts only its outermost spans
            p = span.parent
            nested = False
            while p is not None:
                if spans[p].name == span.name:
                    nested = True
                    break
                p = spans[p].parent
            if not nested:
                incl[span.name] += span.end - span.start
            calls[span.name] += 1
            self_by_name[span.name] += self_by_id.get(span.sid, 0.0)

        def total(prefix, table):
            return sum((v for k, v in table.items() if k.startswith(prefix)), 0.0)

        c = self.counts
        counting_calls = sum(
            1 for s in self.spans if s.name.startswith("counting.")
            and (s.parent is None or not spans[s.parent].name.startswith("counting.")))
        out = {
            "trace.wall_s": wall,
            "trace.outside_s": outside,
            "segmentation.make_params.s": incl["segmentation.make_params"],
            "segmentation.make_params.calls": calls["segmentation.make_params"],
            "segmentation.boundary_entries": c["segmentation.boundary_entries"],
            "segmentation.window_len": self.maxima["segmentation.window_len"],
            "sieve.primes_up_to.s": incl["sieve.primes_up_to"],
            "sieve.mu_up_to.s": incl["sieve.mu_up_to"],
            "sieve.screen_chunk.calls": (calls["sieve.screen_chunk.divisor"]
                                         + calls["sieve.screen_chunk.window"]),
            "sieve.screen_chunk.smooth_elements": c["sieve.screen_chunk.smooth_elements"],
            "sieve.screen_chunk.divisor.s": incl["sieve.screen_chunk.divisor"],
            "sieve.screen_chunk.divisor.elements": c["sieve.screen_chunk.divisor.elements"],
            "sieve.screen_chunk.window.s": incl["sieve.screen_chunk.window"],
            "sieve.screen_chunk.window.elements": c["sieve.screen_chunk.window.elements"],
            "modmath.ntt.s": incl["modmath.ntt"],
            "modmath.ntt.calls": calls["modmath.ntt"],
            "modmath.ntt.elements": c["modmath.ntt.elements"],
            "modmath.ntt.butterflies": c["modmath.ntt.butterflies"],
            "modmath.power_series_exp.s": incl["modmath.power_series_exp"],
            "modmath.power_series_exp.calls": calls["modmath.power_series_exp"],
            "modmath.convolve_mod.s": incl["modmath.convolve_mod"],
            "modmath.convolve_mod.calls": calls["modmath.convolve_mod"],
            "smooth_mobius.smooth_mobius_cells.s": incl["smooth_mobius.smooth_mobius_cells"],
            "smooth_mobius.smooth_mobius_cells.calls": calls["smooth_mobius.smooth_mobius_cells"],
            "smooth_mobius.smooth_mobius_cells.self_s": self_by_name["smooth_mobius.smooth_mobius_cells"],
            "smooth_mobius.smooth_mobius_cells.peak_mb":
                self.maxima["smooth_mobius.smooth_mobius_cells.peak_bytes"] / _MB,
            "smooth_mobius.partitions": c["smooth_mobius.partitions"],
            "smooth_mobius.pad_elements": c["smooth_mobius.pad_elements"],
            "error_correction.pairs_correction.s": incl["error_correction.pairs_correction"],
            "error_correction.pairs_correction.calls": calls["error_correction.pairs_correction"],
            "error_correction.pairs_correction.self_s": self_by_name["error_correction.pairs_correction"],
            "error_correction.pairs_correction.peak_mb":
                self.maxima["error_correction.pairs_correction.peak_bytes"] / _MB,
            "error_correction.triples_correction.s": incl["error_correction.triples_correction"],
            "error_correction.triples_correction.calls": calls["error_correction.triples_correction"],
            "error_correction.triples_correction.pairs": c["error_correction.triples_correction.pairs"],
            "error_correction.triples_correction.peak_mb":
                self.maxima["error_correction.triples_correction.peak_bytes"] / _MB,
            "counting.calls": counting_calls,
            "counting.mertens_multi.s": incl["counting.mertens_multi"],
            "counting.mertens_multi.thresholds": c["counting.mertens_multi.thresholds"],
            "oracles.s": total("oracles.", incl),
            "cli.self_s": self_by_name["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = total(layer + ".", self_by_name)
        return out

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"t_start": self.t_start, "t_end": self.t_end,
                       "spans": [s.as_dict() for s in self.spans],
                       "counts": dict(self.counts),
                       "maxima": dict(self.maxima), **extra}, fh)


# -- per-function hooks -------------------------------------------------------

def _screen_name(args, kwargs):
    return ("sieve.screen_chunk.window" if kwargs.get("want_excess")
            else "sieve.screen_chunk.divisor")


_SPAN_NAMES = {
    ("sieve", "screen_chunk"): _screen_name,
    ("modmath", "ntt_forward"): "modmath.ntt",
    ("modmath", "ntt_inverse"): "modmath.ntt",
}


def _before_ntt(tracer, args, kwargs):
    values, ctx = args[0], args[1]
    size = getattr(values, "size", None) or len(values)
    tracer.add("modmath.ntt.elements", size)
    # computed, not counted: a radix-2 transform of length L does L/2
    # butterflies in each of log2(L) stages, per batch row
    tracer.add("modmath.ntt.butterflies", (size // 2) * int(math.log2(ctx.length)))


def _before_triples(tracer, args, kwargs):
    trunc, mu_table = args[1], args[2]
    squarefree = int((mu_table.values[1:trunc + 1] != 0).sum())
    tracer.add("error_correction.triples_correction.pairs", squarefree * squarefree)


def _before_mertens_multi(tracer, args, kwargs):
    tracer.add("counting.mertens_multi.thresholds", len(args[0]))


def _after_make_params(tracer, name, args, kwargs, params):
    tracer.add("segmentation.boundary_entries", len(params.bounds))
    if params.window:
        tracer.high("segmentation.window_len", params.window)


def _after_screen(tracer, name, args, kwargs, result):
    lo, hi = args[0], args[1]
    tracer.add(name + ".elements", hi - lo)
    tracer.add("sieve.screen_chunk.smooth_elements", int(result[0].sum()))


def _after_partitions(tracer, name, args, kwargs, parts):
    tracer.add("smooth_mobius.partitions", len(parts))
    tracer.add("smooth_mobius.pad_elements", sum(p.pad_length for p in parts))


_BEFORE = {
    ("modmath", "ntt_forward"): _before_ntt,
    ("modmath", "ntt_inverse"): _before_ntt,
    ("error_correction", "triples_correction"): _before_triples,
    ("counting", "mertens_multi"): _before_mertens_multi,
}

_AFTER = {
    ("segmentation", "make_params"): _after_make_params,
    ("sieve", "screen_chunk"): _after_screen,
    ("smooth_mobius", "make_partitions"): _after_partitions,
}
