"""Traced mode: spans around the program's public functions, a counting
wrapper around numpy's random generators, and the per-layer reduction.

The tracer works from outside the program.  For each module of the
package it replaces every public function found in the module's
namespace by a wrapper that records a span named after that namespace,
e.g. ``analysis.hr_signal_derivative`` or ``montecarlo.rotation_matrix``
for functions the module imported from elsewhere.  A span belongs to the
layer that defines the function.  Spans are kept in memory; a layer's
self time is its spans' durations minus the part of each span that its
child spans cover.  The traced run writes them out at the end
(see write_spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

LAYERS = ("cli", "montecarlo", "noise", "spincore", "analytic", "analysis")
_PACKAGE = "hahnramsey"
_COUNTED_DRAWS = ("normal", "exponential", "random")


class _CountingGenerator:
    """Delegates to a numpy Generator, counting and timing the draws of
    the methods the Monte Carlo kernels use.  The stream is untouched."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _COUNTED_DRAWS:
            return attr
        tracer = self._tracer

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            out = attr(*args, **kwargs)
            dt = time.perf_counter() - t0
            with tracer.lock:
                tracer.rng_draws += np.size(out)
                tracer.rng_s += dt
            return out

        return counted


class Tracer:
    """Installs span wrappers into the package's module namespaces and
    restores the originals on uninstall."""

    def __init__(self):
        self.spans = []                  # (id, parent, name, layer, t0, t1)
        self.rng_draws = 0
        self.rng_s = 0.0
        self.curve_fit_calls = 0
        self.lock = threading.Lock()
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{_PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(_PACKAGE + "."):
                    continue
                self._patch(module, name,
                            self._span_wrapper(f"{layer}.{name}",
                                               home.rsplit(".", 1)[-1], obj))
        analysis = importlib.import_module(f"{_PACKAGE}.analysis")
        self._patch(analysis, "curve_fit", self._counter(analysis.curve_fit))
        self._patch(np.random, "default_rng", self._rng_factory(np.random.default_rng))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _patch(self, module, name, wrapper) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _span_wrapper(self, name, layer, fn):
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs off the span the main
                # thread has open, which is the one that fanned out
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, layer, t0, t1))

        return traced

    def _counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self.lock:
                self.curve_fit_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _rng_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return _CountingGenerator(factory(*args, **kwargs), self)

        return make

    # -- reduction --------------------------------------------------------

    def take(self) -> dict:
        """Reduce and clear everything recorded since the last call."""
        with self.lock:
            spans, self.spans[:] = list(self.spans), []
            counts = {"rng_draws": self.rng_draws, "rng_s": self.rng_s,
                      "curve_fit_calls": self.curve_fit_calls}
            self.rng_draws, self.rng_s, self.curve_fit_calls = 0, 0.0, 0
        return {"spans": spans, **counts, **reduce_spans(spans)}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def reduce_spans(spans) -> dict:
    """Per-layer call counts, self time and busy time (time in spans of
    the layer that were not called from the same layer), plus the total
    duration per span name."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    busy_s = dict.fromkeys(LAYERS, 0.0)
    by_name = {}
    for sid, parent, name, layer, t0, t1 in spans:
        calls[layer] += 1
        kids = [(max(c[4], t0), min(c[5], t1)) for c in children.get(sid, ())]
        self_s[layer] += (t1 - t0) - _covered(kids)
        parent_span = by_id.get(parent)
        caller = parent_span[3] if parent_span else None
        if caller != layer:
            busy_s[layer] += t1 - t0
        key = (name, caller)
        by_name[key] = by_name.get(key, 0.0) + (t1 - t0)
    return {"calls": calls, "self_s": self_s, "busy_s": busy_s,
            "by_name": by_name}


def span_time(reduced: dict, name: str, caller: str | None = "*") -> float:
    """Total time in spans called `name`, optionally only those whose
    parent span is in layer `caller`."""
    return sum(t for (n, c), t in reduced["by_name"].items()
               if n == name and (caller == "*" or c == caller))


def spans_to_arrays(spans, index: dict) -> dict:
    """Columnar form of a span list.  `index` maps span names to codes and
    grows with names it has not seen, so that the chunks of a run share
    one code table."""
    for s in spans:
        index.setdefault(s[2], len(index))
    return {
        "id": np.array([s[0] for s in spans], dtype=np.int64),
        "parent": np.array([s[1] for s in spans], dtype=np.int64),
        "name": np.array([index[s[2]] for s in spans], dtype=np.int32),
        "layer": np.array([LAYERS.index(s[3]) for s in spans], dtype=np.int8),
        "start": np.array([s[4] for s in spans]),
        "end": np.array([s[5] for s in spans]),
    }


def write_spans(path, chunks, index: dict) -> None:
    """Write the span chunks of a run to one .npz file: the columns of
    spans_to_arrays, plus the tables `names` (by code) and `layers`."""
    columns = {}
    for key in list(chunks[0]):      # column by column, freeing the chunks' copy
        columns[key] = np.concatenate([c.pop(key) for c in chunks])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **columns, names=np.array(list(index)),
                        layers=np.array(LAYERS))
