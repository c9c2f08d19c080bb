"""Span tracing of sparsepcm from outside the package.

The tracer wraps every public function of every package module and
rebinds each name wherever it is bound: in the defining module and in
every module that imported it with ``from .x import name``.  Calls
between layers, and calls through function-local imports, then pass
through the wrappers without any change to the package itself.

A span is (name, layer, start, end, parent).  Spans stay in memory for
one pass and are folded into per-layer totals when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "sparsepcm"
LAYERS = ("datagen", "core", "fcm", "solver", "algorithms", "metrics", "cli")


class TraceError(RuntimeError):
    """The trace is inconsistent, so its per-layer numbers cannot be used."""


def _layer_modules():
    return {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _public_functions(module):
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Collects spans and per-call counts for the wrapped functions."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, outermost]
        self.counts = defaultdict(float)
        self._stack = []
        self._depth = defaultdict(int)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)

    def _wrap(self, name, layer, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, layer, 0.0, None, parent, self._depth[layer] == 0]
            self.spans.append(span)
            self._stack.append(idx)
            self._depth[layer] += 1
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._depth[layer] -= 1
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, fn, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every public package function to its wrapper, then restore."""
        wrappers = {}
        for layer, module in _layer_modules().items():
            for name, fn in _public_functions(module).items():
                qual = f"{layer}.{name}"
                wrappers[fn] = self._wrap(qual, layer, fn, _COUNTERS.get(qual))
        rebound = []
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    rebound.append((module, attr, value))
        try:
            _check_rebound(wrappers)
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def fold(self, wall):
        """Per-layer totals of the spans recorded since the last reset.

        wall is the benchmark's own timing of the traced calls; the part
        of it no top-level span covers is reported as the remainder.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for i, (_, _, start, end, parent, _) in enumerate(spans):
            if end is None:
                raise TraceError(f"span {spans[i][0]} never ended")
            if parent >= 0:
                pstart, pend = spans[parent][2], spans[parent][3]
                if start < pstart or end > pend:
                    raise TraceError(
                        f"span {spans[i][0]} lies outside its parent {spans[parent][0]}"
                    )
                child_time[parent] += end - start
        busy = defaultdict(float)      # per function and per layer (outermost)
        self_time = defaultdict(float)  # per function and per layer
        top = 0.0
        for i, (name, layer, start, end, parent, outermost) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            busy[name] += dur
            self_time[name] += own
            self_time[layer] += own
            if outermost:
                busy[layer] += dur
            if parent < 0:
                top += dur
        remainder = wall - top
        total = sum(self_time[layer] for layer in LAYERS) + remainder
        if abs(total - wall) > 1e-9 * max(1.0, wall) * max(1, len(spans)):
            raise TraceError(
                f"layer self times plus remainder ({total:.9f} s) "
                f"differ from the traced wall ({wall:.9f} s)"
            )
        return busy, self_time, remainder, dict(self.counts)


def _check_rebound(wrappers):
    """Fail if any package module still binds an unwrapped original."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value in wrappers:
                raise TraceError(f"{module.__name__}.{attr} was not rebound")


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_distances(counts, fn, args, kwargs, d):
    n_features = _bound(fn, args, kwargs)["data"].n_features
    counts["core.squared_distances.bytes"] += d.size * n_features * 8


def _count_memberships(counts, fn, args, kwargs, result):
    u = np.asarray(getattr(result, "u", result))
    counts["solver.entries"] += u.size
    counts["solver.zeros"] += np.count_nonzero(u == 0.0)


def _count_fcm(counts, fn, args, kwargs, result):
    counts["fcm.iterations"] += result.iterations
    counts["fcm.max_iter_hits"] += result.iterations >= _bound(fn, args, kwargs)["max_iter"]


def _count_run(counts, fn, args, kwargs, report):
    config = _bound(fn, args, kwargs)["config"]
    counts["algorithms.iterations"] += report.iterations
    counts["algorithms.max_iter_hits"] += report.iterations >= config.max_iter
    counts["algorithms.clusters_eliminated"] += report.m_ini - report.m_final


_COUNTERS = {
    "core.squared_distances": _count_distances,
    "solver.update_memberships": _count_memberships,
    "fcm.run_fcm": _count_fcm,
    "algorithms.run": _count_run,
}
