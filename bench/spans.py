"""Spans recorded from outside the package, by wrapping its public functions.

While a :class:`Tracer` is installed, every public function defined in the
traced ``psld`` modules is replaced by a wrapper that records a span (name,
start, end, parent) around the call. The wrapper is bound under every name
that refers to the original function in any loaded ``psld`` module, because
``psld.training`` and the package root import some functions by name. On
exit every binding is restored to the original object.

A few spans also carry counters computed from the call's arguments and
return value (see ``COUNTERS``). They are read-only: nothing the program
computes or writes is changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("dataset", "decomposition", "sampler", "model", "training")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and their durations add up to the part of the parent they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _rss_partition(bound, result) -> dict:
    return {
        "bytes": sum(b.node_index.nbytes + b.x.nbytes + b.y.nbytes + b.adjacency.nbytes
                     for b in result),
        "windows": tuple(b.x.shape[0] for b in result),
    }


def _decompose(bound, result) -> dict:
    return {"rows": bound.arguments["y"].shape[0]}


def _forward(bound, result) -> dict:
    caches = list(result.head_caches.values()) + [result.cbn_cache]
    arrays = {}
    for cache in caches:
        for arr in (cache.z, cache.h1, cache.mask, cache.ad, cache.h2, cache.out):
            if arr is not None:
                arrays[id(arr)] = arr.nbytes
    return {"training": bool(bound.arguments["training"]),
            "cache_bytes": sum(arrays.values())}


def _evaluate(bound, result) -> dict:
    t0, t1 = bound.arguments["split"]
    config = bound.arguments["config"]
    n_win = (t1 - t0) - config.l_in - config.l_out + 1
    return {"rows": n_win * bound.arguments["store"].n_nodes}


# Computed counters: derived from arguments and results, not counted by the program.
COUNTERS = {
    "sampler.rss_partition": _rss_partition,
    "decomposition.decompose": _decompose,
    "model.forward": _forward,
    "training.evaluate": _evaluate,
}


class Tracer:
    """Records spans while installed as a context manager.

    ``replaced`` lists (module, attribute, original) for every binding the
    tracer swapped for a wrapper; leaving the context puts each back.
    """

    def __init__(self):
        self.spans: list = []
        self.replaced: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = counter(bound, result)
            return result

        return wrapper

    def __enter__(self):
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "psld" or n.startswith("psld."))]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"psld.{short}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self.replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        return False
