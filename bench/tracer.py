"""Span tracing of sparsecf's public functions, from outside the package.

Installing a Tracer replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent) in memory,
in every sparsecf module namespace that holds the function. Calls made
inside the package therefore go through the wrappers too. Uninstalling
puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

LAYERS = ("data", "models", "embeddings", "sparsifier", "evaluation", "trainer")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list = []  # "layer.function" per span
        self.start: list = []
        self.end: list = []
        self.parent: list = []  # span index, -1 for a root
        self.peak_alloc: dict = {}  # span index -> tracemalloc peak bytes
        self._stack: list = []
        self._originals: list = []  # (module, attribute, original function)

    def _wrap(self, name: str, fn, measure_alloc: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            if measure_alloc:
                tracemalloc.start()
            self.start[idx] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    self.peak_alloc[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return wrapper

    def install(self, package, alloc_functions=()) -> None:
        """Wrap the public functions of package.<layer> for every layer."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == package.__name__]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, name in alloc_functions)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._originals.append((m, a, fn))
                            setattr(m, a, wrapped)

    def uninstall(self) -> None:
        for m, a, fn in reversed(self._originals):
            setattr(m, a, fn)
        self._originals.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                rec = {"span": i, "name": name, "start": self.start[i],
                       "end": self.end[i], "parent": self.parent[i]}
                if i in self.peak_alloc:
                    rec["peak_alloc_bytes"] = self.peak_alloc[i]
                fh.write(json.dumps(rec) + "\n")

    def analyse(self):
        """Per-span arrays: duration, self time and root span index."""
        n = len(self.names)
        duration = np.asarray(self.end) - np.asarray(self.start)
        self_time = duration.copy()
        root = np.empty(n, dtype=np.int64)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_time[p] -= duration[i]
                root[i] = root[p]
            else:
                root[i] = i
        return SpanTable(list(self.names), duration, self_time, root, dict(self.peak_alloc))


class SpanTable:
    """Spans as arrays, with queries by function name and by root span."""

    def __init__(self, names, duration, self_time, root, peak_alloc):
        self.names = np.asarray(names)
        self.duration = duration
        self.self_time = self_time
        self.root = root
        self.peak_alloc = peak_alloc

    def roots(self, name: str) -> np.ndarray:
        return np.flatnonzero((self.names == name) & (self.root == np.arange(len(self.names))))

    def under(self, roots: np.ndarray) -> np.ndarray:
        """Mask of the spans that descend from (or are) one of the roots."""
        return np.isin(self.root, roots)

    def calls(self, name: str, within=None) -> np.ndarray:
        sel = self.names == name
        if within is not None:
            sel &= within
        return np.flatnonzero(sel)

    def layer_self_time(self, layer: str, within) -> float:
        sel = within & np.char.startswith(self.names, layer + ".")
        return float(self.self_time[sel].sum())
