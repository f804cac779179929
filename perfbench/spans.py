"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, size), where size is an optional
count of work the call did (rows, tokens).  Spans are appended when they
open, so every span's index is larger than its parent's.  Spans live in
flat arrays while the run goes on and are written out once, at the end.

`Tracer` installs timing wrappers around the package's public functions
at the place each one is looked up at call time (a module global or a
class attribute), and restores the originals on `uninstall`.  The
wrappers only time and count; arguments and results pass through
untouched, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    """Flat, append-only span store with an explicit open-span stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.size.append(0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, measure=None):
        """`fn` inside a span; `measure(result)` becomes the span's size."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.size[idx] = measure(result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns as numpy arrays, keyed by column name."""
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "size": np.array(self.size, dtype=np.int64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread under a stack discipline, so the children
    of a span never overlap and the time they cover is their summed
    duration.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def nearest(parent, is_target) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self with `is_target`, else -1."""
    parent = np.asarray(parent)
    is_target = np.asarray(is_target, dtype=bool)
    found = np.where(is_target, np.arange(len(parent)), -1)
    cursor = parent.copy()
    todo = (found < 0) & (cursor >= 0)
    while todo.any():
        hit = todo.copy()
        hit[todo] = is_target[cursor[todo]]
        found[hit] = cursor[hit]
        cursor[todo] = parent[cursor[todo]]
        todo = (found < 0) & (cursor >= 0)
    return found


class Tracer:
    """Installs `recorder` wrappers at (owner, attribute) lookup points."""

    def __init__(self, recorder: SpanRecorder, points):
        """`points`: iterable of (owner, attribute, span name, measure or None)."""
        self.recorder = recorder
        self.points = list(points)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, measure in self.points:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(original, name, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
