"""A fixed reference unit of work that measures the machine's current speed.

On a shared machine the same decode can run twice as slowly for tens of
seconds at a time while CPU time keeps tracking wall time: the process
is not descheduled, the core just does less for it.  Such phases outlast
a whole benchmark run, so no run length averages them away.

The benchmark therefore runs a block of reference units before and after
each timed stretch and scales the stretch's time by nominal / measured
unit time.  The unit is this file's own code, never the package's, so a
change to the package can move it only through the state the package
leaves in the process (caches, heap); `yardstick_bias.py` measures that.
It mimics the package's hot path: a pure-Python FNV-1a hash over a context, dictionary
lookups of n-gram counts, and a handful of numpy operations on a
vocabulary-sized vector.  On a 2-vCPU Xeon VM, greedy lossless tokens/s
over ten seeds had an interquartile range of 27% of the median unscaled
and 2.5% scaled.
"""

from __future__ import annotations

import math
import time

import numpy as np

VOCAB = 117
MASK64 = (1 << 64) - 1
FNV_PRIME = 0x100000001B3
FNV_OFFSET = 0xCBF29CE484222325
STEPS_PER_UNIT = 20
# Seconds per unit on an unloaded core of the machine that recorded
# perfbench/baseline.json; only a scale, so scaled figures read in real units.
NOMINAL_UNIT_S = 0.0016
REFERENCE_SPAN = "perfbench.reference"


class Yardstick:
    def __init__(self):
        self.recorder = None  # a SpanRecorder while a traced phase runs
        rng = np.random.default_rng(0)
        self._embedding = rng.standard_normal((VOCAB, 16))
        self._counts = {tuple(range(i, i + 5)): {j: j + 1 for j in range(i % 7)}
                        for i in range(5000)}
        self._context = list(range(5, 25))

    def _step(self, context) -> np.ndarray:
        h = FNV_OFFSET
        for t in context:
            v = t
            for _ in range(8):
                h = ((h ^ (v & 0xFF)) * FNV_PRIME) & MASK64
                v >>= 8
        probs = np.full(VOCAB, 0.2)
        for tok, c in self._counts.get(tuple(context[-5:]), {}).items():
            probs[tok] += c
        probs = probs / probs.sum()
        logits = np.log(probs)
        emb = self._embedding[context[-15:]].mean(axis=0)
        hv = np.full(VOCAB, h, dtype=np.uint64)
        idx = np.arange(VOCAB, dtype=np.uint64)
        for _ in range(8):
            hv = (hv ^ (idx & np.uint64(0xFF))) * np.uint64(FNV_PRIME)
            idx = idx >> np.uint64(8)
        u = ((hv >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)
        z = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * math.pi * u)
        return np.concatenate([emb, [float(-(probs * logits).sum()),
                                     float(logits.max() + z[0])]])

    def unit(self) -> float:
        """Run one reference unit; return its wall seconds."""
        span = self.recorder.open(REFERENCE_SPAN) if self.recorder else None
        t0 = time.perf_counter()
        for i in range(STEPS_PER_UNIT):
            self._step(self._context + [i])
        seconds = time.perf_counter() - t0
        if span is not None:
            self.recorder.close(span)
        return seconds


def speed_factor(unit_seconds) -> float:
    """nominal / measured time of the units run around some operations.

    Multiplying the operations' wall time by this factor gives their time
    at the machine's nominal speed.
    """
    unit_seconds = list(unit_seconds)
    return len(unit_seconds) * NOMINAL_UNIT_S / sum(unit_seconds)
