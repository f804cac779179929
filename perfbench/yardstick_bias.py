"""How far the reference-unit scaling favours a change to memory use.

    python3 perfbench/yardstick_bias.py

Run from the repository root.  The reference units run in the benchmark's
own process, so a package change that leaves the caches in another state
can change how long the units after it take, and with them the factor
that scales its time.  This script measures that effect for the change
most likely to cause it: a memo cache on the draft model's
`next_logits_hidden`.  It decodes each chunk of the greedy W=8 held-out
tasks twice in a row, once with and once without the memo (alternating
which goes first), each between blocks of units exactly as the benchmark
runs them (`harness.bracketed`).  The two calls of a pair run within a
few tens of milliseconds, so the machine's own speed swings fall on both.
It prints:

- `unit_shift`: the median over pairs of the unit time around the memo
  call over that around the plain call, minus one.  The scaled figures
  credit the memo with about this share of its time on top of its real
  effect (a negative shift counts against it).
- the memo's tokens/s speed-up, unscaled and scaled.

The memo keeps growing across its calls as a real one would, and it
stays in memory during the plain calls too, so a slowdown that only a
bigger heap causes is not in the figure.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
from specjudge import bench, toymodels  # noqa: E402
from specjudge.engine import LosslessPolicy  # noqa: E402
from yardstick import Yardstick  # noqa: E402

WORKLOAD = "decode-greedy-w8"
ROUNDS = 20


def memoised(step):
    cache = {}

    def memo_step(model, context):
        key = tuple(context)
        if key not in cache:
            cache[key] = step(model, key)
        return cache[key]

    return memo_step


def measure(rounds: int, eval_tasks: int | None = None) -> dict:
    vocab, draft, target = harness.build_models()
    config = harness.engine_config(WORKLOAD)
    tasks = harness.eval_tasks(WORKLOAD, 1, harness.Sizes(eval_tasks=eval_tasks), vocab)
    chunks = [tasks[lo:lo + harness.DECODE_CHUNK]
              for lo in range(0, len(tasks), harness.DECODE_CHUNK)]
    ys = Yardstick()
    plain_step = toymodels.PerturbedModel.next_logits_hidden
    steps = {"plain": plain_step, "memo": memoised(plain_step)}
    calls = {"plain": [], "memo": []}  # (row, wall s, scaled s) per chunk
    for r in range(rounds):
        for i, chunk in enumerate(chunks):
            for side in ("plain", "memo") if (r + i) % 2 == 0 else ("memo", "plain"):
                toymodels.PerturbedModel.next_logits_hidden = steps[side]
                try:
                    calls[side].append(harness.bracketed(ys, lambda: bench.run_policy(
                        chunk, draft, target, LosslessPolicy(), config)))
                finally:
                    toymodels.PerturbedModel.next_logits_hidden = plain_step
    pairs = list(zip(calls["plain"], calls["memo"]))
    if any((p[0].tokens, p[0].accuracy) != (m[0].tokens, m[0].accuracy) for p, m in pairs):
        raise AssertionError("the memo changed the decoded output")
    # wall / scaled time = measured / nominal unit time around a call
    shifts = [(m[1] / m[2]) / (p[1] / p[2]) for p, m in pairs]

    def tok_s(side, scaled):
        return (sum(c[0].tokens for c in calls[side])
                / sum(c[2 if scaled else 1] for c in calls[side]))

    return {"unit_shift": statistics.median(shifts) - 1.0,
            **{f"memo_speedup_{kind}": tok_s("memo", scaled) / tok_s("plain", scaled)
               for kind, scaled in (("unscaled", False), ("scaled", True))}}


if __name__ == "__main__":
    for key, value in measure(ROUNDS).items():
        print(f"{key} = {value:.4f}")
