"""Record and replay model outputs along one sequence.

A trace holds, for each side (draft and target), the rows
`prompt_len - 1 .. len - 1` of one `forward_parallel(tokens,
start=prompt_len - 1)`: row j has the logits predicting position
`prompt_len + j` and the hidden state encoding `tokens[:prompt_len + j]`.
Replay serves the context `tokens[:c]` from row `c - prompt_len`, bit for
bit, and refuses any context that is not a recorded prefix, so offline
work (mismatch extraction, feature assembly, verification) can run
without the live models.

On disk a trace is a head line `{"tokens", "prompt_len"}` followed by one
JSON line per side, draft then target, holding that side's model name and
its logits and hidden rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lm import (DataError, LanguageModel, LmOutput, TokenSequence, json_int, json_lines,
                 json_str, json_vector, reading, write_json_lines)

SIDES = ("draft", "target")


@dataclass
class Trace:
    tokens: tuple[int, ...]
    prompt_len: int
    names: dict[str, str]  # side -> recorded model's name
    rows: dict[str, LmOutput]  # side -> forward rows prompt_len-1 .. len-1


def record_trace(draft: LanguageModel, target: LanguageModel,
                 seq: TokenSequence) -> Trace:
    """Run both models over `seq` and keep the rows from prompt_len - 1 on."""
    if seq.prompt_len < 1 or len(seq) <= seq.prompt_len:
        raise DataError("trace needs a non-empty prompt and response")
    models = dict(zip(SIDES, (draft, target)))
    return Trace(tokens=seq.tokens, prompt_len=seq.prompt_len,
                 names={s: m.name for s, m in models.items()},
                 rows={s: m.forward_parallel(seq.tokens, start=seq.prompt_len - 1)
                       for s, m in models.items()})


class ReplayModel(LanguageModel):
    """Serves one side of a trace for prefixes of the recorded sequence.

    Any context that is not a recorded prefix (or extends past the
    recorded horizon) is a DataError.
    """

    def __init__(self, trace: Trace, vocab, side: str):
        if side not in SIDES:
            raise DataError("side must be draft or target")
        self.recorded = trace.rows[side]
        if vocab.size != self.recorded.logits.shape[1]:
            raise DataError("vocab size does not match trace")
        self.trace = trace
        self.vocab = vocab
        self.name = f"replay-{trace.names[side]}"
        self.hidden_dim = self.recorded.hidden.shape[1]

    def _check_prefix(self, context: tuple[int, ...]) -> None:
        t = self.trace
        c = len(context)
        if c < t.prompt_len or c > len(t.tokens):
            raise DataError(f"context length {c} outside recorded range")
        if context != t.tokens[:c]:
            raise DataError("context diverges from the recorded sequence")

    def next_logits_hidden(self, context):
        context = tuple(context)
        self._check_prefix(context)
        j = len(context) - self.trace.prompt_len
        return self.recorded.logits[j].copy(), self.recorded.hidden[j].copy()


def save_trace(path: str, trace: Trace) -> None:
    write_json_lines(path, [{"tokens": list(trace.tokens), "prompt_len": trace.prompt_len},
                            *({"side": side, "name": trace.names[side],
                               "logits": trace.rows[side].logits.tolist(),
                               "hidden": trace.rows[side].hidden.tolist()}
                              for side in SIDES)])


def load_trace(path: str) -> Trace:
    with reading(path, "trace file"):
        head, *sides = json_lines(path)
        tokens = tuple(json_int(t, "token") for t in head["tokens"])
        prompt_len = json_int(head["prompt_len"], "prompt_len")
        if not 1 <= prompt_len < len(tokens):
            raise ValueError("trace needs a non-empty prompt and response")
        if [s.get("side") for s in sides] != list(SIDES):
            raise ValueError("expected one draft line and one target line after the head")
        n_rows = len(tokens) - prompt_len + 1
        rows = {}
        for s in sides:
            out = LmOutput(**{key: np.array([json_vector(r, f"{key} row") for r in s[key]])
                              for key in ("logits", "hidden")})
            if any(a.ndim != 2 or len(a) != n_rows for a in (out.logits, out.hidden)):
                raise ValueError(f"{s['side']} logits and hidden must each be "
                                 f"{n_rows} rows (len(tokens) - prompt_len + 1)")
            rows[s["side"]] = out
        return Trace(tokens=tokens, prompt_len=prompt_len,
                     names={s["side"]: json_str(s["name"], "name") for s in sides}, rows=rows)
