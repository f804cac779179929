"""Record and replay model outputs along one sequence.

A trace stores, for every response position, both models' prediction
logits (top-m entries plus a uniform tail mass) and hidden states.  Replay
backends serve exactly the recorded prefixes and refuse anything else, so
offline work (mismatch extraction, feature assembly, verification) can run
without the live models, and with top_m = |V| it is bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lm import DataError, LanguageModel, TokenSequence, softmax


class TraceDivergenceError(DataError):
    """A replayed model was queried off the recorded sequence."""


@dataclass
class TopLogits:
    """Top-m logits by probability plus the probability mass of the rest."""

    entries: list[tuple[int, float]]  # (token id, logit), descending
    tail_mass: float

    @classmethod
    def compress(cls, logits: np.ndarray, top_m: int) -> "TopLogits":
        order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))[:top_m]
        if top_m >= len(logits):
            tail = 0.0
        else:
            probs = softmax(logits)
            tail = float(max(0.0, 1.0 - probs[order].sum()))
        return cls(entries=[(int(i), float(logits[i])) for i in order], tail_mass=tail)

    def expand(self, vocab_size: int) -> np.ndarray:
        """Reconstruct a full logits row, uniform over unretained tokens."""
        if len(self.entries) >= vocab_size:
            out = np.empty(vocab_size)
            for i, l in self.entries:
                out[i] = l
            return out
        top = np.array([l for _, l in self.entries])
        log_z = _logsumexp(top) - np.log1p(-self.tail_mass)
        share = max(self.tail_mass, 1e-300) / (vocab_size - len(self.entries))
        out = np.full(vocab_size, float(np.log(share) + log_z))
        for i, l in self.entries:
            out[i] = l
        return out


def _logsumexp(x: np.ndarray) -> float:
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


@dataclass
class TraceRecord:
    """Both models' view of one response position."""

    pos: int
    token: int
    draft_top: TopLogits  # predicts this position
    target_top: TopLogits
    draft_hidden: np.ndarray  # encodes this position
    target_hidden: np.ndarray


@dataclass
class Trace:
    tokens: tuple[int, ...]
    prompt_len: int
    vocab_size: int
    top_m: int
    draft_name: str
    target_name: str
    records: list[TraceRecord]
    # Row prompt_len-1 hidden halves and the row past the final token,
    # which no per-position record covers.
    prompt_last_hidden: dict[str, np.ndarray]
    final_top: dict[str, TopLogits]

    def replay_models(self, vocab) -> tuple["ReplayModel", "ReplayModel"]:
        return ReplayModel(self, vocab, "draft"), ReplayModel(self, vocab, "target")


def record_trace(draft: LanguageModel, target: LanguageModel, seq: TokenSequence,
                 top_m: int) -> Trace:
    """Run both models over `seq` and capture every response position."""
    if not 1 <= top_m <= target.vocab.size:
        raise DataError("top_m must be in 1..|V|")
    if seq.prompt_len < 1 or len(seq) <= seq.prompt_len:
        raise DataError("trace needs a non-empty prompt and response")
    d_out = draft.forward_parallel(seq.tokens)
    t_out = target.forward_parallel(seq.tokens)
    records = []
    for pos in range(seq.prompt_len, len(seq)):
        records.append(TraceRecord(
            pos=pos, token=seq.tokens[pos],
            draft_top=TopLogits.compress(d_out.logits[pos - 1], top_m),
            target_top=TopLogits.compress(t_out.logits[pos - 1], top_m),
            draft_hidden=d_out.hidden[pos].copy(),
            target_hidden=t_out.hidden[pos].copy(),
        ))
    last = len(seq) - 1
    return Trace(
        tokens=seq.tokens, prompt_len=seq.prompt_len, vocab_size=target.vocab.size,
        top_m=top_m, draft_name=draft.name, target_name=target.name, records=records,
        prompt_last_hidden={"draft": d_out.hidden[seq.prompt_len - 1].copy(),
                            "target": t_out.hidden[seq.prompt_len - 1].copy()},
        final_top={"draft": TopLogits.compress(d_out.logits[last], top_m),
                   "target": TopLogits.compress(t_out.logits[last], top_m)},
    )


class ReplayModel(LanguageModel):
    """Serves one side of a trace for prefixes of the recorded sequence.

    Any context that is not a recorded prefix (or extends past the
    recorded horizon) raises TraceDivergenceError.  Rows interior to the
    prompt were never recorded; forward_parallel fills them with zeros.
    """

    def __init__(self, trace: Trace, vocab, side: str):
        if side not in ("draft", "target"):
            raise DataError("side must be draft or target")
        if vocab.size != trace.vocab_size:
            raise DataError("vocab size does not match trace")
        self.trace = trace
        self.vocab = vocab
        self.side = side
        self.name = f"replay-{trace.draft_name if side == 'draft' else trace.target_name}"
        dim = len(trace.prompt_last_hidden[side])
        self.hidden_dim = dim
        self._by_pos = {r.pos: r for r in trace.records}

    def _record_top(self, rec: TraceRecord) -> TopLogits:
        return rec.draft_top if self.side == "draft" else rec.target_top

    def _record_hidden(self, rec: TraceRecord) -> np.ndarray:
        return rec.draft_hidden if self.side == "draft" else rec.target_hidden

    def next_logits_hidden(self, context):
        context = tuple(context)
        t = self.trace
        c = len(context)
        if c < t.prompt_len or c > len(t.tokens):
            raise TraceDivergenceError(f"context length {c} outside recorded range")
        if context != t.tokens[:c]:
            raise TraceDivergenceError("context diverges from the recorded sequence")
        if c == len(t.tokens):
            logits = t.final_top[self.side].expand(t.vocab_size)
        else:
            logits = self._record_top(self._by_pos[c]).expand(t.vocab_size)
        if c - 1 == t.prompt_len - 1:
            hidden = t.prompt_last_hidden[self.side]
        else:
            hidden = self._record_hidden(self._by_pos[c - 1])
        return logits, hidden.copy()

    def _rows(self, tokens, start):
        first = max(start, self.trace.prompt_len - 1)
        logits = np.zeros((len(tokens) - start, self.vocab.size))
        hidden = np.zeros((len(tokens) - start, self.hidden_dim))
        if first < len(tokens):
            logits[first - start:], hidden[first - start:] = super()._rows(tokens, first)
        return logits, hidden


def save_trace(path: str, trace: Trace) -> None:
    def top_json(t: TopLogits):
        return {"top": [[i, l] for i, l in t.entries], "tail_mass": t.tail_mass}

    with open(path, "w") as f:
        f.write(json.dumps({
            "tokens": list(trace.tokens), "prompt_len": trace.prompt_len,
            "vocab_size": trace.vocab_size, "top_m": trace.top_m,
            "draft_name": trace.draft_name, "target_name": trace.target_name,
            "prompt_last_hidden": {k: v.tolist() for k, v in trace.prompt_last_hidden.items()},
            "final_top": {k: top_json(v) for k, v in trace.final_top.items()},
        }) + "\n")
        for r in trace.records:
            f.write(json.dumps({
                "pos": r.pos, "token": r.token,
                "draft_top": [[i, l] for i, l in r.draft_top.entries],
                "draft_tail_mass": r.draft_top.tail_mass,
                "target_top": [[i, l] for i, l in r.target_top.entries],
                "target_tail_mass": r.target_top.tail_mass,
                "draft_hidden": r.draft_hidden.tolist(),
                "target_hidden": r.target_hidden.tolist(),
            }) + "\n")


def load_trace(path: str) -> Trace:
    def top_from(obj) -> TopLogits:
        return TopLogits(entries=[(int(i), float(l)) for i, l in obj["top"]],
                         tail_mass=float(obj["tail_mass"]))

    try:
        with open(path) as f:
            head = json.loads(f.readline())
            records = []
            for line in f:
                if not line.strip():
                    continue
                row = json.loads(line)
                records.append(TraceRecord(
                    pos=int(row["pos"]), token=int(row["token"]),
                    draft_top=TopLogits([(int(i), float(l)) for i, l in row["draft_top"]],
                                        float(row["draft_tail_mass"])),
                    target_top=TopLogits([(int(i), float(l)) for i, l in row["target_top"]],
                                         float(row["target_tail_mass"])),
                    draft_hidden=np.array(row["draft_hidden"], dtype=float),
                    target_hidden=np.array(row["target_hidden"], dtype=float),
                ))
        return Trace(
            tokens=tuple(head["tokens"]), prompt_len=int(head["prompt_len"]),
            vocab_size=int(head["vocab_size"]), top_m=int(head["top_m"]),
            draft_name=head["draft_name"], target_name=head["target_name"],
            records=records,
            prompt_last_hidden={k: np.array(v, dtype=float)
                                for k, v in head["prompt_last_hidden"].items()},
            final_top={k: top_from(v) for k, v in head["final_top"].items()},
        )
    except OSError as e:
        raise DataError(f"cannot read trace file {path}: {e}") from e
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise DataError(f"bad trace file {path}: {e}") from e
