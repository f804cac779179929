"""Core language-model contract shared by every backend.

A model is a pure function of its token context.  Its one hidden-state
path is the abstract per-step primitive `next_logits_hidden`, which yields
the next-token logits and the hidden state encoding the consumed prefix;
`forward_parallel` makes one such call per row.  Logits alone have cheaper
paths: `next_logits` per step, `sample` for the runs of choices of drafting
and rollouts, `forward_logits` for the many rows of sampled verification and
mining, and `top_choices` for each row's first k ids at temperature 0 (its
argmax at k=1), which backends may vectorize in the hooks `_sample`, `_guess`,
`_logit_rows` and `_top_choices`.  Tests hold each bit-equal to the primitive.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Malformed input data (bad tokens, bad files, bad shapes)."""


@contextmanager
def reading(path: str, what: str):
    """The input boundary: wrap only the reading and parsing of the `what` at
    `path`, so that a file that cannot be read, or a malformed one (undecodable
    bytes, a field of the wrong type or value, no data), is one DataError naming it."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    except (DataError, KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError, RecursionError) as e:
        raise DataError(f"bad {what} {path}: {e}") from e


def json_lines(path: str) -> list:
    """The JSON value of each non-blank line of `path`; a file with none is an error."""
    with open(path) as f:
        values = [json.loads(line) for line in f if line.strip()]
    if not values:
        raise ValueError("no JSON lines")
    return values


def write_json_lines(path: str, values) -> None:
    """Write each of `values` as one JSON line of `path`: the format `json_lines` reads."""
    with open(path, "w") as f:
        f.writelines(json.dumps(value) + "\n" for value in values)


def write_json(path: str, value) -> None:
    """Write `value` to `path` as one JSON document, indented by 1, with a final newline."""
    with open(path, "w") as f:
        json.dump(value, f, indent=1)
        f.write("\n")


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer: a float or bool would be truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def json_float(value, name: str) -> float:
    """`value` as a float if it is a finite JSON number: a string or bool would be coerced."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_vector(value, name: str) -> np.ndarray:
    """`value` as a float vector if it is a JSON list of finite numbers, no bool or string."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        vec = np.array(value, dtype=float)
        if np.isfinite(vec).all():
            return vec
    raise ValueError(f"{name} must be a list of numbers, all finite")


def json_str(value, name: str) -> str:
    """`value` if it is a JSON string: any other value would be carried on as is."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class Vocab:
    """Closed token vocabulary with a single end-of-sequence id."""

    id_to_text: tuple[str, ...]
    eos_id: int

    def __post_init__(self):
        if len(self.id_to_text) < 2:
            raise DataError("vocab needs at least 2 tokens")
        if not 0 <= self.eos_id < len(self.id_to_text):
            raise DataError("eos_id out of range")
        if len(set(self.id_to_text)) != len(self.id_to_text):
            raise DataError("duplicate token texts in vocab")
        object.__setattr__(self, "token_to_id", {t: i for i, t in enumerate(self.id_to_text)})

    @property
    def size(self) -> int:
        return len(self.id_to_text)

    def encode(self, text: str) -> list[int]:
        """Whitespace-tokenize `text`; unknown words are a data error."""
        mapping = self.token_to_id
        try:
            return [mapping[w] for w in text.split()]
        except KeyError as e:  # the first unknown word
            raise DataError(f"unknown token {e.args[0]!r}") from None

    def decode(self, tokens) -> str:
        return " ".join(self.id_to_text[t] for t in tokens)


@dataclass(frozen=True)
class TokenSequence:
    """Token ids with a prompt/response boundary."""

    tokens: tuple[int, ...]
    prompt_len: int

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise DataError("prompt_len out of range")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def prompt(self) -> tuple[int, ...]:
        return self.tokens[: self.prompt_len]

    @property
    def response(self) -> tuple[int, ...]:
        return self.tokens[self.prompt_len :]


@dataclass
class LmOutput:
    """Per-position forward results: row i conditions on tokens[0..i]."""

    logits: np.ndarray  # (len, vocab)
    hidden: np.ndarray  # (len, hidden_dim)


def check_top_k(k) -> None:
    """A top-K rank is an int >= 1: a float or bool would rank as some other K."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise DataError(f"top-K needs an integer k, got {k!r}")
    if k < 1:
        raise DataError("top-K needs k >= 1")


def argmax_token(logits) -> int:
    """Argmax with ties broken toward the lowest token id."""
    return int(np.asarray(logits).argmax())  # the method skips np.argmax's dispatch


class LanguageModel:
    """Base class for toy backends.

    Subclasses implement `next_logits_hidden(context)`: given a non-empty
    token prefix, return the logits over the next token and the hidden
    state encoding the prefix.  Both must be finite and deterministic, for
    any context of in-vocabulary ids; a DataError a step raises anyway
    propagates out of every entry unchanged.
    Backends with a cheaper logits-only step override `next_logits`, with
    batched runs of choices `_sample` and `_guess`, and with vectorized passes
    `_logit_rows` and `_top_choices`.  The steps and hooks check no ids: they
    take contexts that `sample`, `forward_parallel`, `forward_logits` or
    `top_choices` checked.
    """

    name: str = "model"
    vocab: Vocab
    hidden_dim: int

    def next_logits_hidden(self, context: tuple[int, ...]):
        raise NotImplementedError

    def next_logits(self, context: tuple[int, ...]) -> np.ndarray:
        """The logits of `next_logits_hidden(context)`, without the hidden state."""
        return self.next_logits_hidden(context)[0]

    def sample(self, context, n: int, temperature: float = 0.0,
               state: sampling.RandomState | None = None):
        """(choices, Gumbel rows) of up to `n` seeded choices after `context`, stopping
        after EOS: greedy and no rows (None) at temperature 0, else (len, V) rows, row i
        drawn at context + choices[:i].  The one checked way into a backend's `_sample`."""
        sampling.check_sampling(temperature, state)
        context = tuple(context)
        self._check_tokens(context)
        key = None if temperature == 0 else sampling.gumbel_key(state, context)
        return self._sample(context, n, temperature, key)

    def _sample(self, context: tuple[int, ...], n: int, temperature: float, key: int | None):
        """`sample` of a validated `context`: argmax and no rows with no Gumbel `key`, else
        Gumbel-max at `temperature` and (len, V) rows, row i drawn at `key` fed
        choices[:i].  One `next_logits` per choice."""
        out, noise, eos, t = [], [], self.vocab.eos_id, None
        while len(out) < n and t != eos:
            logits = self.next_logits(context)
            if key is None:
                t = argmax_token(logits)
            else:
                noise.append(sampling.gumbel_noise(key, len(logits)))
                t = int(sampling.gumbel_max(logits, noise[-1], temperature))
                key = sampling._fnv_feed(key, t)
            context += (t,)
            out.append(t)
        return out, None if key is None else np.array(noise).reshape(len(out), self.vocab.size)

    def _guess(self, context: tuple[int, ...], n: int, bias: np.ndarray):
        """(rows, choices): up to `n` choices argmax(row + bias) after `context` to EOS,
        and their (len, V) unbiased `next_logits` rows, row i at context + choices[:i]."""
        rows, out = [], []
        while len(out) < n and out[-1:] != [self.vocab.eos_id]:
            rows.append(self.next_logits((*context, *out)))
            out.append(int((rows[-1] + bias).argmax()))
        return np.array(rows).reshape(len(out), self.vocab.size), out

    def _check_tokens(self, tokens):
        if len(tokens) == 0:
            raise DataError("empty token sequence")
        size = self.vocab.size
        if min(tokens) < 0 or max(tokens) >= size:
            bad = next(t for t in tokens if not 0 <= t < size)
            raise DataError(f"token id {bad} out of range for vocab size {size}")

    def _checked_rows(self, tokens, start: int) -> tuple[int, ...]:
        tokens = tuple(tokens)
        self._check_tokens(tokens)
        if not 0 <= start < len(tokens):
            raise DataError(f"start {start} outside 0..{len(tokens) - 1}")
        return tokens

    def forward_parallel(self, tokens, start: int = 0) -> LmOutput:
        """Evaluate rows start..len-1 of the token ids `tokens` in one call.

        Row i holds the logits predicting position i+1 and the hidden
        state encoding tokens[0..i]; it is returned at index i - start.
        One `next_logits_hidden` call per row: the judge asks for a single
        row, where this loop beats a vectorized pass.
        """
        tokens = self._checked_rows(tokens, start)
        out = LmOutput(logits=np.empty((len(tokens) - start, self.vocab.size)),
                       hidden=np.empty((len(tokens) - start, self.hidden_dim)))
        for j in range(len(out.logits)):
            out.logits[j], out.hidden[j] = self.next_logits_hidden(tokens[: start + j + 1])
        return out

    def forward_logits(self, tokens, start: int = 0) -> np.ndarray:
        """The logits of `forward_parallel(tokens, start)`, without the hidden rows."""
        return self._logit_rows(self._checked_rows(tokens, start), start)

    def _logit_rows(self, tokens: tuple[int, ...], start: int) -> np.ndarray:
        """Logits rows start..len-1 of validated `tokens`, one `next_logits` per row."""
        return np.array([self.next_logits(tokens[:i + 1]) for i in range(start, len(tokens))])

    def top_choices(self, tokens, start: int = 0, k: int = 1) -> list[tuple[int, ...]]:
        """The first `k` ids of each row of `forward_logits(tokens, start)` sorted by
        (-logit, id), as a tuple: row[0] is the argmax, lowest id on ties."""
        check_top_k(k)
        return self._top_choices(self._checked_rows(tokens, start), start, k)

    def _top_choices(self, tokens: tuple[int, ...], start: int, k: int) -> list[tuple[int, ...]]:
        """`top_choices` of validated `tokens`: each `_logit_rows` row's argmax at k=1,
        else the head of its stable argsort."""
        rows = self._logit_rows(tokens, start)
        if k == 1:
            return [(t,) for t in rows.argmax(axis=1).tolist()]
        return list(map(tuple, np.argsort(-rows, axis=1, kind="stable")[:, :k].tolist()))


# Bound here, at the end, not at the top: sampling imports names from this module.
from . import sampling
