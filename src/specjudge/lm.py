"""Core language-model contract shared by every backend.

A model is a pure function of its token context.  Its one hidden-state
path is the abstract per-step primitive `next_logits_hidden`, which yields
the next-token logits and the hidden state encoding the consumed prefix;
`forward_parallel` makes one such call per row.  Logits alone have cheaper
paths: `next_logits` per step, `logit_steps` and `sample` for drafting and
rollouts, and `forward_logits` for the many rows of verification and mining,
which backends may vectorize.  Tests hold each bit-equal to the primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Malformed input data (bad tokens, bad files, bad shapes)."""


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer: a float or bool would be truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


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

    @property
    def size(self) -> int:
        return len(self.id_to_text)

    @property
    def token_to_id(self) -> dict[str, int]:
        mapping = self.__dict__.get("_token_to_id")
        if mapping is None:
            mapping = {t: i for i, t in enumerate(self.id_to_text)}
            object.__setattr__(self, "_token_to_id", mapping)
        return mapping

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


def argmax_token(logits) -> int:
    """Argmax with ties broken toward the lowest token id."""
    return int(np.asarray(logits).argmax())  # the method skips np.argmax's dispatch


class LanguageModel:
    """Base class for toy backends.

    Subclasses implement `next_logits_hidden(context)`: given a non-empty
    token prefix, return the logits over the next token and the hidden
    state encoding the prefix.  Both must be finite and deterministic.
    Backends with a cheaper logits-only step override `next_logits`, with
    per-step state `logit_steps`, with batched runs of choices `sample`, and
    with a vectorized pass `_logit_rows`.
    """

    name: str = "model"
    vocab: Vocab
    hidden_dim: int

    def next_logits_hidden(self, context: tuple[int, ...]):
        raise NotImplementedError

    def next_logits(self, context: tuple[int, ...]) -> np.ndarray:
        """The logits of `next_logits_hidden(context)`, without the hidden state."""
        return self.next_logits_hidden(context)[0]

    def logit_steps(self, context: tuple[int, ...]):
        """Generator of `next_logits` rows: `send(None)` yields the row of `context`, each
        later `send(t)` appends t and yields the next; step state lives only in here."""
        context = tuple(context)
        while True:
            t = yield self.next_logits(context)
            context += (t,)

    def sample(self, context: tuple[int, ...], n: int, temperature: float = 0.0,
               key: int | None = None):
        """(choices, Gumbel rows) of up to `n` choices after `context`, stopping after EOS:
        argmax and no rows with no Gumbel `key`, else Gumbel-max at `temperature` and
        (len, V) rows, row i drawn at `key` fed choices[:i].  One `logit_steps` generator."""
        eos, steps, out, t = self.vocab.eos_id, self.logit_steps(context), [], None
        if key is None:
            while len(out) < n and t != eos:  # sending None starts the generator
                t = argmax_token(steps.send(t))
                out.append(t)
            return out, None
        from . import sampling  # sampling imports this module
        noise = []
        while len(out) < n and t != eos:
            logits = steps.send(t)
            noise.append(sampling.gumbel_noise(key, len(logits)))
            t = int(sampling.gumbel_max(logits, noise[-1], temperature))
            key = sampling._fnv_feed(key, t)
            out.append(t)
        return out, np.array(noise).reshape(len(out), self.vocab.size)

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
        """
        tokens = self._checked_rows(tokens, start)
        logits, hidden = self._rows(tokens, start)
        return LmOutput(logits=logits, hidden=hidden)

    def forward_logits(self, tokens, start: int = 0) -> np.ndarray:
        """The logits of `forward_parallel(tokens, start)`, without the hidden rows."""
        return self._logit_rows(self._checked_rows(tokens, start), start)

    def _rows(self, tokens: tuple[int, ...], start: int):
        """(logits, hidden) rows start..len-1 of validated `tokens`.

        One `next_logits_hidden` call per row.  The judge asks for a
        single row, where this loop beats a vectorized pass.
        """
        n = len(tokens) - start
        logits = np.empty((n, self.vocab.size))
        hidden = np.empty((n, self.hidden_dim))
        for j in range(n):
            logits[j], hidden[j] = self.next_logits_hidden(tokens[: start + j + 1])
        return logits, hidden

    def _logit_rows(self, tokens: tuple[int, ...], start: int) -> np.ndarray:
        """Logits rows start..len-1 of validated `tokens`, by default from `_rows`."""
        return self._rows(tokens, start)[0]
