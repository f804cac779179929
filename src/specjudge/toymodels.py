"""Deterministic toy backends: smoothed n-gram models and perturbed drafts.

These stand in for the large models of a real system.  They are exact in
double precision, fully seeded, and expose the same contract as any other
backend, so every pipeline property can be checked bit for bit at desk
scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lm import DataError, LanguageModel, Vocab, argmax_token
from .sampling import (TAG_PERTURB, _byte_width, _fnv_feed_vec, _prefix_hash,
                       _running_keys, _unit_uniform_vec)

EMBED_DIM = 16
_BOX_MULLER_STREAMS = np.arange(2, dtype=np.uint64).reshape(2, 1, 1)


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram with a fixed random embedding table.

    P(t | ctx) = (count(ctx, t) + k) / (count(ctx) + k * |V|) where ctx is
    the last order-1 tokens (fewer near the sequence start).  The hidden
    state is the mean embedding of the context window plus the entropy and
    top-1 log-probability of the next-token distribution.
    """

    def __init__(self, vocab: Vocab, order: int, smoothing: float, seed: int = 0,
                 name: str = "ngram"):
        if order < 1:
            raise DataError("order must be >= 1")
        if smoothing <= 0:
            raise DataError("smoothing must be > 0")
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        self.seed = seed
        self.name = name
        self.hidden_dim = EMBED_DIM + 2
        self.counts: dict[tuple[int, ...], Counter] = {}
        self.embedding = np.random.default_rng(seed).standard_normal((vocab.size, EMBED_DIM))

    def _context_key(self, context: tuple[int, ...]) -> tuple[int, ...]:
        w = self.order - 1
        return context[-w:] if w > 0 else ()

    def observe(self, tokens) -> None:
        tokens, w, counts = tuple(tokens), self.order - 1, self.counts
        for i in range(1, len(tokens)):
            key = tokens[max(0, i - w):i] if w > 0 else ()
            counter = counts.get(key)
            if counter is None:  # a Counter only for a new context
                counter = counts[key] = Counter()
            counter[tokens[i]] += 1

    def next_probs(self, context: tuple[int, ...]) -> np.ndarray:
        key = self._context_key(tuple(context))
        k = self.smoothing
        probs = np.full(self.vocab.size, k)
        total = k * self.vocab.size
        counter = self.counts.get(key)
        if counter:
            for tok, c in counter.items():
                probs[tok] += c
            total += sum(counter.values())
        return probs / total

    def next_logits(self, context):
        return np.log(self.next_probs(context))

    def next_logits_hidden(self, context):
        context = tuple(context)
        probs = self.next_probs(context)
        logits = np.log(probs)
        w = self.order - 1
        window = context[-w:] if w > 0 else ()
        if window:
            emb = self.embedding[list(window)].sum(axis=0) / len(window)
        else:
            emb = np.zeros(EMBED_DIM)
        entropy = float(-(probs * logits).sum())
        top1 = float(logits.max())
        return logits, np.concatenate([emb, [entropy, top1]])

    def _prob_rows(self, tokens, start):
        """Next-token probabilities of rows start..len-1 from one count array."""
        n, size, w = len(tokens) - start, self.vocab.size, self.order - 1
        k = self.smoothing
        probs = np.full((n, size), k)
        totals = np.full(n, k * size)
        rows, ids, counts = [], [], []
        for j in range(n):
            end = start + j + 1
            counter = self.counts.get(tokens[max(0, end - w):end] if w > 0 else ())
            if counter:
                rows += [j] * len(counter)
                ids += counter.keys()
                counts += counter.values()
                totals[j] += sum(counter.values())
        probs[rows, ids] += counts
        probs /= totals[:, None]
        return probs

    def _logit_rows(self, tokens, start):
        return np.log(self._prob_rows(tokens, start))


def train_ngram(vocab: Vocab, corpus, order: int, smoothing: float, seed: int = 0,
                name: str = "ngram") -> NGramModel:
    """Count-train an NGramModel on an iterable of token sequences."""
    model = NGramModel(vocab, order, smoothing, seed=seed, name=name)
    n = 0
    for seq in corpus:
        tokens = tuple(seq)
        model._check_tokens(tokens)
        model.observe(tokens)
        n += 1
    if n == 0:
        raise DataError("empty training corpus")
    return model


@dataclass(frozen=True)
class PerturbSpec:
    """How a draft model deviates from its base model.

    noise_scale adds seeded Gaussian noise to every logit; bias_tokens
    adds a fixed offset to chosen token ids in every context.
    """

    noise_scale: float = 0.0
    bias_tokens: dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.noise_scale < 0:
            raise DataError("noise_scale must be >= 0")


class PerturbedModel(LanguageModel):
    """Wraps a base model with deterministic logit perturbations.

    Hidden states pass through with one appended scalar: the total logit
    offset applied at the token this model would pick, which tells a
    downstream classifier how hard the perturbation pushed its choice.
    """

    def __init__(self, base: LanguageModel, spec: PerturbSpec, name: str = "draft"):
        self.base = base
        self.spec = spec
        self.vocab = base.vocab
        self.name = name
        self.hidden_dim = base.hidden_dim + 1
        self._bias = np.zeros(self.vocab.size)
        for tok, off in spec.bias_tokens.items():
            self._bias[tok] += off
        self._ids = np.arange(self.vocab.size, dtype=np.uint64)

    def _delta(self, tokens, start: int = -1) -> np.ndarray:
        """Logit offsets for rows start..len-1 of `tokens`.

        A negative start counts from the end, as in slicing; the default
        is the last row alone.  Row i's noise is keyed by the FNV hash of
        tokens[0..i], and one running hash yields every key.  A single
        row comes back as a (V,) vector, several as (n, V); without noise
        the bias vector serves every row.
        """
        sigma = self.spec.noise_scale
        if sigma == 0:
            return self._bias
        start %= len(tokens)
        keys = _running_keys(_prefix_hash(TAG_PERTURB, self.spec.seed, tokens[: start + 1]),
                             tokens[start + 1:])
        hi = _fnv_feed_vec(keys[:, None], self._ids, _byte_width(len(self._ids)))
        # Row r absorbs r after each per-token hash: u1 from 0, u2 from 1.
        u1, u2 = _unit_uniform_vec(_fnv_feed_vec(hi, _BOX_MULLER_STREAMS, 1))
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        delta = self._bias + sigma * z
        return delta if len(delta) > 1 else delta[0]

    def next_logits(self, context):
        return self.base.next_logits(context) + self._delta(context)

    def next_logits_hidden(self, context):
        context = tuple(context)
        base_logits, base_hidden = self.base.next_logits_hidden(context)
        delta = self._delta(context)
        logits = base_logits + delta
        summary = float(delta[argmax_token(logits)])
        return logits, np.concatenate([base_hidden, [summary]])

    def _logit_rows(self, tokens, start):
        return self.base._logit_rows(tokens, start) + self._delta(tokens, start)


def make_draft(target: LanguageModel, spec: PerturbSpec, name: str = "draft") -> PerturbedModel:
    """Build a draft model as a perturbation wrapper around `target`."""
    return PerturbedModel(target, spec, name=name)


class ScriptedModel(LanguageModel):
    """Lookup-table model: an explicit map from full context to next token.

    Useful for hand-built scenarios where every continuation must be
    controlled exactly.  Unlisted contexts fall back to `default_token`.
    """

    def __init__(self, vocab: Vocab, script: dict[tuple[int, ...], int],
                 default_token: int | None = None, hidden_dim: int = 3,
                 name: str = "scripted"):
        self.vocab = vocab
        self.script = {tuple(k): v for k, v in script.items()}
        self.default_token = vocab.eos_id if default_token is None else default_token
        self.hidden_dim = hidden_dim
        self.name = name

    def next_logits_hidden(self, context):
        context = tuple(context)
        choice = self.script.get(context, self.default_token)
        logits = np.full(self.vocab.size, -40.0)
        logits[choice] = 0.0
        return logits, np.zeros(self.hidden_dim)
