"""Deterministic toy backends: smoothed n-gram models and perturbed drafts.

These stand in for the large models of a real system.  They are exact in
double precision, fully seeded, and expose the same contract as any other
backend, so every pipeline property can be checked bit for bit at desk
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .lm import DataError, LanguageModel, Vocab, argmax_token
from .sampling import (TAG_PERTURB, _fnv_feed, _fnv_feed_vec, _ids_and_width,
                       _prefix_hash, _running_keys, _unit_uniform_vec, gumbel_max)

EMBED_DIM = 16
_MINUS_TWO, _TWO_PI = np.array(-2.0), np.array(2.0 * math.pi)


class NGramModel(LanguageModel):
    """Add-k smoothed n-gram with a fixed random embedding table.

    P(t | ctx) = (count(ctx, t) + k) / (count(ctx) + k * |V|) where ctx is
    the last order-1 tokens (fewer near the sequence start).  The hidden
    state is the mean embedding of the context window plus the entropy and
    top-1 log-probability of the next-token distribution.

    `counts` maps each seen context to its index in `distributions`, the
    distinct (token, count) item tuples in first-seen order; index 0 is the
    empty one of every unseen context.  Each has one read-only logits row,
    with its entropy and top-1, computed once when the counts are set.
    """

    def __init__(self, vocab: Vocab, order: int, smoothing: float, seed: int = 0,
                 name: str = "ngram"):
        if order < 1:
            raise DataError("order must be >= 1")
        if not 0 < smoothing < math.inf:
            raise DataError("smoothing must be finite and > 0")
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        self.seed = seed
        self.name = name
        self.hidden_dim = EMBED_DIM + 2
        self.embedding = np.random.default_rng(seed).standard_normal((vocab.size, EMBED_DIM))
        self._set_counts({})

    def _set_counts(self, counts: dict[tuple[int, ...], dict[int, int]]) -> None:
        """Intern each context's next-token counts and build one row per distinct set."""
        index = {(): 0}
        self.counts = {key: index.setdefault(tuple(d.items()), len(index))
                       for key, d in counts.items()}
        self.distributions = list(index)
        k, size = self.smoothing, self.vocab.size
        self._logits = np.empty((len(index), size))
        self._summary = np.empty((len(index), 2))  # the entropy and top-1 hidden columns
        for i, items in enumerate(index):
            probs = np.full(size, k)
            for tok, c in items:
                probs[tok] += c
            probs /= k * size + sum(c for _, c in items)
            self._logits[i] = logits = np.log(probs)
            self._summary[i] = -(probs * logits).sum(), logits.max()
        self._logits.flags.writeable = False

    def next_logits(self, context):
        w = self.order - 1
        return self._logits[self.counts.get(tuple(context[-w:]) if w > 0 else (), 0)]

    def next_logits_hidden(self, context):
        w = self.order - 1
        key = tuple(context[-w:]) if w > 0 else ()  # the window; () at order 1
        emb = self.embedding[list(key)].sum(axis=0) / len(key) if key else np.zeros(EMBED_DIM)
        i = self.counts.get(key, 0)
        return self._logits[i], np.concatenate([emb, self._summary[i]])

    def _logit_rows(self, tokens, start):
        w, get = self.order - 1, self.counts.get
        return self._logits[[get(tokens[max(0, end - w):end] if w > 0 else (), 0)
                             for end in range(start + 1, len(tokens) + 1)]]


def train_ngram(vocab: Vocab, corpus, order: int, smoothing: float, seed: int = 0,
                name: str = "ngram") -> NGramModel:
    """Count-train an NGramModel on an iterable of token sequences."""
    model = NGramModel(vocab, order, smoothing, seed=seed, name=name)
    counts, w, n = {}, order - 1, 0
    for seq in corpus:
        tokens = tuple(seq)
        model._check_tokens(tokens)
        for i in range(1, len(tokens)):
            key, tok = tokens[i - w:i] if i > w else tokens[:i], tokens[i]  # last w tokens; () at w=0
            d = counts.get(key)
            if d is None:  # a dict of only ints is left untracked by the collector
                counts[key] = {tok: 1}
            else:
                d[tok] = d.get(tok, 0) + 1
        n += 1
    if n == 0:
        raise DataError("empty training corpus")
    model._set_counts(counts)
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
        if not 0 <= self.noise_scale < math.inf:
            raise DataError("noise_scale must be finite and >= 0")
        if not all(math.isfinite(off) for off in self.bias_tokens.values()):
            raise DataError("bias offsets must be finite")


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
            if not 0 <= tok < self.vocab.size:
                raise DataError(f"bias token id {tok} outside 0..{self.vocab.size - 1}")
            self._bias[tok] += off
        ids, self._id_bytes = _ids_and_width(self.vocab.size)
        self._ids = np.array((ids, ids))  # (2, V): one row per Box-Muller stream
        self._streams = np.indices(self._ids.shape, dtype=np.uint64)[0]
        self._sigma = np.array(float(spec.noise_scale))

    def _noise(self, keys) -> np.ndarray:
        """bias + σ·sqrt(-2 ln u1)·cos(2π u2) in place, u1 and u2 keyed by feeding
        each id, then 0 or 1, into a key: (V,) for one key, (n, V) for n keys."""
        if self.spec.noise_scale == 0:
            return self._bias
        keys, ids, streams = np.asarray(keys, dtype=np.uint64), self._ids, self._streams
        if keys.ndim:  # rows go between the stream axis and the id axis
            keys, ids, streams = keys[:, None], ids[:, None], streams[:, None]
        u = _unit_uniform_vec(_fnv_feed_vec(_fnv_feed_vec(keys, ids, self._id_bytes), streams, 1))
        u1, u2 = u[0], u[1]
        z = np.sqrt(np.multiply(np.log(u1, out=u1), _MINUS_TWO, out=u1), out=u1)
        z *= np.cos(np.multiply(u2, _TWO_PI, out=u2), out=u2)
        z *= self._sigma
        z += self._bias
        return z

    def _delta(self, tokens, start: int = -1) -> np.ndarray:
        """Logit offsets for rows start..len-1 of `tokens` (a negative start counts from
        the end): (V,) for one row, else (n, V), row i keyed by hashing tokens[0..i]."""
        start %= len(tokens)
        key = _prefix_hash(TAG_PERTURB, self.spec.seed, tokens[: start + 1])
        rest = tokens[start + 1:]
        return self._noise(_running_keys(key, rest) if len(rest) else key)

    def logit_steps(self, context):
        """The base model's steps plus noise, keyed by one running hash of the context."""
        rows = self.base.logit_steps(context)
        key = _prefix_hash(TAG_PERTURB, self.spec.seed, context)
        t = None
        while True:
            t = yield rows.send(t) + self._noise(key)
            key = _fnv_feed(key, t)

    def sample(self, context, n, temperature=0.0, key=None):
        """The stepwise choices and Gumbel rows, bit for bit.  The noise-free draft guesses
        a run and one noise draw (and one Gumbel draw, sampled) at the guessed prefixes
        checks it: guessed row j sits where the stepwise loop is once j choices match, and
        choices are kept up to the first miss.  A greedy run is guessed to the window's
        end, a sampled one to twice what the last run kept (4 rows at first), and none
        past the n rows a window may waste; with no waste left the rest is stepped, so
        at most 2n rows are drawn in at most n calls."""
        pkey = _prefix_hash(TAG_PERTURB, self.spec.seed, context)
        out, noise, eos, spare = [], [], self.vocab.eos_id, n  # the rows the window may still waste
        run = n if key is None else 4
        while spare and len(out) < n and out[-1:] != [eos]:
            steps, rows, guess, t = self.base.logit_steps((*context, *out)), [], [], None
            limit = min(run, spare + 1, n - len(out))
            while len(guess) < limit and t != eos:
                try:
                    rows.append(steps.send(t))
                except DataError:  # a replay rejects a guessed prefix; a run that reaches it raises
                    if not rows:
                        raise
                    break
                t = int((rows[-1] + self._bias).argmax())
                guess.append(t)
            pkeys = _running_keys(pkey, guess[:-1])
            scores = np.array(rows) + self._noise(pkeys)
            if key is None:
                choices = scores.argmax(axis=1).tolist()
            else:  # gumbel_noise is looked up at call time, where tracing wraps it
                keys = _running_keys(key, guess[:-1])
                gumbel = sampling.gumbel_noise(keys, self.vocab.size)
                choices = gumbel_max(scores, gumbel, temperature).tolist()
            j = next((j for j, (c, g) in enumerate(zip(choices, guess)) if c != g), len(guess) - 1)
            out += choices[:j + 1]
            pkey = _fnv_feed(int(pkeys[j]), choices[j])
            spare -= len(rows) - j - 1
            if key is not None:
                noise.append(gumbel[:j + 1])
                key, run = _fnv_feed(int(keys[j]), choices[j]), 2 * (j + 1)
        steps, t = self.base.logit_steps((*context, *out)), None
        while len(out) < n and out[-1:] != [eos]:  # nothing left to waste: step
            row = steps.send(t) + self._noise(pkey)
            if key is None:
                t = int(row.argmax())
            else:
                gumbel = sampling.gumbel_noise(key, self.vocab.size)
                t = int(gumbel_max(row, gumbel, temperature))
                noise.append(gumbel[None])
                key = _fnv_feed(key, t)
            out.append(t)
            pkey = _fnv_feed(pkey, t)
        return out, None if key is None else np.concatenate(
            noise or [np.empty((0, self.vocab.size))])

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
