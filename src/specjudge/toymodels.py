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

    `counts` maps each seen context, its ids packed as fixed-width little-endian
    bytes (one byte each up to 256 ids, else the fewest that fit), to its index in
    `distributions`, the distinct (token, count) item tuples in first-seen order;
    index 0 is the empty one of every unseen context.  Each has one read-only
    logits row, with its entropy and top-1, an argmax table per guessed bias
    (`_top` at zero), found by identity for the last read-only bias guessed, else
    by its bytes, and a table of first-k tuples per ranked k, read by state in
    greedy passes; walks append each choice's packed bytes from a per-id list.  Packed keys are a third the size of tuples:
    on the order-16 fixture the model keeps 10.9 MB, and `train_ngram` peaks at 1.45x that.
    """

    def __init__(self, vocab: Vocab, order: int, smoothing: float, seed: int = 0,
                 name: str = "ngram"):
        if order < 1:
            raise DataError("order must be >= 1")
        if seed < 0:
            raise DataError("seed must be >= 0")
        if not 0 < smoothing < math.inf:
            raise DataError("smoothing must be finite and > 0")
        self.vocab = vocab
        self.order = order
        self.smoothing = smoothing
        self.seed = seed
        self.name = name
        self.hidden_dim = EMBED_DIM + 2
        self.embedding = np.random.default_rng(seed).standard_normal((vocab.size, EMBED_DIM))
        self._width = width = _ids_and_width(vocab.size)[1]  # bytes per packed id
        self._pack = bytes if width == 1 else (
            lambda ids: b"".join(t.to_bytes(width, "little") for t in ids))
        self._packed = [self._pack((t,)) for t in range(vocab.size)]
        self._set_counts({}, [()])

    def _set_counts(self, counts: dict[bytes, int], states: list[tuple]) -> None:
        """Take `counts`, each packed context's id in `states` (interned flat
        (token, count, token, count, ...) tuples, `states[0]` the empty one), renumber
        the states it reaches densely in first-seen order, and build one row per state."""
        index = {0: 0}
        for key, s in counts.items():  # in place: a second dict adds 5 MB to the fixture's peak
            counts[key] = index.setdefault(s, len(index))
        self.counts = counts
        self.distributions = [tuple(zip(states[s][::2], states[s][1::2])) for s in index]
        k, size = self.smoothing, self.vocab.size
        self._logits = np.empty((len(index), size))
        self._summary = np.empty((len(index), 2))  # the entropy and top-1 hidden columns
        for i, items in enumerate(self.distributions):
            probs = np.full(size, k)
            for tok, c in items:
                probs[tok] += c
            probs /= k * size + sum(c for _, c in items)
            self._logits[i] = logits = np.log(probs)
            self._summary[i] = -(probs * logits).sum(), logits.max()
        self._logits.flags.writeable = False
        self._top = self._logits.argmax(axis=1).tolist()  # lowest id on ties, as argmax_token
        self._tops = {np.zeros(size).tobytes(): self._top}  # per bias: new rows drop them
        self._ranks = {}  # per k, each state's first k ids by (-logit, id); dropped alike
        self._last = (None, None)  # the last bias guessed and its table, reused while read-only

    def next_logits(self, context):
        w = self.order - 1
        return self._logits[self.counts.get(self._pack(context[-w:] if w > 0 else ()), 0)]

    def next_logits_hidden(self, context):
        w = self.order - 1
        ids = context[-w:] if w > 0 else ()  # the window; () at order 1
        emb = self.embedding.take(ids, 0).sum(axis=0) / len(ids) if ids else np.zeros(EMBED_DIM)
        i = self.counts.get(self._pack(ids), 0)
        return self._logits[i], np.concatenate([emb, self._summary[i]])

    def _walk(self, context, n: int, top: list[int]):
        """(row ids, choices): up to `n` choices top[row id] after `context`, to EOS."""
        w, get, eos = self.order - 1, self.counts.get, self.vocab.eos_id
        packed, span = self._packed, w * self._width
        window = self._pack(context[-w:] if w > 0 else ())
        states, out, t = [], [], None
        while len(out) < n and t != eos:
            states.append(s := get(window[-span:] if span else b"", 0))
            out.append(t := top[s])
            window += packed[t]
        return states, out

    def _sample(self, context, n, temperature, key):
        """Greedy choices walk `_top`; sampled ones take the default."""
        if key is not None:
            return super()._sample(context, n, temperature, key)
        return self._walk(context, n, self._top)[1], None

    def _guess(self, context, n, bias):
        """The walk of each row's argmax(row + bias), built once per bias, and one gather."""
        last, top = self._last  # a read-only bias that owns its data keeps its values
        if bias is not last or bias.flags.writeable or bias.base is not None:
            if (top := self._tops.get(key := bias.tobytes())) is None:
                top = self._tops[key] = (self._logits + bias).argmax(axis=1).tolist()
            self._last = (bias, top)
        states, out = self._walk(context, n, top)
        return self._logits[states], out

    def _states(self, tokens, start):  # of rows start..len-1, as `_logit_rows` reads them
        get, width, packed = self.counts.get, self._width, self._pack(tokens)
        span = (self.order - 1) * width  # row i's key: the last span bytes through token i
        ends = range((start + 1) * width, (len(tokens) + 1) * width, width)
        return [get(packed[max(0, end - span):end], 0) for end in ends]

    def _logit_rows(self, tokens, start):
        return self._logits[self._states(tokens, start)]

    def _top_choices(self, tokens, start, k):
        """Each row's first-k tuple, from a table of every state's, built once per k."""
        if (ranks := self._ranks.get(k)) is None:
            order = np.argsort(-self._logits, axis=1, kind="stable")[:, :k]
            ranks = self._ranks[k] = list(map(tuple, order.tolist()))
        return list(map(ranks.__getitem__, self._states(tokens, start)))


def train_ngram(vocab: Vocab, corpus, order: int, smoothing: float, seed: int = 0,
                name: str = "ngram") -> NGramModel:
    """Count-train an NGramModel on an iterable of token sequences.

    Each distinct line is packed and counted once with its multiplicity, in first-seen
    order, and released once counted.  A context holds the id of its interned flat
    (token, count, ...) state, moved on by a step memo keyed by one int for (state,
    token, multiplicity) that bumps the token's count in place or appends it, so keys
    and items keep their first-seen order and no dict per context is built."""
    model = NGramModel(vocab, order, smoothing, seed=seed, name=name)
    lines = {}
    for seq in corpus:
        tokens = tuple(seq)
        model._check_tokens(tokens)
        lines[tokens] = lines.get(tokens, 0) + 1
    if not lines:
        raise DataError("empty training corpus")
    size, most, width = vocab.size, max(lines.values()), model._width  # m - 1 < most
    counts, steps, ids, states, span = {}, {}, {(): 0}, [()], (order - 1) * width
    lines = list(lines.items())[::-1]  # popped in first-seen order
    while lines:
        tokens, m = lines.pop()
        packed = model._pack(tokens)
        for i in range(1, len(tokens)):
            end, tok = i * width, tokens[i]
            key = packed[max(0, end - span):end]  # the last order-1 ids; b"" at order 1
            s = counts.get(key, 0)
            step = (s * size + tok) * most + m - 1
            t = steps.get(step)
            if t is None:
                items = states[s]
                j = next((j for j in range(0, len(items), 2) if items[j] == tok), len(items))
                items = items[:j] + (tok, m + sum(items[j + 1:j + 2])) + items[j + 2:]
                t = steps[step] = ids.setdefault(items, len(ids))
                if t == len(states):
                    states.append(items)
            counts[key] = t
    model._set_counts(counts, states)
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
        if not 0 <= self.seed < 1 << 64:  # the noise keys hash it as 64 bits
            raise DataError("seed must be in 0..2**64-1")


class PerturbedModel(LanguageModel):
    """Wraps a base model with deterministic logit perturbations.

    Hidden states pass through with one appended scalar: the total logit
    offset applied at the token this model would pick, which tells a
    downstream classifier how hard the perturbation pushed its choice.

    `_sample` (whose runs the base's `_guess` drafts) and a `_logit_rows` pass at
    σ > 0 keep their rows as the last window, which `next_logits_hidden` reads.
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
        self._bias.flags.writeable = False  # the base's `_guess` may keep its argmax table
        self._ids, self._id_bytes = _ids_and_width(self.vocab.size)
        self._streams = np.arange(2, dtype=np.uint64)[:, None]  # one per Box-Muller stream
        self._sigma = np.array(float(spec.noise_scale))
        self._window = ((), (), ())  # the last window's context, choices and kept rows per run

    def _noise(self, keys) -> np.ndarray:
        """bias + σ·sqrt(-2 ln u1)·cos(2π u2) in place, u1 and u2 keyed by feeding
        each id, then 0 or 1, into a key: (V,) for one key, (n, V) for n keys."""
        if self.spec.noise_scale == 0:
            return self._bias
        keys, ids, streams = np.asarray(keys, dtype=np.uint64), self._ids, self._streams
        if keys.ndim:  # rows go between the stream axis and the id axis
            keys, streams = keys[:, None], streams[:, None]
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

    def _sample(self, context, n, temperature, key):
        """The stepwise choices and Gumbel rows, bit for bit.  The noise-free draft guesses
        a run and one noise draw (and one Gumbel draw, sampled) at the guessed prefixes
        checks it: guessed row j sits where the stepwise loop is once j choices match, and
        choices are kept up to the first miss.  A greedy run is guessed to the window's
        end, a sampled one to twice what the last run kept (4 rows at first), and none
        past the n rows a window may waste, so a run with no waste left is one row: at
        most 2n rows are drawn in at most n calls."""
        pkey = _prefix_hash(TAG_PERTURB, self.spec.seed, context)
        out, noise, kept, eos, spare = [], [], [], self.vocab.eos_id, n  # rows it may yet waste
        run = n if key is None else 4
        while len(out) < n and out[-1:] != [eos]:
            limit = min(run, spare + 1, n - len(out))
            rows, guess = self.base._guess((*context, *out), limit, self._bias)
            pkeys, keys = [pkey], [key]  # both key chains, fed each guessed prefix at once
            for t in guess[:-1]:
                pkeys.append(_fnv_feed(pkeys[-1], t))
                keys.append(key if key is None else _fnv_feed(keys[-1], t))
            scores = rows + (delta := self._noise(pkeys))
            if key is None:
                choices = scores.argmax(axis=1).tolist()
            else:  # gumbel_noise is looked up at call time, where tracing wraps it
                gumbel = sampling.gumbel_noise(keys, self.vocab.size)
                choices = gumbel_max(scores, gumbel, temperature).tolist()
            j = len(guess) - 1 if choices == guess else next(
                j for j, (c, g) in enumerate(zip(choices, guess)) if c != g)
            out += choices[:j + 1]
            if delta.ndim == 2:  # σ = 0 draws no rows
                kept.append(delta[:j + 1])
            pkey = _fnv_feed(pkeys[j], choices[j])
            spare -= len(rows) - j - 1
            if key is not None:
                noise.append(gumbel[:j + 1])
                key, run = _fnv_feed(keys[j], choices[j]), 2 * (j + 1)
        self._window = (context, tuple(out), kept)
        return out, None if key is None else np.concatenate(
            noise or [np.empty((0, self.vocab.size))])

    def next_logits_hidden(self, context):
        context = tuple(context)
        base_logits, base_hidden = self.base.next_logits_hidden(context)
        delta = self._window_delta(context)
        logits = base_logits + delta
        summary = float(delta[argmax_token(logits)])
        return logits, np.concatenate([base_hidden, [summary]])

    def _window_delta(self, context: tuple) -> np.ndarray:
        """`_delta(context)`, the row the last window drew at `context` if it drew one."""
        ctx, out, kept = self._window  # read once: the next window swaps the whole tuple
        i = len(context) - len(ctx)  # row i was drawn at the window's context + i choices
        if 0 <= i <= len(out) and context[:len(ctx)] == ctx and context[len(ctx):] == out[:i]:
            for rows in kept:
                if i < len(rows):
                    return rows[i]
                i -= len(rows)
        return self._delta(context)

    def _logit_rows(self, tokens, start):
        delta = self._delta(tokens, start)
        if self.spec.noise_scale:  # σ > 0: row i was drawn at tokens[:start + 1 + i]
            self._window = (tokens[:start + 1], tokens[start + 1:], [np.atleast_2d(delta)])
        return self.base._logit_rows(tokens, start) + delta


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
