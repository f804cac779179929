"""Seed-conditioned sampling and the lossless token verification rule.

Stochastic sampling is reparameterized with the Gumbel-max trick: the
noise vector is a pure function of (seed, context token ids, vocab index),
so a sample is deterministic given the random state and becomes a fresh
draw from the model distribution when the seed varies.  Because the noise
depends only on the context and not on the model, a draft and a target
share noise at equal prefixes, which is what makes speculative decoding
under sampling reproduce direct sampling exactly for a fixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lm import argmax_token, softmax

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Stream tags keep independent uses of the same (seed, context) apart.  Each
# tag is hashed into its stream, so the values are fixed.
TAG_GUMBEL = 0
TAG_PERTURB = 3


@dataclass(frozen=True)
class RandomState:
    """64-bit seed identifying one sampling universe."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")


# _FNV_PRIME_POW[k] = P^k mod 2^64: k zero-byte steps folded into one multiply.
_FNV_PRIME_POW = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))


def _fnv_feed(h: int, value: int) -> int:
    """Absorb one value as 8 little-endian bytes, FNV-1a style.

    A byte step is h = (h ^ byte) * P mod 2^64, so a zero byte only
    multiplies by P.  Once the bytes still to come are all zero, the
    remaining k steps fold exactly into one multiply by P^k: a value below
    256 (every token id of a small vocab) costs one xor and one multiply,
    bit-identical to the 8-step loop for every input.
    """
    v = value & _MASK64
    k = 8
    while v > 0xFF:
        h = ((h ^ (v & 0xFF)) * _FNV_PRIME) & _MASK64
        v >>= 8
        k -= 1
    return ((h ^ v) * _FNV_PRIME_POW[k]) & _MASK64


def _prefix_hash(tag: int, seed: int, context) -> int:
    h = _fnv_feed(_FNV_OFFSET, tag)
    h = _fnv_feed(h, seed)
    for t in context:
        h = _fnv_feed(h, t)
    return h


def _fnv_feed_vec(h, values) -> np.ndarray:
    """Vectorized _fnv_feed: absorb values into h elementwise, broadcasting.

    Only the low bytes that the largest value needs are stepped; the zero
    bytes above them fold into one multiply, as in _fnv_feed.
    """
    v = np.asarray(values, dtype=np.uint64)
    out = np.asarray(h, dtype=np.uint64)
    nbytes = max(1, (int(v.max(initial=0)).bit_length() + 7) // 8)
    prime = np.uint64(_FNV_PRIME)
    mask, eight = np.uint64(0xFF), np.uint64(8)
    for _ in range(nbytes - 1):
        out = (out ^ (v & mask)) * prime
        v = v >> eight
    return (out ^ v) * np.uint64(_FNV_PRIME_POW[9 - nbytes])


def _unit_uniform_vec(keys: np.ndarray) -> np.ndarray:
    """SplitMix64 of each key mapped into (0, 1) strictly.

    The top 53 bits are offset by half an ulp of the 53-bit grid, so
    neither 0 nor 1 can come out.
    """
    z = keys + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) / float(1 << 53)


def gumbel_noise(state: RandomState, context, n: int) -> np.ndarray:
    """Standard Gumbel noise vector over `n` vocab indices.

    Entry i is -ln(-ln(u_i)) with u_i drawn from a counter generator
    seeded by the 64-bit FNV-1a hash of (seed, context ids, i).
    """
    h = _prefix_hash(TAG_GUMBEL, state.seed, context)
    u = _unit_uniform_vec(_fnv_feed_vec(h, np.arange(n)))
    return -np.log(-np.log(u))


def seeded_choice(logits, context, state: RandomState | None, temperature: float) -> int:
    """The model's deterministic choice at this context.

    Temperature 0 means greedy argmax.  Otherwise the choice is the
    Gumbel-max sample argmax(log softmax(logits, T) + g(state, context)),
    whose marginal over seeds is softmax(logits, T).
    """
    if temperature == 0:
        return argmax_token(logits)
    if state is None:
        raise ValueError("sampled mode requires a RandomState")
    probs = softmax(logits, temperature)
    g = gumbel_noise(state, context, len(probs))
    return argmax_token(np.log(probs) + g)


def sample_next(model, context, state: RandomState | None, temperature: float) -> int:
    """Sample the next token after `context` under the model."""
    context = tuple(context)
    model._check_tokens(context)
    logits, _ = model.next_logits_hidden(context)
    return seeded_choice(logits, context, state, temperature)


def rollout(model, context, max_new: int, temperature: float = 0.0,
            state: RandomState | None = None) -> list[int]:
    """Autoregress up to `max_new` tokens, stopping after end-of-sequence.

    The context is validated once; every token appended after it is a
    model choice and so lies in the vocabulary.
    """
    tokens = tuple(context)
    model._check_tokens(tokens)
    out = []
    eos = model.vocab.eos_id
    for _ in range(max_new):
        logits, _ = model.next_logits_hidden(tokens)
        t = seeded_choice(logits, tokens, state, temperature)
        tokens += (t,)
        out.append(t)
        if t == eos:
            break
    return out


def positionwise_choices(model, tokens, temperature: float = 0.0,
                         state: RandomState | None = None, start: int = 0) -> list[int]:
    """The model's choice at positions start..len-1 of `tokens`.

    Entry j is what the model would emit after tokens[0..start+j-1],
    from one forward over the rows that predict those positions.
    Position 0 has no context, so its choice is undefined and set to -1.
    """
    tokens = tuple(tokens)
    first = max(start, 1)
    # The last row predicts past the end; it is computed, not read.
    logits = model.forward_parallel(tokens, start=first - 1).logits[:-1]
    return [-1] * (first - start) + [
        seeded_choice(row, tokens[: first + j], state, temperature)
        for j, row in enumerate(logits)]


@dataclass
class VerifyDecision:
    """Outcome of the lossless acceptance test for one drafted token."""

    accepted: bool
    replacement: int | None = None  # set iff rejected
    residual: np.ndarray | None = None  # replacement law, sums to 1

    def __post_init__(self):
        if self.accepted and (self.replacement is not None or self.residual is not None):
            raise ValueError("accepted decisions carry no replacement")
        if not self.accepted and self.replacement is None:
            raise ValueError("rejected decisions need a replacement")


def verify_token(p_target, p_draft, drafted: int, u: float,
                 residual_u: float = 0.0) -> VerifyDecision:
    """Distribution-preserving accept/reject for one drafted token.

    Accept iff u < min(1, p_target[drafted] / p_draft[drafted]); on
    rejection the replacement is drawn from the normalized positive part
    of (p_target - p_draft) by inverse CDF at `residual_u`.  Marginally
    over u and the residual draw, the emitted token is distributed
    exactly as p_target.
    """
    p = np.asarray(p_target, dtype=float)
    q = np.asarray(p_draft, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("distributions must be equal-length vectors")
    if not (0.0 <= u < 1.0) or not (0.0 <= residual_u < 1.0):
        raise ValueError("u and residual_u must lie in [0, 1)")
    for vec, label in ((p, "p_target"), (q, "p_draft")):
        if not np.all(np.isfinite(vec)) or np.any(vec < 0):
            raise ValueError(f"{label} must be a finite nonnegative vector")
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{label} must sum to 1")
    if not 0 <= drafted < len(q) or q[drafted] <= 0.0:
        raise ValueError("drafted token must have positive draft probability")

    ratio = min(1.0, p[drafted] / q[drafted])
    if u < ratio:
        return VerifyDecision(accepted=True)
    residual = np.maximum(p - q, 0.0)
    mass = residual.sum()
    if mass <= 0.0:
        # p == q (up to rounding): rejection is a measure-zero event, but
        # fall back to the target law so the decision stays well formed.
        residual = p / p.sum()
    else:
        residual = residual / mass
    cdf = np.cumsum(residual)
    replacement = int(np.searchsorted(cdf, residual_u * cdf[-1], side="right"))
    replacement = min(replacement, len(residual) - 1)
    return VerifyDecision(accepted=False, replacement=replacement, residual=residual)
