"""Seed-conditioned sampling: greedy or Gumbel-max choices keyed by the context.

Stochastic sampling is reparameterized with the Gumbel-max trick: the
noise vector is a pure function of (seed, context token ids, vocab index),
so a sample is deterministic given the random state and becomes a fresh
draw from the model distribution when the seed varies.  Because the noise
depends only on the context and not on the model, a draft and a target
share noise at equal prefixes, which is what makes speculative decoding
under sampling reproduce direct sampling exactly for a fixed state.

A choice is argmax(logits / T + noise): log softmax(logits, T) differs
from logits / T by one constant per row, so no softmax is computed.

The noise is keyed by a running FNV-1a hash of the prefix, fed one token
per step, as a perturbed draft keys its own noise.  In a decode cycle each
prefix's noise is drawn once, by the draft, and verification reuses the
draft's rows; only the bonus row is drawn fresh.  Greedy choices draw none.
Runs of choices are the model's `sample`: a perturbed draft guesses runs of
them and draws each run's Gumbel rows in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lm import DataError, argmax_token

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
            raise DataError("seed must fit in 64 bits")


# _FNV_PRIME_POW[k] = P^k mod 2^64: k zero-byte steps folded into one multiply.
_FNV_PRIME_POW = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))


# Kernel constants as 0-d arrays: as operands they skip the scalar
# conversion that a Python int or float costs on every numpy call.
_PRIME_POW_U64 = tuple(np.array(p, dtype=np.uint64) for p in _FNV_PRIME_POW)
(_ONE, _BYTE, _EIGHT, _SHIFT10, _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31, _SM_GAMMA,
 _SM_MUL1, _SM_MUL2) = (np.array(c, dtype=np.uint64) for c in (  # 11: the tests' reference
    1, 0xFF, 8, 10, 11, 27, 30, 31, 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_TWO_POW_MINUS_54, _BELOW_ONE = np.array(2.0 ** -54), np.array(1 - 2.0 ** -53)


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
    h = _fnv_feed(_fnv_feed(_FNV_OFFSET, tag), seed)
    p8 = _FNV_PRIME_POW[8]
    for t in context:  # a byte-sized id folds inline, as in _fnv_feed
        h = ((h ^ t) * p8) & _MASK64 if 0 <= t <= 0xFF else _fnv_feed(h, t)
    return h


def _running_keys(h: int, tokens) -> np.ndarray:
    """uint64 keys h, then h fed tokens[0], then tokens[1], and so on.

    FNV-1a is a left fold: if h keys a prefix, these key that prefix and
    each extension of it by `tokens`, from one running hash.
    """
    keys = [h]
    for t in tokens:
        h = _fnv_feed(h, t)
        keys.append(h)
    return np.array(keys, dtype=np.uint64)


@lru_cache(maxsize=None)
def _ids_and_width(n: int) -> tuple[np.ndarray, int]:
    """The ids 0..n-1 as read-only uint64, built once per n, and the bytes they need."""
    ids = np.arange(n, dtype=np.uint64)
    ids.flags.writeable = False
    return ids, max(1, ((n - 1).bit_length() + 7) // 8)


def _fnv_feed_vec(h, values, nbytes: int) -> np.ndarray:
    """Vectorized _fnv_feed: absorb values into h elementwise, broadcasting.

    Only the low `nbytes` bytes are stepped, so every value must fit in
    them; the zero bytes above fold into one multiply, as in _fnv_feed.
    """
    v = np.asarray(values, dtype=np.uint64)
    out = np.asarray(h, dtype=np.uint64)
    for _ in range(nbytes - 1):
        out = (out ^ (v & _BYTE)) * _PRIME_POW_U64[1]
        v = v >> _EIGHT
    return (out ^ v) * _PRIME_POW_U64[9 - nbytes]


def _unit_uniform_vec(z: np.ndarray) -> np.ndarray:
    """SplitMix64 of each uint64 key mapped into (0, 1]: (a + 1/2) / 2^53 of its
    top 53 bits a, computed as ((z >> 10) | 1) * 2^-54 and rounded once.  Only
    a = 2^53 - 1 rounds to 1; 0 cannot come out.  The keys are scrambled in place.
    """
    z += _SM_GAMMA
    for shift, mul in ((_SHIFT30, _SM_MUL1), (_SHIFT27, _SM_MUL2)):
        z ^= z >> shift
        z *= mul
    z ^= z >> _SHIFT31
    z >>= _SHIFT10
    z |= _ONE
    return np.multiply(z, _TWO_POW_MINUS_54)  # casts to float64, rounding to nearest


def check_sampling(temperature: float, state: RandomState | None) -> None:
    """The one rule for a sampling setting: a finite temperature >= 0, where 0
    is greedy and any other value samples under a RandomState."""
    if not 0 <= temperature < np.inf:
        raise DataError("temperature must be finite and >= 0")
    if temperature != 0 and state is None:
        raise DataError("sampling needs a RandomState")


def gumbel_key(state: RandomState, context) -> int:
    """The Gumbel key of `context`: FNV-1a of (TAG_GUMBEL, seed, context ids).

    The key of `context + (t,)` is `_fnv_feed(key, t)`.
    """
    return _prefix_hash(TAG_GUMBEL, state.seed, context)


def gumbel_noise(key, n: int) -> np.ndarray:
    """Standard Gumbel noise over `n` vocab indices at the prefix keyed `key`.

    Entry i is -ln(-ln(u_i)) with u_i drawn from a counter generator
    seeded by feeding i into the key (see gumbel_key).  One key gives an
    (n,) vector, an array of m keys an (m, n) array.  A u_i of 1 becomes the
    largest float64 below 1, so every entry is finite.
    """
    keys = np.asarray(key, dtype=np.uint64)
    keys = keys[:, None] if keys.ndim else keys  # one key stays 0-d, numpy's fast path
    g = _unit_uniform_vec(_fnv_feed_vec(keys, *_ids_and_width(n)))
    np.negative(np.log(np.minimum(g, _BELOW_ONE, out=g), out=g), out=g)
    return np.negative(np.log(g, out=g), out=g)  # -log(-log u), in place


class ScoreError(ValueError):
    """Sampling scores that are not finite, as when logits / T overflows at a tiny T."""


def gumbel_max(logits, noise, temperature: float):
    """argmax(logits / T + noise) along the last axis, lowest id on ties.

    Equal to argmax(log softmax(logits, T) + noise): log softmax only
    subtracts a per-row constant.  A temperature that is not finite and
    positive is a ValueError, and a non-finite score a ScoreError.
    """
    if not 0 < temperature < np.inf:
        raise ValueError("sampling requires a finite temperature > 0")
    scores = np.asarray(logits, dtype=float) / temperature
    scores += noise
    if not np.isfinite(scores).all():
        raise ScoreError(f"sampling scores are not finite at temperature {float(temperature)!r}")
    return scores.argmax(axis=-1)  # the method skips np.argmax's dispatch


def seeded_choice(logits, context, state: RandomState | None, temperature: float) -> int:
    """The model's deterministic choice at this context.

    Temperature 0 means greedy argmax.  Otherwise the choice is the
    Gumbel-max sample argmax(logits / T + g(state, context)), whose
    marginal over seeds is softmax(logits, T): the softmax's
    log-normalizer is one constant per row and drops out of the argmax.
    """
    check_sampling(temperature, state)
    if temperature == 0:
        return argmax_token(logits)
    g = gumbel_noise(gumbel_key(state, context), len(logits))
    return int(gumbel_max(logits, g, temperature))


def rollout(model, context, max_new: int, temperature: float = 0.0,
            state: RandomState | None = None) -> list[int]:
    """Autoregress up to `max_new` tokens, stopping after end-of-sequence."""
    return model.sample(context, max_new, temperature, state)[0]


def positionwise_choices(model, tokens, temperature: float = 0.0,
                         state: RandomState | None = None, start: int = 0) -> list[int]:
    """The model's choice at positions start..len-1 of `tokens`.

    Entry j is what the model would emit after tokens[0..start+j-1], from
    one `top_choices` pass over those rows of tokens[:-1] or, sampled, one
    forward and one noise draw keyed by one running hash.  Position 0 has no
    context: its choice is -1.
    """
    check_sampling(temperature, state)
    tokens = tuple(tokens)
    first = max(start, 1)
    if first >= len(tokens):
        model._check_tokens(tokens)
        return [-1] * (first - start)
    if temperature == 0:
        ranked = model.top_choices(tokens[:-1], start=first - 1)
        return [-1] * (first - start) + [row[0] for row in ranked]
    logits = model.forward_logits(tokens[:-1], start=first - 1)
    keys = _running_keys(gumbel_key(state, tokens[:first]), tokens[first:-1])
    choices = gumbel_max(logits, gumbel_noise(keys, model.vocab.size), temperature)
    return [-1] * (first - start) + choices.tolist()
