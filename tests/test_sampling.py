"""Seed-conditioned sampling: FNV keys, Gumbel noise and seeded choices."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from specjudge import sampling
from specjudge.engine import EngineConfig, LosslessPolicy, spec_decode
from specjudge.lm import DataError, Vocab, argmax_token
from specjudge.mining import MiningConfig, mine_important
from specjudge.sampling import (TAG_PERTURB, RandomState, _fnv_feed,
                                _fnv_feed_vec, _prefix_hash, _running_keys,
                                _unit_uniform_vec, gumbel_key, gumbel_max, gumbel_noise,
                                positionwise_choices, rollout, seeded_choice)
from specjudge.tasks import gen_arithmetic_task
from specjudge.toymodels import PerturbedModel, PerturbSpec, ScriptedModel, make_draft

CTX = (3, 1, 4)
MASK64 = 2**64 - 1


def ref_fnv_feed(h, value):
    """Plain FNV-1a over the 8 little-endian bytes of value, one byte a step."""
    v = value & MASK64
    for _ in range(8):
        h = ((h ^ (v & 0xFF)) * 0x100000001B3) & MASK64
        v >>= 8
    return h


def ref_prefix_hash(tag, seed, context):
    h = 0xCBF29CE484222325
    for value in (tag, seed, *context):
        h = ref_fnv_feed(h, value)
    return h


hashes = st.integers(0, MASK64)
# Zero, token-sized, multi-byte, full 64-bit and negative values.
values = st.one_of(st.just(0), st.integers(0, 255), st.integers(256, 2**40),
                   st.integers(0, MASK64), st.just(MASK64),
                   st.integers(-(2**63), -1))
unsigned = st.one_of(st.integers(0, 255), st.integers(0, MASK64))


@settings(deadline=None)
@given(hashes, values)
def test_fnv_feed_matches_bytewise_reference(h, value):
    assert _fnv_feed(h, value) == ref_fnv_feed(h, value)


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(0, MASK64), st.lists(values, max_size=12))
def test_prefix_hash_matches_bytewise_reference(tag, seed, context):
    assert _prefix_hash(tag, seed, context) == ref_prefix_hash(tag, seed, context)


@settings(deadline=None)
@given(hashes, st.lists(unsigned, max_size=8))
def test_fnv_feed_vec_matches_reference_1d(h, vals):
    # The width the largest value needs, as the callers pass it.
    nbytes = max(1, (max(vals, default=0).bit_length() + 7) // 8)
    out = _fnv_feed_vec(h, np.array(vals, dtype=np.uint64), nbytes)
    assert out.dtype == np.uint64 and out.shape == (len(vals),)
    assert [int(x) for x in out] == [ref_fnv_feed(h, v) for v in vals]


@settings(deadline=None)
@given(st.lists(hashes, min_size=1, max_size=5),
       st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5))
def test_fnv_feed_vec_matches_reference_2d_broadcast(hs, vals):
    # Negative int64 values wrap to uint64 exactly as the scalar mask does.
    h, v = np.array(hs, dtype=np.uint64), np.array(vals, dtype=np.int64)
    expect = [[ref_fnv_feed(hh, vv) for hh in hs] for vv in vals]
    out = _fnv_feed_vec(h, v[:, None], 8)  # values down the rows
    assert out.shape == (len(vals), len(hs))
    assert [[int(x) for x in row] for row in out] == expect
    out = _fnv_feed_vec(h[:, None], v, 8)  # hashes down the rows
    assert [[int(x) for x in row] for row in out.T] == expect


def test_gumbel_noise_golden_values():
    # Pins the sampling universe: any change to the hash stream moves these.
    np.testing.assert_array_equal(gumbel_noise(gumbel_key(RandomState(7), CTX), 12), [
        2.419338335186757, 0.6050423360733387, 0.9893646846453731,
        0.3201478240068948, 2.672552471110647, 0.6501811535573411,
        1.0335146048200283, 1.0877881280058985, -0.5965528970217019,
        -0.26721833791915217, 1.97630286422359, 1.446901596739216])


def test_perturbed_delta_golden_row():
    vocab = Vocab(("a", "b", "c", "d", "e", "</s>"), eos_id=5)
    model = PerturbedModel(ScriptedModel(vocab, {}),
                           PerturbSpec(noise_scale=0.3, bias_tokens={2: 1.4}, seed=7))
    np.testing.assert_array_equal(model._delta(CTX), [
        0.148847064823535, -0.2924348669748018, 1.6002407872141695,
        -0.1583731280070454, -0.2980674710448077, 0.15890206023204398])


def byte_width(n):
    """Bytes that the ids 0..n-1 need, at least one."""
    return max(1, ((n - 1).bit_length() + 7) // 8)


def reference_unit_uniform(keys):
    """The allocating SplitMix64 map that `_unit_uniform_vec` replaced."""
    z = keys + sampling._SM_GAMMA
    for shift, mul in ((sampling._SHIFT30, sampling._SM_MUL1),
                       (sampling._SHIFT27, sampling._SM_MUL2)):
        z ^= z >> shift
        z *= mul
    z ^= z >> sampling._SHIFT31
    z >>= sampling._SHIFT11
    return (z.astype(np.float64) + 0.5) / float(1 << 53)


def reference_gumbel_noise(key, n):
    """The allocating Gumbel kernel that `gumbel_noise` replaced."""
    keys = np.asarray(key, dtype=np.uint64)[..., None]
    u = reference_unit_uniform(_fnv_feed_vec(keys, np.arange(n, dtype=np.uint64),
                                             byte_width(n)))
    return -np.log(-np.log(u))


def reference_delta(model, tokens, start=-1):
    """The perturbation kernel that `PerturbedModel._delta` replaced: the
    prefix hashed per call, every intermediate a fresh array."""
    sigma = model.spec.noise_scale
    if sigma == 0:
        return model._bias
    start %= len(tokens)
    keys = _running_keys(_prefix_hash(TAG_PERTURB, model.spec.seed, tokens[: start + 1]),
                         tokens[start + 1:])
    ids = np.arange(model.vocab.size, dtype=np.uint64)
    hi = _fnv_feed_vec(keys[:, None], ids, byte_width(len(ids)))
    streams = np.arange(2, dtype=np.uint64).reshape(2, 1, 1)
    u1, u2 = reference_unit_uniform(_fnv_feed_vec(hi, streams, 1))
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    delta = model._bias + sigma * z
    return delta if len(delta) > 1 else delta[0]


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# 300 ids need two bytes, so the kernels' multi-byte FNV feed runs too.
kernel_vocab_sizes = st.sampled_from([2, 117, 300])


@settings(deadline=None, max_examples=60)
@given(st.lists(hashes, min_size=1, max_size=6), st.integers(1, 3))
def test_unit_uniform_equals_allocating_reference(keys, rows):
    keys = np.array(keys * rows, dtype=np.uint64).reshape(rows, -1)
    assert same_bits(_unit_uniform_vec(keys.copy()), reference_unit_uniform(keys))


@settings(deadline=None, max_examples=60)
@given(kernel_vocab_sizes, st.one_of(hashes, st.lists(hashes, min_size=1, max_size=5)))
def test_gumbel_noise_equals_allocating_reference(n, key):
    key = key if isinstance(key, int) else np.array(key, dtype=np.uint64)
    assert same_bits(gumbel_noise(key, n), reference_gumbel_noise(key, n))


@settings(deadline=None, max_examples=60)
@given(kernel_vocab_sizes, st.sampled_from([0.0, 0.3]), st.integers(0, MASK64),
       st.data())
def test_perturbation_equals_allocating_reference(n, sigma, seed, data):
    """One row (the default start) and many rows, each bit for bit."""
    vocab = Vocab(tuple(f"t{i}" for i in range(n)), eos_id=n - 1)
    tokens = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10)))
    bias = data.draw(st.dictionaries(st.integers(0, n - 1), st.floats(-3, 3), max_size=3))
    model = PerturbedModel(ScriptedModel(vocab, {}),
                           PerturbSpec(noise_scale=sigma, bias_tokens=bias, seed=seed))
    for start in (-1, 0, data.draw(st.integers(0, len(tokens) - 1))):
        assert same_bits(model._delta(tokens, start), reference_delta(model, tokens, start))


def unxorshift(y, shift):
    """The x with x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def key_with_top_uniform(i):
    """A Gumbel key whose SplitMix64 output at id i (< 256) has all 53 top bits set:
    the mix, the SplitMix64 increment and the one-byte FNV feed, each inverted."""
    def inverse(c):
        return pow(int(c), -1, 1 << 64)
    z = unxorshift(MASK64, 31)
    z = unxorshift(z * inverse(sampling._SM_MUL2) & MASK64, 27)
    z = unxorshift(z * inverse(sampling._SM_MUL1) & MASK64, 30)
    fed = (z - int(sampling._SM_GAMMA)) & MASK64
    return (fed * inverse(sampling._FNV_PRIME_POW[8]) & MASK64) ^ i


@pytest.mark.parametrize("i", [0, 5, 116])
def test_gumbel_noise_is_finite_where_the_uniform_rounds_to_one(i):
    """(2^53 - 1 + 0.5) / 2^53 rounds to 1, and -log(-log 1) is +inf: that entry
    becomes the value at the largest float64 below 1, and no other entry moves."""
    n, key = 117, key_with_top_uniform(i)
    fed = _fnv_feed_vec(np.array([key], dtype=np.uint64), np.arange(n, dtype=np.uint64), 1)
    assert reference_unit_uniform(fed)[i] == 1.0  # the key hits the rounding case
    with np.errstate(divide="ignore"):
        want = reference_gumbel_noise(key, n)
    assert want[i] == np.inf
    for got in (gumbel_noise(key, n), gumbel_noise(np.array([7, key], dtype=np.uint64), n)[1]):
        assert np.isfinite(got).all()
        assert got[i] == -math.log(-math.log(1 - 2.0**-53))
        assert same_bits(np.delete(got, i), np.delete(want, i))
    logits = np.zeros(n)
    assert gumbel_max(logits, gumbel_noise(key, n), 1.0) == i


def test_random_state_validates_64_bits():
    RandomState(0)
    RandomState(2**64 - 1)
    with pytest.raises(DataError):
        RandomState(-1)
    with pytest.raises(DataError):
        RandomState(2**64)


def test_gumbel_noise_is_deterministic_and_keyed():
    g = gumbel_noise(gumbel_key(RandomState(7), CTX), 12)
    np.testing.assert_array_equal(g, gumbel_noise(gumbel_key(RandomState(7), CTX), 12))
    assert np.any(g != gumbel_noise(gumbel_key(RandomState(8), CTX), 12))
    assert np.any(g != gumbel_noise(gumbel_key(RandomState(7), CTX + (9,)), 12))
    assert np.all(np.isfinite(g))


def ref_gumbel_max(logits, noise, temperature):
    """The log-softmax rule: argmax(log softmax(logits, T) + noise)."""
    z = np.asarray(logits, dtype=float) / temperature
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    with np.errstate(divide="ignore"):  # an underflowed probability logs to -inf
        scores = np.log(e / e.sum(axis=-1, keepdims=True))
    return np.argmax(scores + noise, axis=-1)


@settings(deadline=None)
@given(st.data(), st.integers(2, 40), st.one_of(st.none(), st.integers(1, 6)),
       st.floats(0.05, 40.0))
def test_gumbel_max_matches_log_softmax_rule(data, vocab, rows, temperature):
    shape = (vocab,) if rows is None else (rows, vocab)
    logits = data.draw(hnp.arrays(float, shape, elements=st.floats(-50.0, 50.0)))
    keys = data.draw(st.lists(hashes, min_size=rows or 1, max_size=rows or 1))
    noise = gumbel_noise(keys[0] if rows is None else np.array(keys, dtype=np.uint64), vocab)
    assert noise.shape == shape
    # The two rules round differently, so scores within a few ulps could
    # break either way; under random 64-bit keys such a near-tie is negligible.
    np.testing.assert_array_equal(gumbel_max(logits, noise, temperature),
                                  ref_gumbel_max(logits, noise, temperature))


def test_gumbel_max_ties_and_bad_inputs():
    assert gumbel_max([1.0, 3.0, 3.0, 0.0], np.zeros(4), 0.5) == 1
    assert gumbel_max([[2.0, 2.0], [0.0, 1.0]], np.zeros((2, 2)), 1.0).tolist() == [0, 1]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            gumbel_max([0.0, bad, 1.0], np.zeros(3), 1.0)
    for temperature in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            gumbel_max([0.0, 1.0], np.zeros(2), temperature)


def test_seeded_choice_greedy_is_argmax():
    logits = np.array([0.1, 2.0, 2.0, -1.0])
    assert seeded_choice(logits, CTX, None, 0.0) == argmax_token(logits)
    with pytest.raises(DataError):
        seeded_choice(logits, CTX, None, 1.0)  # sampled mode needs a state


def test_seeded_choice_marginal_matches_softmax():
    # 50000 seeds against the exact categorical law, +-0.01 per token.
    probs = np.array([0.5, 0.3, 0.2])
    logits = np.log(probs)
    counts = np.zeros(3)
    n = 50000
    for s in range(n):
        counts[seeded_choice(logits, CTX, RandomState(s), 1.0)] += 1
    np.testing.assert_allclose(counts / n, probs, atol=0.01)


def test_seeded_choice_temperature_reshapes_marginal():
    logits = np.array([1.0, 0.0])
    hot = np.exp(logits / 0.5) / np.exp(logits / 0.5).sum()
    n = 20000
    wins = sum(seeded_choice(logits, CTX, RandomState(s), 0.5) == 0
               for s in range(n))
    assert abs(wins / n - hot[0]) < 0.01


def test_rollout_emits_new_tokens_until_eos():
    v = Vocab(("p", "a", "b", "</s>"), eos_id=3)
    model = ScriptedModel(v, {(0,): 1, (0, 1): 2, (0, 1, 2): 3})
    assert rollout(model, (0,), 10) == [1, 2, 3]
    assert rollout(model, (0,), 2) == [1, 2]  # budget cap before eos
    with pytest.raises(DataError):
        rollout(model, (0, 9), 2)  # the context is still validated


def per_prefix_choices(model, tokens, temperature, state):
    """Reference: one next_logits_hidden and one seeded_choice per prefix."""
    return [-1] + [seeded_choice(model.next_logits_hidden(tokens[:i])[0], tokens[:i],
                                 state, temperature)
                   for i in range(1, len(tokens))]


def test_positionwise_choices_match_per_prefix_sampling(pipeline, monkeypatch):
    """At every start, past the end too, and one perturbation row drawn per choice
    the draft returns: the row after the last token is never drawn."""
    v = Vocab(("p", "a", "b", "</s>"), eos_id=3)
    scripted = ScriptedModel(v, {(0,): 1, (0, 1): 2, (0, 2): 1})
    cases = [(scripted, (0, 2, 1, 3), 0.0), (scripted, (0, 2, 1, 3), 0.7)]
    # A draft-sampled response, so the target disagrees at some positions.
    prompt = gen_arithmetic_task(9000, 2, pipeline.vocab).prompt.tokens
    seq = prompt + tuple(rollout(pipeline.draft, prompt, 24, 0.2, RandomState(5)))
    for model in (pipeline.target, pipeline.draft):
        cases += [(model, seq, 0.0), (model, seq, 0.2)]
    noise, drawn = PerturbedModel._noise, []

    def counted(self, keys):
        drawn.append(np.size(keys))
        return noise(self, keys)

    monkeypatch.setattr(PerturbedModel, "_noise", counted)
    state = RandomState(11)
    for model, tokens, temp in cases:
        st = None if temp == 0 else state
        expect = per_prefix_choices(model, tokens, temp, st)
        for start in range(len(tokens) + 2):
            drawn.clear()
            got = positionwise_choices(model, tokens, temp, st, start=start)
            assert got == expect[start:]
            assert sum(drawn) == (len(got) - (start == 0) if model is pipeline.draft else 0)
    with pytest.raises(DataError):
        positionwise_choices(scripted, ())


def stepwise_greedy(model, context, n):
    """Up to n argmax choices after `context`, one `next_logits` each, stopping after EOS."""
    out = []
    while len(out) < n and out[-1:] != [model.vocab.eos_id]:
        out.append(argmax_token(model.next_logits(context + tuple(out))))
    return out


def sampling_entries(pipeline):
    """Every entry point that takes a (temperature, state) setting, each as
    f(temperature, state) -> output, with the argmax output it must give greedy."""
    vocab = pipeline.vocab
    task = gen_arithmetic_task(9000, 2, vocab)
    prompt, target, draft = task.prompt.tokens, pipeline.target, pipeline.draft
    n = task.max_response_len
    greedy = stepwise_greedy(target, prompt, n)
    seq = prompt + tuple(greedy)
    logits = np.array([0.1, 2.0, 2.0, -1.0])
    then = {vocab.token_to_id["Then"]: 1.4}
    models = {  # every model's `sample`: each backend's hook, and the default's
        "ngram": target, "draft": draft,
        "draft-sigma0": make_draft(target, PerturbSpec(bias_tokens=then)),
        "scripted": ScriptedModel(vocab, {prompt: 5}),
    }
    entries = {f"sample:{name}": (lambda t, s, model=model: model.sample(prompt, n, t, s)[0],
                                  stepwise_greedy(model, prompt, n))
               for name, model in models.items()}
    return entries | {
        "EngineConfig": (lambda t, s: list(spec_decode(
            prompt, draft, target, LosslessPolicy(),
            EngineConfig(window=4, max_tokens=n, temperature=t, state=s)).response), greedy),
        "MiningConfig": (lambda t, s: mine_important(
            task, draft, target, MiningConfig(temperature=t, state=s)).reference_tokens, seq),
        "rollout": (lambda t, s: rollout(target, prompt, n, t, s), greedy),
        "positionwise_choices": (lambda t, s: positionwise_choices(draft, seq, t, s),
                                 [-1] + [argmax_token(draft.next_logits(seq[:i]))
                                         for i in range(1, len(seq))]),
        "seeded_choice": (lambda t, s: seeded_choice(logits, CTX, s, t), 1),
    }


FINITE = "temperature must be finite and >= 0"


@pytest.mark.parametrize("temperature, state, message", [
    (math.nan, None, FINITE), (math.nan, RandomState(1), FINITE),
    (math.inf, None, FINITE), (math.inf, RandomState(1), FINITE),
    (-1.0, None, FINITE), (-1.0, RandomState(1), FINITE),
    (0.5, None, "sampling needs a RandomState"),
], ids=["nan", "nan-state", "inf", "inf-state", "negative", "negative-state", "no-state"])
def test_every_entry_point_refuses_a_bad_setting_alike(pipeline, temperature, state,
                                                       message):
    """One rule decides every sampling setting, with one message per fault."""
    for name, (entry, _) in sampling_entries(pipeline).items():
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            entry(temperature, state)
            pytest.fail(f"{name} accepted the setting")


@pytest.mark.parametrize("temperature", [0.0, -0.0])
@pytest.mark.parametrize("state", [None, RandomState(1)])
def test_every_entry_point_is_greedy_at_zero(pipeline, temperature, state):
    for name, (entry, greedy) in sampling_entries(pipeline).items():
        assert entry(temperature, state) == greedy, name
