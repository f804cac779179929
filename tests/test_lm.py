"""Vocabulary, token sequences, and the forward-pass contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge.lm import DataError, TokenSequence, Vocab, argmax_token
from specjudge.sampling import RandomState, _fnv_feed, gumbel_key, gumbel_max, gumbel_noise
from specjudge.toymodels import PerturbedModel, PerturbSpec, ScriptedModel, train_ngram
from specjudge.trace import record_trace


def small_vocab():
    return Vocab(("a", "b", "c", "</s>"), eos_id=3)


def tiny_model():
    v = small_vocab()
    corpus = [[0, 1, 2, 3], [0, 1, 1, 3], [0, 2, 2, 3]]
    return train_ngram(v, corpus, order=3, smoothing=0.5)


def test_vocab_rejects_bad_shapes():
    with pytest.raises(DataError):
        Vocab(("only",), eos_id=0)
    with pytest.raises(DataError):
        Vocab(("a", "b"), eos_id=2)
    with pytest.raises(DataError):
        Vocab(("a", "a", "b"), eos_id=0)


def test_vocab_encode_decode_round_trip():
    v = small_vocab()
    ids = v.encode("b a c </s>")
    assert ids == [1, 0, 2, 3]
    assert v.decode(ids) == "b a c </s>"
    with pytest.raises(DataError):
        v.encode("a z")


def test_vocab_encode_names_the_first_unknown_word():
    with pytest.raises(DataError) as exc:
        small_vocab().encode("a zed b why")
    assert str(exc.value) == "unknown token 'zed'"


def test_token_sequence_boundary():
    seq = TokenSequence((1, 2, 3, 0), prompt_len=2)
    assert len(seq) == 4
    assert seq.prompt == (1, 2)
    assert seq.response == (3, 0)
    with pytest.raises(DataError):
        TokenSequence((1, 2), prompt_len=3)


def test_argmax_breaks_ties_toward_lowest_id():
    assert argmax_token([1.0, 3.0, 3.0, 0.0]) == 1
    assert argmax_token([2.0, 2.0]) == 0


def _assert_rows_match_steps(model, tokens, starts):
    for start in starts:
        out = model.forward_parallel(tokens, start)
        assert np.array_equal(model.forward_logits(tokens, start), out.logits), (model.name, start)
        assert out.logits.shape == (len(tokens) - start, model.vocab.size)
        assert out.hidden.shape == (len(tokens) - start, model.hidden_dim)
        for i in range(start, len(tokens)):
            logits, hidden = model.next_logits_hidden(tokens[: i + 1])
            assert np.array_equal(model.next_logits(tokens[: i + 1]), logits), (model.name, i)
            assert np.array_equal(out.logits[i - start], logits), (model.name, start, i)
            assert np.array_equal(out.hidden[i - start], hidden), (model.name, start, i)


def _contract_models(tokens, order, prompt_len):
    """(model, first row) pairs: an n-gram, its drafts without and with
    noise, a scripted model and, when there is a response, both replays
    and the noisy draft's perturbation of each.

    The n-gram is also trained on the drawn tokens, so their contexts have
    counts at every order; at order 16 most rows see a context shorter
    than the window.
    """
    v = Vocab(tuple("abcdefg") + ("</s>",), eos_id=7)
    base = train_ngram(v, [[0, 1, 2, 7], [3, 1, 4, 1, 5, 7], tokens], order=order,
                       smoothing=0.3, seed=order)
    noisy = PerturbedModel(base, PerturbSpec(noise_scale=0.6, bias_tokens={2: 1.1}, seed=5))
    models = [base, PerturbedModel(base, PerturbSpec()), noisy,
              ScriptedModel(v, {tokens[:i]: tokens[i] for i in range(1, len(tokens))})]
    pairs = [(model, 0) for model in models]
    if prompt_len < len(tokens):
        trace = record_trace(noisy, base, TokenSequence(tokens, prompt_len))
        replays = trace.replay_models(v)
        replays += tuple(PerturbedModel(replay, noisy.spec) for replay in replays)
        pairs += [(replay, prompt_len - 1) for replay in replays]
    return pairs


contract_args = dict(tokens=st.lists(st.integers(0, 7), min_size=1, max_size=24).map(tuple),
                     order=st.sampled_from([1, 3, 16]), prompt_len=st.integers(1, 6))
contract_cases = given(**contract_args)


@settings(max_examples=40, deadline=None)
@contract_cases
def test_forward_parallel_matches_sequential(tokens, order, prompt_len):
    """Every row from every start equals the per-step primitive, bit for bit,
    and so do the logits-only forward's rows and the logits-only step's
    logits at every prefix."""
    for model, first in _contract_models(tokens, order, prompt_len):
        _assert_rows_match_steps(model, tokens, range(first, len(tokens)))


@settings(max_examples=40, deadline=None)
@contract_cases
def test_logit_steps_match_next_logits(tokens, order, prompt_len):
    """Each row of one `logit_steps` generator, sent the rest of the tokens,
    equals `next_logits` at the same prefix, bit for bit."""
    for model, first in _contract_models(tokens, order, prompt_len):
        steps = model.logit_steps(tokens[: first + 1])
        for i in range(first, len(tokens)):
            row = steps.send(tokens[i] if i > first else None)
            assert np.array_equal(row, model.next_logits(tokens[: i + 1])), (model.name, i)


def _stepwise_greedy(model, context, n):
    """Up to n argmax choices from one `logit_steps` generator, stopping after EOS."""
    steps, out = model.logit_steps(context), []
    while len(out) < n and (not out or out[-1] != model.vocab.eos_id):
        out.append(argmax_token(steps.send(out[-1] if out else None)))
    return out


def _outcome(fn, *args):
    """fn(*args), or the class of the DataError it raises."""
    try:
        return fn(*args)
    except DataError as e:
        return type(e)


@settings(max_examples=40, deadline=None)
@contract_cases
def test_greedy_matches_stepwise_argmax(tokens, order, prompt_len):
    """Greedy `sample` from every prefix, for every budget, equals a stepwise argmax
    loop over `logit_steps`; a replay that leaves its trace fails the same way."""
    for model, first in _contract_models(tokens, order, prompt_len):
        for k in range(first + 1, len(tokens) + 1):
            for n in range(len(tokens) + 3):
                expect = _outcome(_stepwise_greedy, model, tokens[:k], n)
                assert _outcome(lambda *a: model.sample(*a)[0], tokens[:k], n) == expect, \
                    (model.name, k, n)


def _stepwise_sampled(model, context, n, temperature, key):
    """Up to n Gumbel-max choices from one `logit_steps` generator, stopping after
    EOS, and the bytes of their Gumbel rows, row i drawn at the key fed choices[:i]."""
    steps, out, rows = model.logit_steps(context), [], []
    while len(out) < n and (not out or out[-1] != model.vocab.eos_id):
        logits = steps.send(out[-1] if out else None)
        rows.append(gumbel_noise(key, model.vocab.size))
        out.append(int(gumbel_max(logits, rows[-1], temperature)))
        key = _fnv_feed(key, out[-1])
    return out, np.array(rows).tobytes()


def _sampled(model, context, n, temperature, key):
    out, noise = model.sample(context, n, temperature, key)
    assert noise.shape == (len(out), model.vocab.size)
    return out, noise.tobytes()


@settings(max_examples=40, deadline=None)
@given(**contract_args, temperature=st.sampled_from([0.3, 1.0, 5.0]),
       seed=st.integers(0, 2**64 - 1))
def test_sampled_matches_stepwise_gumbel_max(tokens, order, prompt_len, temperature, seed):
    """Sampled `sample` from every prefix, for every budget, equals a stepwise
    Gumbel-max loop over `logit_steps`: the same choices and the same Gumbel-row
    bytes; a replay that leaves its trace fails the same way."""
    state = RandomState(seed)
    for model, first in _contract_models(tokens, order, prompt_len):
        for k in range(first + 1, len(tokens) + 1):
            key = gumbel_key(state, tokens[:k])
            for n in range(len(tokens) + 3):
                expect = _outcome(_stepwise_sampled, model, tokens[:k], n, temperature, key)
                assert _outcome(_sampled, model, tokens[:k], n, temperature, key) == expect, \
                    (model.name, k, n)


def test_forward_rows_ignore_later_tokens():
    model = tiny_model()
    a = model.forward_parallel((0, 1, 2, 1))
    b = model.forward_parallel((0, 1, 2, 2))  # same prefix, different tail
    np.testing.assert_array_equal(a.logits[:3], b.logits[:3])
    np.testing.assert_array_equal(a.hidden[:3], b.hidden[:3])


def test_token_range_checked():
    model = tiny_model()
    for forward in (model.forward_parallel, model.forward_logits):
        with pytest.raises(DataError):
            forward((0, 9))
        for start in (-1, 2):
            with pytest.raises(DataError):
                forward((0, 1), start)
        with pytest.raises(DataError):
            forward(())
