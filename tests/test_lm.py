"""Vocabulary, token sequences, and the forward-pass contract."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge import engine
from specjudge.lm import DataError, LanguageModel, TokenSequence, Vocab, argmax_token
from specjudge.sampling import RandomState, _fnv_feed, gumbel_key, gumbel_max, gumbel_noise
from specjudge.toymodels import PerturbedModel, PerturbSpec, ScriptedModel, train_ngram


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


def _sorted_ids(row):
    """Every id of a logits row, sorted by (-logit, id)."""
    return sorted(range(len(row)), key=lambda i: (-row[i], i))


def _assert_rows_match_steps(model, tokens, starts):
    size = model.vocab.size
    for start in starts:
        out = model.forward_parallel(tokens, start)
        assert np.array_equal(model.forward_logits(tokens, start), out.logits), (model.name, start)
        order = [_sorted_ids(row) for row in out.logits]
        for k in range(1, size + 2):
            assert model.top_choices(tokens, start, k) == [tuple(o[:k]) for o in order], \
                (model.name, start, k)
        if start == 0:  # membership in every row agrees with the engine's sampled rank
            for k in range(1, size + 2):
                for row, ids in zip(out.logits, model.top_choices(tokens, 0, k)):
                    assert [t in ids for t in range(size)] \
                        == [engine._in_top_k(row, t, k) for t in range(size)], (model.name, k)
        assert out.logits.shape == (len(tokens) - start, model.vocab.size)
        assert out.hidden.shape == (len(tokens) - start, model.hidden_dim)
        for i in range(start, len(tokens)):
            logits, hidden = model.next_logits_hidden(tokens[: i + 1])
            assert np.array_equal(model.next_logits(tokens[: i + 1]), logits), (model.name, i)
            assert np.array_equal(out.logits[i - start], logits), (model.name, start, i)
            assert np.array_equal(out.hidden[i - start], hidden), (model.name, start, i)


def _contract_models(tokens, order):
    """An n-gram, its drafts without noise, with σ=0.6 noise and with σ=3 noise
    (whose noise-free guesses mostly miss, so its runs shrink to one row once a
    window's waste is spent), and a scripted model.

    The n-gram is also trained on the drawn tokens, so their contexts have
    counts at every order; at order 16 most rows see a context shorter
    than the window.
    """
    v = Vocab(tuple("abcdefg") + ("</s>",), eos_id=7)
    base = train_ngram(v, [[0, 1, 2, 7], [3, 1, 4, 1, 5, 7], tokens], order=order,
                       smoothing=0.3, seed=order)
    noisy = PerturbedModel(base, PerturbSpec(noise_scale=0.6, bias_tokens={2: 1.1}, seed=5))
    missing = PerturbedModel(base, PerturbSpec(noise_scale=3.0, seed=6))
    return [base, PerturbedModel(base, PerturbSpec()), noisy, missing,
            ScriptedModel(v, {tokens[:i]: tokens[i] for i in range(1, len(tokens))})]


contract_args = dict(tokens=st.lists(st.integers(0, 7), min_size=1, max_size=24).map(tuple),
                     order=st.sampled_from([1, 3, 16]))
contract_cases = given(**contract_args)


@settings(max_examples=40, deadline=None)
@contract_cases
def test_forward_parallel_matches_sequential(tokens, order):
    """Every row from every start equals the per-step primitive, bit for bit,
    and so do the logits-only forward's rows and the logits-only step's
    logits at every prefix; `top_choices` at every k up to V+1 is the head of each
    row's ids sorted by (-logit, id), and membership in it is `engine._in_top_k`."""
    for model in _contract_models(tokens, order):
        _assert_rows_match_steps(model, tokens, range(len(tokens)))


def _stepwise_greedy(model, context, n):
    """Up to n argmax choices, one `next_logits` call each, stopping after EOS."""
    out = []
    while len(out) < n and out[-1:] != [model.vocab.eos_id]:
        out.append(argmax_token(model.next_logits(context + tuple(out))))
    return out


def _outcome(fn, *args):
    """fn(*args), or the message of the DataError it raises."""
    try:
        return fn(*args)
    except DataError as e:
        return f"DataError: {e}"


@settings(max_examples=40, deadline=None)
@contract_cases
def test_greedy_matches_stepwise_argmax(tokens, order):
    """Greedy `sample` from every prefix, for every budget, equals a stepwise argmax
    loop over `next_logits`."""
    for model in _contract_models(tokens, order):
        for k in range(1, len(tokens) + 1):
            for n in range(len(tokens) + 3):
                expect = _outcome(_stepwise_greedy, model, tokens[:k], n)
                assert _outcome(lambda *a: model.sample(*a)[0], tokens[:k], n) == expect, \
                    (model.name, k, n)


def _stepwise_sampled(model, context, n, temperature, key):
    """Up to n Gumbel-max choices, one `next_logits` call each, stopping after EOS,
    and the bytes of their Gumbel rows, row i drawn at the key fed choices[:i]."""
    out, rows = [], []
    while len(out) < n and out[-1:] != [model.vocab.eos_id]:
        logits = model.next_logits(context + tuple(out))
        rows.append(gumbel_noise(key, model.vocab.size))
        out.append(int(gumbel_max(logits, rows[-1], temperature)))
        key = _fnv_feed(key, out[-1])
    return out, np.array(rows).tobytes()


def _sampled(model, context, n, temperature, key):
    out, noise = model._sample(context, n, temperature, key)
    assert noise.shape == (len(out), model.vocab.size)
    return out, noise.tobytes()


@settings(max_examples=40, deadline=None)
@given(**contract_args, temperature=st.sampled_from([0.3, 1.0, 5.0]),
       seed=st.integers(0, 2**64 - 1))
def test_sampled_matches_stepwise_gumbel_max(tokens, order, temperature, seed):
    """Sampled `sample` from every prefix, for every budget, equals a stepwise
    Gumbel-max loop over `next_logits`: the same choices and the same Gumbel-row
    bytes."""
    state = RandomState(seed)
    for model in _contract_models(tokens, order):
        for k in range(1, len(tokens) + 1):
            key = gumbel_key(state, tokens[:k])
            for n in range(len(tokens) + 3):
                expect = _outcome(_stepwise_sampled, model, tokens[:k], n, temperature, key)
                assert _outcome(_sampled, model, tokens[:k], n, temperature, key) == expect, \
                    (model.name, k, n)


class _Refusing(ScriptedModel):
    """Rejects every context that holds token 5: a step that raises a DataError."""

    def next_logits_hidden(self, context):
        if 5 in context:
            raise DataError("refused context")
        return super().next_logits_hidden(context)


def test_a_refused_step_fails_every_entry_alike():
    """A refused row is the same DataError out of every checked entry, at the first
    row asked for and at a later one: the script steers (0, 1) into token 5."""
    v = Vocab(tuple("abcdefg") + ("</s>",), eos_id=7)
    model = _Refusing(v, {(0,): 1, (0, 1): 5}, default_token=0)
    for tokens, start in (((0, 5), 1), ((0, 1, 5, 2), 0)):
        for entry in (model.forward_parallel, model.forward_logits, model.top_choices):
            with pytest.raises(DataError, match="^refused context$"):
                entry(tokens, start)
    for temperature, state in ((0.0, None), (0.5, RandomState(0))):
        for context in ((0, 5), (0, 1)):
            with pytest.raises(DataError, match="^refused context$"):
                model.sample(context, 3, temperature, state)


def test_a_rejected_one_row_run_fails_as_stepping_does():
    """A σ=100 draft's guesses mostly miss, so its windows spend their waste and go
    on in runs of one row; once it chooses 5 the next row is rejected.  At this seed
    both temperatures reach a one-row run whose only row is rejected, and every
    budget fails or succeeds exactly as the stepwise loops do."""
    v = Vocab(tuple("abcdefg") + ("</s>",), eos_id=7)
    draft = PerturbedModel(_Refusing(v, {}, default_token=0),
                           PerturbSpec(noise_scale=100.0, bias_tokens={7: -1e4}, seed=0))
    key = gumbel_key(RandomState(0), (0,))
    outcomes = set()
    for n in range(1, 40):
        greedy = _outcome(_stepwise_greedy, draft, (0,), n)
        assert _outcome(lambda *a: draft.sample(*a)[0], (0,), n) == greedy, n
        sampled = _outcome(_stepwise_sampled, draft, (0,), n, 0.5, key)
        assert _outcome(_sampled, draft, (0,), n, 0.5, key) == sampled, n
        outcomes |= {isinstance(greedy, str), isinstance(sampled, str)}
    assert outcomes == {False, True}


def _stepwise_guess(model, context, n, bias):
    """Up to n choices argmax(row + bias), one `next_logits` row each, stopping after
    EOS, and the bytes of their unbiased rows."""
    out, rows = [], []
    while len(out) < n and out[-1:] != [model.vocab.eos_id]:
        rows.append(model.next_logits(context + tuple(out)))
        out.append(argmax_token(rows[-1] + bias))
    return out, np.array(rows).tobytes()


def _guessed(model, context, n, bias):
    rows, out = model._guess(context, n, bias)
    assert rows.shape == (len(out), model.vocab.size)
    return out, rows.tobytes()


@settings(max_examples=40, deadline=None)
@given(**contract_args, drawn=st.lists(st.sampled_from([0.0, 0.7, -0.3, 40.0]),
                                       min_size=8, max_size=8))
def test_guess_matches_stepwise_biased_argmax(tokens, order, drawn):
    """`_guess` from every prefix, for every budget, at zero bias and at a drawn one,
    equals a stepwise argmax(row + bias) loop over `next_logits`: the same choices and
    the same row bytes.  Equal offsets keep the exact ties of the n-gram's unseen
    tokens, and an offset of 40 ties a scripted row's -40 with its 0."""
    models = _contract_models(tokens, order)
    for bias in (np.zeros(8), np.array(drawn)):
        for model in models:
            for k in range(1, len(tokens) + 1):
                for n in range(len(tokens) + 3):
                    expect = _outcome(_stepwise_guess, model, tokens[:k], n, bias)
                    assert _outcome(_guessed, model, tokens[:k], n, bias) == expect, \
                        (model.name, k, n)


def test_a_refused_row_raises_from_a_guessed_run_where_it_falls():
    """The default `_guess` raises the DataError of a refused row, first or later, as
    the stepwise reference does; an offset of 40 on token 5 ties it with each scripted
    choice (the lower id wins), and one of 41 steers every run into the refusal."""
    v = Vocab(tuple("abcdefg") + ("</s>",), eos_id=7)
    model = _Refusing(v, {(0,): 1, (0, 1): 5, (0, 1, 5): 2, (0, 3): 6}, default_token=0)
    for offset in (0.0, 40.0, 41.0):
        bias = np.zeros(8)
        bias[5] = offset
        for context in ((0,), (0, 1), (0, 3), (0, 1, 5)):
            for n in range(6):
                expect = _outcome(_stepwise_guess, model, context, n, bias)
                assert _outcome(_guessed, model, context, n, bias) == expect, (offset, context, n)
    assert model._guess((0,), 2, np.zeros(8))[1] == [1, 5]
    for context, bias_5 in (((0, 1, 5), 0.0), ((0,), 0.0), ((0,), 41.0)):
        bias = np.zeros(8)
        bias[5] = bias_5
        with pytest.raises(DataError, match="^refused context$"):
            model._guess(context, 5, bias)


def test_forward_rows_ignore_later_tokens():
    model = tiny_model()
    a = model.forward_parallel((0, 1, 2, 1))
    b = model.forward_parallel((0, 1, 2, 2))  # same prefix, different tail
    np.testing.assert_array_equal(a.logits[:3], b.logits[:3])
    np.testing.assert_array_equal(a.hidden[:3], b.hidden[:3])


def test_token_range_checked():
    """Every checked entry of the n-gram and of a noisy draft over it refuses an id
    outside the vocab and an empty context, and a forward a start outside the tokens:
    the per-step methods and hooks behind them check no ids."""
    model = tiny_model()
    draft = PerturbedModel(model, PerturbSpec(noise_scale=0.5, bias_tokens={1: 0.4}, seed=2))
    for m in (model, draft):
        for forward in (m.forward_parallel, m.forward_logits, m.top_choices):
            for bad in ((0, 9), (0, -1), ()):
                with pytest.raises(DataError):
                    forward(bad)
            for start in (-1, 2):
                with pytest.raises(DataError):
                    forward((0, 1), start)
        for temperature, state in ((0.0, None), (0.5, RandomState(1))):
            for bad in ((0, 9), (-1, 0), ()):
                with pytest.raises(DataError):
                    m.sample(bad, 3, temperature, state)


def test_docs_name_the_checked_entries():
    """The checked entries the `LanguageModel` docstring and README's model-contract
    paragraph name are exactly the public methods that refuse an out-of-vocab id; a
    scripted model's steps take any id."""
    model, checked = ScriptedModel(small_vocab(), {}), set()
    for name, fn in vars(LanguageModel).items():
        if name.startswith("_") or not callable(fn):
            continue
        params = list(inspect.signature(fn).parameters.values())[2:]  # after self, tokens
        try:
            getattr(model, name)((0, 9), *[1] * sum(p.default is p.empty for p in params))
        except DataError:
            checked.add(name)
    assert checked == {"sample", "forward_parallel", "forward_logits", "top_choices"}
    (docstring,) = re.findall(r"contexts that ([^.]+) checked\.", LanguageModel.__doc__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (paragraph,) = re.findall(r"a checked entry \(([^)]+)\)", readme)
    for listed in (docstring, paragraph):
        assert set(re.findall(r"`(\w+)`", listed)) == checked
