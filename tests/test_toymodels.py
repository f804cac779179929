"""Toy backends: add-k n-gram, perturbed draft, scripted lookup models."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge import engine
from specjudge.lm import DataError, LanguageModel, Vocab
from specjudge.sampling import RandomState, gumbel_key, positionwise_choices, rollout
from specjudge.toymodels import (EMBED_DIM, NGramModel, PerturbedModel, PerturbSpec,
                                 ScriptedModel, make_draft, train_ngram)


def small_vocab():
    return Vocab(("a", "b", "c", "</s>"), eos_id=3)


def test_ngram_add_k_probabilities_analytic():
    v = small_vocab()
    model = train_ngram(v, [[0, 1], [0, 2], [0, 1]], order=2, smoothing=1.0)
    logits, _ = model.next_logits_hidden((0,))
    # counts after context (a,): b twice, c once; add-1 over |V| = 4
    np.testing.assert_allclose(np.exp(logits), [1 / 7, 3 / 7, 2 / 7, 1 / 7],
                               atol=1e-12)
    logits, _ = model.next_logits_hidden((3,))  # unseen context: uniform
    np.testing.assert_allclose(np.exp(logits), [0.25] * 4, atol=1e-12)


def reference_counts(corpus, order):
    """The per-position `setdefault` count loop, one Counter per position."""
    counts = {}
    for seq in corpus:
        tokens = tuple(seq)
        for i in range(1, len(tokens)):
            key = tokens[:i][-(order - 1):] if order > 1 else ()
            counts.setdefault(key, Counter())[tokens[i]] += 1
    return counts


def interned_items(model):
    """Each context with its interned (token, count) items, in insertion order."""
    return [(tuple(k), list(model.distributions[i])) for k, i in model.counts.items()]


def reference_items(counts):
    return [(k, list(c.items())) for k, c in counts.items()]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=24), min_size=1,
                max_size=8),
       st.sampled_from([1, 3, 16]))
def test_ngram_counts_match_per_position_reference(corpus, order):
    model = train_ngram(small_vocab(), corpus, order=order, smoothing=0.5)
    expect = reference_items(reference_counts(corpus, order))
    # keys in insertion order, each context's items in insertion order
    assert interned_items(model) == expect
    # one entry per distinct item tuple in first-seen order, the unseen () first
    assert model.distributions == list(dict.fromkeys([()] + [tuple(c) for _, c in expect]))


def test_fixture_counts_match_per_position_reference(pipeline):
    """The conftest target's count tables on the full fixture corpus."""
    model = pipeline.target
    assert len(model.counts) == 97023
    assert len(model.distributions) == 525  # 524 seen, plus the unseen row
    assert interned_items(model) == reference_items(reference_counts(pipeline.corpus, 16))


def reference_row(model, counts, context):
    """(logits, hidden) by the add-k formula, rebuilt from the counts at each call."""
    key = context[-(model.order - 1):] if model.order > 1 else ()
    k, size = model.smoothing, model.vocab.size
    probs = np.full(size, k)
    total = k * size
    counter = counts.get(key)
    if counter:
        for tok, c in counter.items():
            probs[tok] += c
        total += sum(counter.values())
    probs = probs / total
    logits = np.log(probs)
    emb = model.embedding[list(key)].sum(axis=0) / len(key) if key else np.zeros(EMBED_DIM)
    return logits, np.concatenate([emb, [float(-(probs * logits).sum()), float(logits.max())]])


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=24), min_size=1,
                max_size=6),
       st.sampled_from([1, 3, 16]), st.data())
def test_ngram_rows_match_add_k_reference_bit_for_bit(corpus, order, data):
    """Seen contexts (short of the window at order 16), unseen ones (token 4
    never occurs in the corpus) and contexts longer than the window."""
    vocab = Vocab(("a", "b", "c", "d", "</s>"), eos_id=4)
    model = train_ngram(vocab, corpus, order=order, smoothing=0.3, seed=2)
    counts = reference_counts(corpus, order)
    seq = tuple(data.draw(st.sampled_from(corpus)))
    prefixes = [seq[:i] for i in range(1, len(seq) + 1)]
    contexts = prefixes + [p + (4,) for p in prefixes] + [(4,) * 16 + p for p in prefixes]
    for context in contexts:
        logits, hidden = reference_row(model, counts, context)
        assert same_bits(model.next_logits(context), logits), context
        got_logits, got_hidden = model.next_logits_hidden(context)
        assert same_bits(got_logits, logits), context
        assert same_bits(got_hidden, hidden), context
    tokens = (4,) * 16 + seq + (4,) + seq
    start = data.draw(st.integers(0, len(tokens) - 1))
    want = np.array([reference_row(model, counts, tokens[:i + 1])[0]
                     for i in range(start, len(tokens))])
    assert same_bits(model.forward_logits(tokens, start), want)
    assert model.top_choices(tokens, start) == [(t,) for t in want.argmax(axis=1).tolist()]


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=16), min_size=1,
                max_size=4),
       st.sampled_from([1, 3, 16]), st.data())
def test_repeated_lines_count_as_often_as_they_occur(lines, order, data):
    """Lines repeated and interleaved by drawn indices, so one line's copies are
    counted once with their multiplicity; a one-shot generator trains the same model."""
    picks = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=12))
    corpus = [lines[i] for i in picks]
    model = train_ngram(small_vocab(), corpus, order=order, smoothing=0.5, seed=1)
    counts = reference_counts(corpus, order)
    expect = reference_items(counts)
    assert interned_items(model) == expect
    assert model.distributions == list(dict.fromkeys([()] + [tuple(c) for _, c in expect]))
    for seq in lines:
        for context in (tuple(seq[:i]) for i in range(1, len(seq) + 1)):
            logits, hidden = reference_row(model, counts, context)
            got_logits, got_hidden = model.next_logits_hidden(context)
            assert same_bits(got_logits, logits) and same_bits(got_hidden, hidden), context
    once = train_ngram(small_vocab(), (line for line in corpus), order=order,
                       smoothing=0.5, seed=1)
    assert interned_items(once) == expect
    assert once.distributions == model.distributions
    assert same_bits(once._logits, model._logits) and same_bits(once._summary, model._summary)


def test_training_peak_stays_near_the_retained_model(pipeline):
    """Training the conftest target holds no dict per context: its tracemalloc peak
    is at most 1.5x what the trained model keeps (2.34x when it built one)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = train_ngram(pipeline.vocab, pipeline.corpus, order=16, smoothing=0.2)
        retained, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(model.counts) == 97023
    assert peak <= 1.5 * retained, (peak, retained)


def test_trained_fixture_model_keeps_at_most_12_mb(pipeline):
    """Packed context keys keep the conftest target small: tracemalloc reads what
    the trained model keeps at about 11.0 MB (19.7 MB with a tuple per context)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = train_ngram(pipeline.vocab, pipeline.corpus, order=16, smoothing=0.2)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(model.counts) == 97023
    assert retained <= 12e6, retained


@pytest.mark.parametrize("size, width", [(4, 1), (256, 1), (257, 2), (318, 2)])
def test_keys_pack_each_id_little_endian_in_the_fewest_bytes_that_fit(size, width):
    vocab = Vocab(tuple(f"w{i}" for i in range(size)), eos_id=size - 1)
    model = train_ngram(vocab, [[0, size - 1, 1]], order=3, smoothing=0.5)
    first, last = (0).to_bytes(width, "little"), (size - 1).to_bytes(width, "little")
    assert list(model.counts) == [first, first + last]


def unpacked(key, width):
    """The ids of a packed key, read back as `width`-byte little-endian numbers."""
    return tuple(int.from_bytes(key[i:i + width], "little") for i in range(0, len(key), width))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(st.sampled_from([0, 1, 255, 256, 317]), min_size=1, max_size=20),
                min_size=1, max_size=5),
       st.sampled_from([1, 3, 16]), st.data())
def test_vocabulary_past_one_byte_per_id_matches_the_reference(corpus, order, data):
    """318 ids, as `build_vocab(300)`, pack two bytes each: the keys read back as the
    reference contexts in order, and every row (seen, unseen as ids 2 and 316 never
    occur, and past the window), pass, greedy run and guessed run with a bias match
    the add-k reference bit for bit; `top_choices` at the drawn start for every k up
    to V+1, and from every start at k = 1, 2, V and V+1, is the head of each row's ids
    sorted by (-logit, id), and membership in it is `engine._in_top_k`."""
    vocab = Vocab(tuple(f"w{i}" for i in range(317)) + ("</s>",), eos_id=317)
    model = train_ngram(vocab, corpus, order=order, smoothing=0.3, seed=2)
    counts = reference_counts(corpus, order)
    expect = reference_items(counts)
    assert [(unpacked(k, 2), list(model.distributions[i]))
            for k, i in model.counts.items()] == expect
    assert model.distributions == list(dict.fromkeys([()] + [tuple(c) for _, c in expect]))
    seq = tuple(data.draw(st.sampled_from(corpus)))
    tokens = (2,) * 16 + seq + (316,) + seq
    for end in range(1, len(tokens) + 1):
        logits, hidden = reference_row(model, counts, tokens[:end])
        got_logits, got_hidden = model.next_logits_hidden(tokens[:end])
        assert same_bits(model.next_logits(tokens[:end]), logits), tokens[:end]
        assert same_bits(got_logits, logits) and same_bits(got_hidden, hidden), tokens[:end]
    start = data.draw(st.integers(0, len(tokens) - 1))
    want = np.array([reference_row(model, counts, tokens[:i + 1])[0]
                     for i in range(start, len(tokens))])
    assert same_bits(model.forward_logits(tokens, start), want)
    order = [sorted(range(318), key=lambda i: (-row[i], i)) for row in want]
    for k in range(1, 320):
        assert model.top_choices(tokens, start, k) == [tuple(o[:k]) for o in order], k
    order = [sorted(range(318), key=lambda i: (-row[i], i))
             for row in model.forward_logits(tokens, 0)]
    for first in range(len(tokens)):
        for k in (1, 2, 318, 319):
            assert model.top_choices(tokens, first, k) \
                == [tuple(o[:k]) for o in order[first:]], (first, k)
    drawn = (0, 1, 2, 255, 256, 316, 317)  # every id the corpus draws, and two unseen
    for k in (1, 2, 5, 319):
        for row, ids in zip(want, model.top_choices(tokens, start, k)):
            assert [t in ids for t in drawn] == [engine._in_top_k(row, t, k) for t in drawn], k
    context, greedy = tokens[:start + 1], []
    while len(greedy) < 8 and greedy[-1:] != [317]:
        greedy.append(int(reference_row(model, counts, context + tuple(greedy))[0].argmax()))
    assert model.sample(context, 8) == (greedy, None)
    bias = np.zeros(318)
    bias[[2, 256, 316]] = data.draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]),
                                             min_size=3, max_size=3))
    guess, rows = [], []
    while len(guess) < 8 and guess[-1:] != [317]:
        rows.append(reference_row(model, counts, context + tuple(guess))[0])
        guess.append(int((rows[-1] + bias).argmax()))
    got_rows, got = model._guess(context, 8, bias)
    assert got == guess and same_bits(got_rows, np.array(rows))


def test_new_counts_drop_the_guessed_argmax_tables():
    """A bias's argmax table and a k's top-K table are derived from the rows, so new
    counts drop them: after `_set_counts` the cached bias, read-only as a draft's is,
    guesses along the new rows, and each cached k ranks them, as the defaults do.  The
    k=1 table is `_top`'s."""
    model = train_ngram(small_vocab(), [[0, 1, 1, 3], [0, 1, 2, 3]], order=2, smoothing=0.5)
    bias = np.array([0.0, 0.0, 0.2, 0.0])
    bias.flags.writeable = False
    assert model._guess((0,), 4, bias)[1] == [1, 2, 3]
    tokens = (0, 1, 2, 1)
    assert model.top_choices(tokens, 0, 2) == [(1, 0), (1, 2), (3, 0), (1, 2)]
    for k in range(1, 6):
        model.top_choices(tokens, 0, k)
    model._set_counts({b"\0": 1, b"\2": 2, b"\1": 3}, [(), (2, 4), (1, 4), (3, 4)])
    rows, got = model._guess((0,), 4, bias)
    want_rows, want = LanguageModel._guess(model, (0,), 4, bias)
    assert got == want == [2, 1, 3] and same_bits(rows, want_rows)
    assert model.top_choices(tokens, 0, 2) == [(2, 0), (3, 0), (1, 0), (3, 0)]
    for k in range(1, 6):
        assert model.top_choices(tokens, 0, k) \
            == LanguageModel._top_choices(model, tokens, 0, k), k
    assert model._ranks[1] == [(t,) for t in model._top]


def test_a_bias_mutated_in_place_is_guessed_by_its_new_values():
    """`_guess` keeps the table of the last read-only bias it saw, a draft's bias is
    read-only, and a writeable bias, or a read-only view of one, mutated in place
    between two calls gets the table of its new values."""
    model = train_ngram(small_vocab(), [[0, 1, 1, 3], [0, 1, 2, 3]], order=2, smoothing=0.5)
    draft = PerturbedModel(model, PerturbSpec(bias_tokens={2: 0.2}))
    assert not draft._bias.flags.writeable
    with pytest.raises(ValueError):
        draft._bias[2] = 0.0
    draft.sample((0,), 4)
    assert model._last[0] is draft._bias
    bias = np.zeros(4)
    view = bias.view()
    view.flags.writeable = False
    for b in (bias, view):
        seen = []
        for offset in (0.0, 0.2, -5.0, 0.0):
            bias[2] = offset
            rows, got = model._guess((0,), 4, b)
            want_rows, want = LanguageModel._guess(model, (0,), 4, b)
            assert got == want and same_bits(rows, want_rows), offset
            seen.append(got)
        assert seen == [[1, 1, 1, 1], [1, 2, 3], [1, 1, 1, 1], [1, 1, 1, 1]]


@pytest.mark.parametrize("bad", [-1, 117, 256])
@pytest.mark.parametrize("call", [
    lambda model, tokens: model.sample(tokens, 4),
    lambda model, tokens: model.sample(tokens, 4, 0.7, RandomState(1)),
    lambda model, tokens: model.forward_logits(tokens),
    lambda model, tokens: model.forward_parallel(tokens),
    lambda model, tokens: model.top_choices(tokens),
], ids=["sample-greedy", "sample-sampled", "forward_logits", "forward_parallel",
        "top_choices"])
@pytest.mark.parametrize("side", ["target", "draft"])
def test_ids_outside_the_fixture_vocab_stay_data_errors(pipeline, side, call, bad):
    """Ids that one byte cannot hold (-1, 256) or the vocab does not (117) are refused
    before any key is packed."""
    assert pipeline.vocab.size == 117
    tokens = (pipeline.vocab.token_to_id["Start"], bad, 3)
    with pytest.raises(DataError, match=rf"^token id {bad} out of range for vocab size 117$"):
        call(getattr(pipeline, side), tokens)


def test_ngram_rows_are_read_only_and_forward_logits_is_fresh():
    model = train_ngram(small_vocab(), [[0, 1, 2, 3]], order=2, smoothing=0.5)
    before, hidden_before = (a.copy() for a in model.next_logits_hidden((0,)))
    for row in (model.next_logits((0,)), model.next_logits_hidden((0,))[0],
                model.next_logits((3,))):
        with pytest.raises(ValueError):
            row[1] = 0.0
    rows = model.forward_logits((2, 0, 1), 0)
    rows[:] = 0.0
    _, hidden = model.next_logits_hidden((0,))
    hidden[:] = 0.0
    assert same_bits(model.next_logits((0,)), before)
    assert same_bits(model.next_logits_hidden((0,))[1], hidden_before)


def test_ngram_context_window_is_order_minus_one():
    v = small_vocab()
    model = train_ngram(v, [[0, 1, 2], [2, 1, 0]], order=2, smoothing=0.5)
    a, _ = model.next_logits_hidden((0, 2, 1))
    b, _ = model.next_logits_hidden((2, 0, 1))  # same last token, same key
    np.testing.assert_array_equal(a, b)


def test_ngram_hidden_layout_and_determinism():
    v = small_vocab()
    model = train_ngram(v, [[0, 1, 2]], order=3, smoothing=0.5, seed=4)
    _, hidden = model.next_logits_hidden((0, 1))
    assert model.hidden_dim == EMBED_DIM + 2
    assert hidden.shape == (EMBED_DIM + 2,)
    assert np.all(np.isfinite(hidden))
    _, again = model.next_logits_hidden((0, 1))
    np.testing.assert_array_equal(hidden, again)
    other = train_ngram(v, [[0, 1, 2]], order=3, smoothing=0.5, seed=5)
    _, different = other.next_logits_hidden((0, 1))
    assert np.any(hidden != different)  # embedding table depends on the seed


def test_ngram_validations():
    v = small_vocab()
    with pytest.raises(DataError):
        train_ngram(v, [], order=2, smoothing=0.5)
    with pytest.raises(DataError):
        NGramModel(v, order=0, smoothing=0.5)
    with pytest.raises(DataError):
        NGramModel(v, order=2, smoothing=0.0)


@pytest.mark.parametrize("build, message", [
    (lambda v: NGramModel(v, order=2, smoothing=float("nan")), "smoothing must be finite"),
    (lambda v: NGramModel(v, order=2, smoothing=float("inf")), "smoothing must be finite"),
    (lambda v: NGramModel(v, order=2, smoothing=0.5, seed=-1), "seed must be >= 0"),
    (lambda v: PerturbSpec(noise_scale=float("nan")), "noise_scale must be finite"),
    (lambda v: PerturbSpec(noise_scale=float("inf")), "noise_scale must be finite"),
    (lambda v: PerturbSpec(noise_scale=-float("inf")), "noise_scale must be finite"),
    (lambda v: PerturbSpec(bias_tokens={2: float("nan")}), "bias offsets must be finite"),
    (lambda v: PerturbSpec(bias_tokens={2: -float("inf")}), "bias offsets must be finite"),
    (lambda v: PerturbSpec(seed=-1), r"seed must be in 0\.\.2\*\*64-1"),
    (lambda v: PerturbSpec(seed=2**64), r"seed must be in 0\.\.2\*\*64-1"),
    (lambda v: make_draft(ScriptedModel(v, {}), PerturbSpec(bias_tokens={-1: 1.0})),
     "bias token id -1 outside 0..3"),
    (lambda v: make_draft(ScriptedModel(v, {}), PerturbSpec(bias_tokens={7: 1.0})),
     "bias token id 7 outside 0..3"),
], ids=["smoothing-nan", "smoothing-inf", "seed-negative", "sigma-nan", "sigma-inf",
        "sigma-neg-inf", "bias-nan", "bias-neg-inf", "perturb-seed-negative",
        "perturb-seed-past-64-bits", "bias-id-negative", "bias-id-past-vocab"])
def test_non_finite_or_out_of_range_parameters_are_data_errors(build, message):
    with pytest.raises(DataError, match=message):
        build(small_vocab())


def test_perturbed_model_identity_at_zero_noise():
    v = small_vocab()
    base = train_ngram(v, [[0, 1, 2, 3]], order=2, smoothing=0.5)
    draft = make_draft(base, PerturbSpec())
    for ctx in [(0,), (0, 1), (2, 1, 0)]:
        bl, _ = base.next_logits_hidden(ctx)
        dl, _ = draft.next_logits_hidden(ctx)
        np.testing.assert_array_equal(bl, dl)


def test_perturbed_model_bias_shifts_one_logit():
    v = small_vocab()
    base = train_ngram(v, [[0, 1, 2, 3]], order=2, smoothing=0.5)
    draft = make_draft(base, PerturbSpec(bias_tokens={2: 1.4}))
    bl, _ = base.next_logits_hidden((0, 1))
    dl, _ = draft.next_logits_hidden((0, 1))
    delta = dl - bl
    np.testing.assert_allclose(delta[2], 1.4, atol=1e-12)
    np.testing.assert_allclose(np.delete(delta, 2), 0.0, atol=1e-12)


def test_perturbed_model_noise_is_context_keyed():
    v = small_vocab()
    base = train_ngram(v, [[0, 1, 2, 3]], order=2, smoothing=0.5)
    draft = make_draft(base, PerturbSpec(noise_scale=0.8, seed=9))
    assert draft.hidden_dim == base.hidden_dim + 1
    bl, _ = base.next_logits_hidden((0, 1))
    d1, _ = draft.next_logits_hidden((0, 1))
    d2, _ = draft.next_logits_hidden((0, 1))
    np.testing.assert_array_equal(d1, d2)  # same context, same noise
    d3, _ = draft.next_logits_hidden((0, 2))
    assert np.any(d3 - base.next_logits_hidden((0, 2))[0] != d1 - bl)
    other = make_draft(base, PerturbSpec(noise_scale=0.8, seed=10))
    d4, _ = other.next_logits_hidden((0, 1))
    assert np.any(d4 != d1)


@settings(deadline=None, max_examples=80)
@given(sigma=st.sampled_from([0.0, 0.3, 3.0, 100.0]), temperature=st.sampled_from([0.0, 0.5]),
       n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       lines=st.lists(st.integers(0, 199), min_size=2, max_size=2, unique=True),
       cut=st.floats(0, 1), via=st.sampled_from(["sample", "forward_logits"]))
def test_window_rows_equal_rows_of_a_draft_that_never_sampled(pipeline, sigma, temperature,
                                                               n, seed, lines, cut, via):
    """A draft serves the perturbation rows its last window drew, bit for bit the
    rows a fresh draft draws, and draws any other row afresh: at each prefix of that
    window, off it, after its caller mutated its list, and once a second window
    replaced it.  A window is a `sample` call, with no row after its last choice, or
    a `forward_logits` pass over the rest of a corpus line, with a row at the whole
    line too; the pass leaves the last window in place only when σ is 0."""
    vocab, target = pipeline.vocab, pipeline.target
    spec = PerturbSpec(noise_scale=sigma, bias_tokens={vocab.token_to_id["Then"]: 1.4},
                       seed=seed)
    draft, fresh = make_draft(target, spec), make_draft(target, spec)
    full = [tuple(pipeline.corpus[i]) for i in lines]
    contexts = [line[:1 + int(cut * (len(line) - 1))] for line in full]

    def window(i):
        context = contexts[i]
        if via == "sample":
            key = gumbel_key(RandomState(seed), context) if temperature else None
            return draft._sample(context, n, temperature, key)[0]
        last = draft._window
        draft.forward_logits(full[i], start=len(context) - 1)
        assert (draft._window is last) == (sigma == 0)
        return list(full[i][len(context):])

    def prefixes(context, out):
        return [context + tuple(out[:i]) for i in range(len(out) + 1)]

    def same_as_fresh(context):
        return all(same_bits(got, want) for got, want in
                   zip(draft.next_logits_hidden(context), fresh.next_logits_hidden(context)))

    out = window(0)
    first = prefixes(contexts[0], out)
    off = [p[:-1] + ((p[-1] + 1) % vocab.size,) for p in first[1:]] + [contexts[0][:-1]]
    if out:
        out[0] = (out[0] + 1) % vocab.size  # the caller's list is its own
        out.append(out[0])
    for context in [*first, *off, *prefixes(contexts[0], out)]:
        if context:
            assert same_as_fresh(context)
    second = window(1)
    for context in [*prefixes(contexts[1], second), *first]:
        assert same_as_fresh(context)


def test_perturbed_summary_feature_reports_winning_delta():
    v = small_vocab()
    base = train_ngram(v, [[0, 1, 2, 3]], order=2, smoothing=0.5)
    strong = make_draft(base, PerturbSpec(bias_tokens={2: 50.0}))
    _, hidden = strong.next_logits_hidden((0,))
    assert hidden[-1] == 50.0  # biased token wins, summary is its delta
    weak = make_draft(base, PerturbSpec(bias_tokens={2: 1e-6}))
    bl, _ = base.next_logits_hidden((0,))
    if int(np.argmax(bl)) != 2:
        _, hidden = weak.next_logits_hidden((0,))
        assert hidden[-1] == 0.0  # argmax unchanged, no delta there


def test_filler_bias_flips_connective_choices(pipeline):
    # the engineered draft must disagree with its target somewhere, and at
    # least one disagreement must be the biased filler word
    vocab = pipeline.vocab
    then_id = vocab.token_to_id["Then"]
    flipped = []
    for line in pipeline.corpus[:200]:
        choices = positionwise_choices(pipeline.draft, tuple(line))
        targets = positionwise_choices(pipeline.target, tuple(line))
        flipped += [d for d, t in zip(choices[1:], targets[1:]) if d != t]
    assert flipped
    assert then_id in flipped


def test_scripted_model_follows_script_with_default_fallback():
    v = small_vocab()
    model = ScriptedModel(v, {(0,): 1, (0, 1): 2}, default_token=0)
    assert rollout(model, (0,), 3) == [1, 2, 0]
    logits, hidden = model.next_logits_hidden((0,))
    assert int(np.argmax(logits)) == 1
    assert logits[1] - np.partition(logits, -2)[-2] == 40.0
    assert hidden.shape == (3,)
    eos_default = ScriptedModel(v, {})
    assert rollout(eos_default, (1,), 5) == [3]
