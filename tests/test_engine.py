"""Speculative decoding engine: policies, cycle accounting, stop conditions."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge import engine, mining, sampling, toymodels
from specjudge.engine import (CycleStats, DecodeResult, EngineConfig,
                              JudgePolicy, LosslessPolicy, TopKPolicy,
                              accepted_per_cycle, draft_window, spec_decode,
                              verify_window)
from specjudge.judge import MODEL_SOURCES, FeatureConfig, JudgeModel, build_examples
from specjudge.lm import DataError, LanguageModel, Vocab
from specjudge.sampling import (RandomState, gumbel_key, gumbel_noise, rollout,
                                seeded_choice)
from specjudge.tasks import gen_arithmetic_task
from specjudge.toymodels import PerturbedModel, PerturbSpec, ScriptedModel


@pytest.fixture()
def chain_vocab():
    return Vocab(("a", "b", "c", "</s>"), eos_id=3)


@pytest.fixture()
def chain_model(chain_vocab):
    # deterministic continuation a -> b c b c </s>
    script = {(0,): 1, (0, 1): 2, (0, 1, 2): 1, (0, 1, 2, 1): 2,
              (0, 1, 2, 1, 2): 3}
    return ScriptedModel(chain_vocab, script)


def constant_judge(dim):
    # zero weights score exactly 0.5 everywhere
    return JudgeModel(weights=np.zeros(dim), bias=0.0,
                      feature_config=FeatureConfig(), C=1.0)


def test_identical_models_accept_whole_window(chain_model):
    config = EngineConfig(window=8, max_tokens=16)
    result = spec_decode((0,), chain_model, chain_model, LosslessPolicy(), config)
    assert result.response == (1, 2, 1, 2, 3)
    assert len(result.cycles) == 1
    stats = result.cycles[0]
    assert stats.drafted == stats.accepted_draft == 5
    assert not stats.correction_emitted
    assert not stats.bonus_emitted  # window already ended at EOS
    assert accepted_per_cycle(result.cycles) == 5.0


def test_window_one_gets_a_bonus_every_full_cycle(chain_model):
    config = EngineConfig(window=1, max_tokens=16)
    result = spec_decode((0,), chain_model, chain_model, LosslessPolicy(), config)
    assert result.response == (1, 2, 1, 2, 3)
    assert len(result.cycles) == 3  # 2 + 2 + 1 tokens
    assert [c.bonus_emitted for c in result.cycles] == [True, True, False]
    assert accepted_per_cycle(result.cycles) == pytest.approx(5 / 3)


def test_accepted_per_cycle_hand_cases():
    full = CycleStats(drafted=64, accepted_draft=64, judge_overrides=0,
                      correction_emitted=False, bonus_emitted=True)
    assert accepted_per_cycle([full]) == 65.0
    rejected = CycleStats(drafted=8, accepted_draft=0, judge_overrides=0,
                          correction_emitted=True, bonus_emitted=False)
    assert accepted_per_cycle([rejected]) == 1.0
    partial = CycleStats(drafted=8, accepted_draft=3, judge_overrides=0,
                         correction_emitted=True, bonus_emitted=False)
    assert accepted_per_cycle([full, partial]) == pytest.approx((65 + 4) / 2)
    with pytest.raises(DataError):
        accepted_per_cycle([])


def test_every_cycle_emits_at_least_one_token(pipeline, eval_tasks):
    for task in eval_tasks[:5]:
        config = EngineConfig(window=8, max_tokens=min(64, task.max_response_len))
        result = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                             LosslessPolicy(), config)
        emitted = [c.accepted_draft + int(c.correction_emitted)
                   + int(c.bonus_emitted) for c in result.cycles]
        assert all(n >= 1 for n in emitted)
        assert sum(emitted) == len(result.response) <= config.max_tokens
        assert result.response[-1] == pipeline.vocab.eos_id \
            or len(result.response) == config.max_tokens


def test_window_final_mismatch_topk_keeps_judge_hands_back(chain_vocab):
    target = ScriptedModel(chain_vocab, {(0,): 1, (0, 2): 1},
                           name="target")
    draft = ScriptedModel(chain_vocab, {(0,): 2}, name="draft")
    config = EngineConfig(window=1, max_tokens=8)

    lossless = spec_decode((0,), draft, target, LosslessPolicy(), config)
    assert lossless.response == (1, 3)
    assert lossless.cycles[0].correction_emitted

    topk = spec_decode((0,), draft, target, TopKPolicy(k=4), config)
    assert topk.response == (2, 1, 3)
    assert topk.cycles[0].judge_overrides == 1
    assert topk.cycles[0].accepted_draft == 1

    # a permissive judge still cannot keep the final drafted position
    judge = JudgePolicy(constant_judge(6), threshold=0.9)
    judged = spec_decode((0,), draft, target, judge, config)
    assert judged.response == lossless.response
    assert all(c.judge_overrides == 0 for c in judged.cycles)


def test_topk_one_matches_lossless(pipeline, eval_tasks):
    for task in eval_tasks[:6]:
        config = EngineConfig(window=8, max_tokens=min(64, task.max_response_len))
        a = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                        LosslessPolicy(), config)
        b = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                        TopKPolicy(k=1), config)
        assert a.response == b.response
        assert [vars(c) for c in a.cycles] == [vars(c) for c in b.cycles]


def test_tiny_threshold_judge_matches_lossless(pipeline, judged, eval_tasks):
    policy = JudgePolicy(judged.judge, threshold=1e-9)
    for task in eval_tasks[:6]:
        config = EngineConfig(window=8, max_tokens=min(64, task.max_response_len))
        a = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                        LosslessPolicy(), config)
        b = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                        policy, config)
        assert a.response == b.response


def test_constant_judge_threshold_sides(pipeline, eval_tasks):
    judge = constant_judge(37)
    overrides = 0
    for task in eval_tasks[:10]:
        config = EngineConfig(window=8, max_tokens=min(64, task.max_response_len))
        lossless = spec_decode(task.prompt.tokens, pipeline.draft,
                               pipeline.target, LosslessPolicy(), config)
        strict = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                             JudgePolicy(judge, threshold=0.1), config)
        assert strict.response == lossless.response
        assert all(c.judge_overrides == 0 for c in strict.cycles)
        loose = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                            JudgePolicy(judge, threshold=0.9), config)
        overrides += sum(c.judge_overrides for c in loose.cycles)
    assert overrides >= 1  # 0.5 < 0.9 keeps every non-final mismatch


def test_engine_config_validation():
    with pytest.raises(DataError):
        EngineConfig(window=0)
    with pytest.raises(DataError):
        EngineConfig(max_tokens=0)
    with pytest.raises(DataError):
        EngineConfig(temperature=-0.1)
    with pytest.raises(DataError):
        EngineConfig(temperature=0.5)  # sampling needs a RandomState
    EngineConfig(temperature=0.5, state=RandomState(0))


def test_bad_judge_threshold_fails_before_decoding():
    # The policy refuses a bad threshold when it is built, as TopKPolicy a bad k.
    for tau in (1.5, 0.0, 1.0, -0.2, float("nan")):
        with pytest.raises(DataError, match="strictly inside"):
            JudgePolicy(constant_judge(6), threshold=tau)


def test_structural_validation(chain_vocab, chain_model):
    other = ScriptedModel(Vocab(("x", "</s>"), eos_id=1), {})
    with pytest.raises(DataError):
        spec_decode((0,), chain_model, other, LosslessPolicy(), EngineConfig())
    with pytest.raises(DataError):
        spec_decode((), chain_model, chain_model, LosslessPolicy(), EngineConfig())
    with pytest.raises(DataError):
        draft_window(chain_model, (0,), 0, EngineConfig())
    window = draft_window(chain_model, (0,), 2, EngineConfig())
    with pytest.raises(DataError):
        verify_window(chain_model, chain_model, (), window, LosslessPolicy(),
                      EngineConfig(), 8)


def test_draft_window_stops_after_eos(chain_model, monkeypatch):
    seen = []
    step = chain_model.next_logits
    monkeypatch.setattr(chain_model, "next_logits",
                        lambda ctx: seen.append(tuple(ctx)) or step(ctx))
    window = draft_window(chain_model, (0,), 8, EngineConfig())
    assert window.tokens == [1, 2, 1, 2, 3]
    # One draft call per drafted token, none after the last one.
    assert seen == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 1), (0, 1, 2, 1, 2)]
    assert len(seen) == len(window.tokens) == 5

    # A perturbed draft hashes its context once per window and computes
    # exactly one noise row per drafted token, whether EOS or the width
    # ends the window, since its noise-free guesses never miss here.  A
    # greedy window draws all its rows in one call.  A sampled window draws
    # its perturbation and Gumbel rows in runs of 4 at first, then twice
    # what the last run kept, so 5 tokens take runs of 4 and 1.
    draft = PerturbedModel(chain_model, PerturbSpec(noise_scale=0.3, seed=1))
    counts = _counting_noise(monkeypatch, draft)
    sampled = EngineConfig(temperature=0.5, state=RandomState(3))
    for config, width in product((EngineConfig(), sampled), (8, 3)):
        seen.clear()
        for drawn in counts.values():
            drawn.clear()
        window = draft_window(draft, (0,), width, config)
        assert window.tokens == [1, 2, 1, 2, 3][:width]
        assert seen == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 1), (0, 1, 2, 1, 2)][:width]
        n = len(window.tokens)
        if config.temperature:
            runs = {5: [4, 1], 3: [3]}[n]
            assert counts["perturb"] == counts["gumbel"] == runs
            assert window.noise.shape == (n, chain_model.vocab.size)
        else:
            assert counts["perturb"] == [n] and counts["gumbel"] == []
            assert window.noise is None
        assert len(counts["perturb_hash"]) == 1
        assert len(counts["gumbel_hash"]) == int(config.temperature > 0)


def _counting_noise(monkeypatch, draft):
    """Lists that record the rows of each call to the draft's perturbation and
    Gumbel kernels, and one entry per context hash of each key stream."""
    counts = {"perturb_hash": [], "gumbel_hash": [], "perturb": [], "gumbel": []}

    def counting(fn, drawn):  # for a kernel, the rows of its keys argument
        return lambda *args: drawn.append(np.size(args[0])) or fn(*args)

    monkeypatch.setattr(toymodels, "_prefix_hash",
                        counting(toymodels._prefix_hash, counts["perturb_hash"]))
    monkeypatch.setattr(sampling, "_prefix_hash",
                        counting(sampling._prefix_hash, counts["gumbel_hash"]))
    monkeypatch.setattr(draft, "_noise", counting(draft._noise, counts["perturb"]))
    monkeypatch.setattr(sampling, "gumbel_noise",
                        counting(sampling.gumbel_noise, counts["gumbel"]))
    return counts


def test_sampled_runs_double_while_guesses_hold(chain_vocab, monkeypatch):
    """A sampled run guesses 4 rows at first, then up to twice as many rows as
    the last run kept; here every guess holds, so the runs double until the
    window's end."""
    draft = PerturbedModel(ScriptedModel(chain_vocab, {}, default_token=0),
                           PerturbSpec(noise_scale=0.3, seed=1))
    counts = _counting_noise(monkeypatch, draft)
    window = draft_window(draft, (0,), 64, EngineConfig(temperature=0.5, state=RandomState(3)))
    assert window.tokens == [0] * 64
    assert counts["perturb"] == counts["gumbel"] == [4, 8, 16, 32, 4]


def _missing_draft(chain_vocab):
    """A draft whose σ=100 noise swamps the base logits, so its noise-free guesses
    miss about two times in three; EOS is biased away, so windows run full."""
    base = ScriptedModel(chain_vocab, {}, default_token=0)
    return PerturbedModel(base, PerturbSpec(noise_scale=100.0, bias_tokens={3: -1e4}, seed=2))


def test_greedy_draft_traffic_stays_linear_when_guesses_miss(chain_vocab, monkeypatch):
    """A greedy window of n tokens from a draft whose guesses mostly miss still
    equals the stepwise choices, hashes its context once and draws at most 2n
    noise rows, in at most n calls."""
    draft = _missing_draft(chain_vocab)
    expect = {n: LanguageModel.sample(draft, (0,), n)[0] for n in (1, 8, 64)}
    counts = _counting_noise(monkeypatch, draft)
    for n, tokens in expect.items():
        for drawn in counts.values():
            drawn.clear()
        assert rollout(draft, (0,), n) == tokens and len(tokens) == n
        rows = counts["perturb"]
        assert len(counts["perturb_hash"]) == 1 and sum(rows) <= 2 * n and len(rows) <= n
        assert counts["gumbel_hash"] == counts["gumbel"] == []
    assert len(rows) > 8  # the 64-token window missed many times


def test_sampled_draft_traffic_stays_linear_when_guesses_miss(chain_vocab, monkeypatch):
    """The same draft sampled: a window of n tokens equals the stepwise choices and
    Gumbel rows, hashes its context once per key stream, and draws at most 2n rows
    of each noise kernel, in at most n calls."""
    draft, config = _missing_draft(chain_vocab), EngineConfig(temperature=0.5,
                                                              state=RandomState(5))
    key = gumbel_key(config.state, (0,))
    expect = {n: LanguageModel.sample(draft, (0,), n, 0.5, key) for n in (1, 8, 64)}
    counts = _counting_noise(monkeypatch, draft)
    for n, (tokens, noise) in expect.items():
        for drawn in counts.values():
            drawn.clear()
        window = draft_window(draft, (0,), n, config)
        assert window.tokens == tokens and len(tokens) == n
        assert window.noise.shape == noise.shape and window.noise.tobytes() == noise.tobytes()
        assert len(counts["perturb_hash"]) == len(counts["gumbel_hash"]) == 1
        assert counts["perturb"] == counts["gumbel"]
        assert sum(counts["gumbel"]) <= 2 * n and len(counts["gumbel"]) <= n
    assert len(counts["gumbel"]) > 8  # the 64-token window missed many times


def test_max_tokens_suppresses_the_bonus(chain_model, monkeypatch):
    def no_bonus(*args):
        raise AssertionError("a bonus row was drawn with no room to emit it")

    monkeypatch.setattr(engine, "seeded_choice", no_bonus)
    config = EngineConfig(window=8, max_tokens=2)
    result = spec_decode((0,), chain_model, chain_model, LosslessPolicy(), config)
    assert result.response == (1, 2)
    assert len(result.cycles) == 1
    assert result.cycles[0].bonus_emitted is False


def test_sampled_decode_follows_the_seeded_target_path(pipeline):
    task = gen_arithmetic_task(9000, 2, pipeline.vocab)
    budget = min(64, task.max_response_len)
    for temperature, state_seed in ((0.0, None), (0.8, 11)):
        state = RandomState(state_seed) if state_seed is not None else None
        config = EngineConfig(window=8, max_tokens=budget,
                              temperature=temperature, state=state)
        result = spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target,
                             LosslessPolicy(), config)
        reference = rollout(pipeline.target, task.prompt.tokens, budget,
                            temperature,
                            RandomState(state_seed) if state_seed is not None
                            else None)
        assert list(result.response) == reference


def test_decode_result_response_view(chain_model):
    result = spec_decode((0,), chain_model, chain_model, LosslessPolicy(),
                         EngineConfig(window=4, max_tokens=8))
    assert isinstance(result, DecodeResult)
    assert result.sequence.tokens == (0,) + result.response
    assert result.sequence.prompt == (0,)


@pytest.mark.parametrize("config", [
    EngineConfig(window=8, max_tokens=64),
    EngineConfig(window=8, max_tokens=64, temperature=0.2, state=RandomState(0)),
], ids=["draft_token-greedy", "draft_token-sampled"])  # features sit at the draft token
@pytest.mark.parametrize("model_source", MODEL_SOURCES)
def test_decode_time_features_equal_training_features(
        pipeline, judged, eval_tasks, monkeypatch, config, model_source):
    """The judge sees at decode time the features it was trained on.

    Every feature vector handed to predict_importance must equal the one
    build_examples makes from mining's record for the same prefix, draft
    token and target token.
    """
    draft, target = pipeline.draft, pipeline.target
    cfg = FeatureConfig(model_source=model_source)
    split = draft.hidden_dim
    weights = {"draft": judged.judge.weights[:split],
               "target": judged.judge.weights[split:],
               "both": judged.judge.weights}[model_source]
    judge = JudgeModel(weights=weights, bias=judged.judge.bias, feature_config=cfg,
                       C=judged.judge.C, threshold=judged.judge.threshold)

    calls = []  # (context, window, feature vectors judged in that verify call)
    verify, predict = engine.verify_window, engine.predict_importance

    def spy_verify(draft_model, target_model, context, window, policy, cfg_, budget):
        calls.append((tuple(context), window, []))
        return verify(draft_model, target_model, context, window, policy, cfg_, budget)

    def spy_predict(judge_model, features):
        calls[-1][2].append(np.array(features))
        return predict(judge_model, features)

    monkeypatch.setattr(engine, "verify_window", spy_verify)
    monkeypatch.setattr(engine, "predict_importance", spy_predict)
    for task in eval_tasks[:20]:
        spec_decode(task.prompt.tokens, draft, target, JudgePolicy(judge),
                    replace(config, max_tokens=min(64, task.max_response_len)))

    judged_positions = 0
    for context, window, features in calls:
        # The judge is asked at each mismatch before the last drafted
        # position, left to right, until it upholds one.
        mismatches = []
        for j, drafted in enumerate(window.tokens[:-1]):
            prefix = context + tuple(window.tokens[:j])
            logits, _ = target.next_logits_hidden(prefix)
            choice = seeded_choice(logits, prefix, config.state, config.temperature)
            if choice != drafted:
                mismatches.append((j, choice))
        assert len(features) <= len(mismatches)
        for got, (j, choice) in zip(features, mismatches):
            tokens = context + tuple(window.tokens[:j]) + (choice,)
            record = mining._record("parity", tokens, len(context) + j,
                                    window.tokens[j], False, draft, target)
            (row,) = build_examples([record], cfg).X
            np.testing.assert_array_equal(got, row)
        judged_positions += len(features)
    assert judged_positions >= 20


@pytest.mark.parametrize("config", [
    EngineConfig(window=8, max_tokens=64),
    EngineConfig(window=64, max_tokens=64, temperature=0.2, state=RandomState(3)),
], ids=["greedy", "sampled"])
def test_only_the_judge_computes_draft_hidden_rows(pipeline, judged, eval_tasks,
                                                   monkeypatch, config):
    """Drafting and verification read logits; the judge alone asks for rows.

    Lossless and top-K decodes make no `next_logits_hidden` call and no
    `forward_parallel` on either model; the judge makes one 1-row forward
    of each model per position it scores, and each such row is one
    hidden-state step (the draft's step runs its base, the target's).
    """
    draft, target = pipeline.draft, pipeline.target
    assert draft.base is target
    calls = {"draft_hidden": 0, "target_hidden": 0, "draft_forward": 0,
             "target_forward": 0, "judged": 0}
    rows = []

    def count(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name.endswith("_forward"):
                rows.append(len(out.logits))
            return out
        return spy

    for side, model in (("draft", draft), ("target", target)):
        monkeypatch.setattr(model, "next_logits_hidden",
                            count(f"{side}_hidden", model.next_logits_hidden))
        monkeypatch.setattr(model, "forward_parallel",
                            count(f"{side}_forward", model.forward_parallel))
    monkeypatch.setattr(engine, "predict_importance",
                        count("judged", engine.predict_importance))
    tasks = eval_tasks[:10]
    for policy in (LosslessPolicy(), TopKPolicy(2)):
        for task in tasks:
            spec_decode(task.prompt.tokens, draft, target, policy, config)
    assert set(calls.values()) == {0}
    for task in tasks:
        spec_decode(task.prompt.tokens, draft, target, JudgePolicy(judged.judge),
                    config)
    n = calls["judged"]
    assert n > 0 and set(rows) == {1}
    assert calls == {"draft_hidden": n, "target_hidden": 2 * n, "draft_forward": n,
                     "target_forward": n, "judged": n}


PROPERTY_VOCAB = Vocab(("a", "b", "</s>"), eos_id=2)
SCRIPT_DEPTH = 8


def random_scripted_pair(seed: int, agree: float):
    """A scripted target and a draft that copies it at a rate of `agree`.

    Scripts cover every eos-free context of up to SCRIPT_DEPTH tokens after
    the prompt (0,); deeper contexts fall back to a random default token.
    """
    rng = np.random.default_rng(seed)
    target_script, draft_script = {}, {}
    frontier = [(0,)]
    for _ in range(SCRIPT_DEPTH):
        for ctx in frontier:
            t = int(rng.choice(3, p=[0.45, 0.45, 0.1]))
            target_script[ctx] = t
            draft_script[ctx] = t if rng.random() < agree else int(rng.integers(3))
        frontier = [ctx + (a,) for ctx in frontier for a in (0, 1)]
    target = ScriptedModel(PROPERTY_VOCAB, target_script,
                           default_token=int(rng.integers(3)), name="target")
    draft = ScriptedModel(PROPERTY_VOCAB, draft_script,
                          default_token=int(rng.integers(3)), name="draft")
    return draft, target


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), agree=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       window=st.integers(1, 16), max_tokens=st.integers(1, 24),
       temperature=st.sampled_from([0.0, 1.0]))
def test_engine_invariants_on_random_scripted_pairs(seed, agree, window, max_tokens,
                                                    temperature):
    draft, target = random_scripted_pair(seed, agree)
    state = RandomState(seed) if temperature > 0 else None
    config = EngineConfig(window=window, max_tokens=max_tokens,
                          temperature=temperature, state=state)
    prompt = (0,)
    results = {}
    for name, policy in (("lossless", LosslessPolicy()), ("topk1", TopKPolicy(1)),
                         ("judge", JudgePolicy(constant_judge(6), threshold=1e-9))):
        result = spec_decode(prompt, draft, target, policy, config)
        emitted = [c.accepted_draft + int(c.correction_emitted) + int(c.bonus_emitted)
                   for c in result.cycles]
        assert all(n >= 1 for n in emitted)
        assert sum(emitted) == len(result.response) <= max_tokens
        results[name] = result
    assert list(results["lossless"].response) == rollout(target, prompt, max_tokens,
                                                         temperature, state)
    if temperature == 0:
        # A sampled target choice need not be the top-1 token, so top-1
        # keeps agree with lossless only under greedy decoding.
        lossless = results["lossless"]
        for name in ("topk1", "judge"):
            assert results[name].response == lossless.response
            assert [vars(c) for c in results[name].cycles] \
                == [vars(c) for c in lossless.cycles]


def test_in_top_k_matches_sorted_ranking_on_hand_ties():
    logits = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
    assert [engine._in_top_k(logits, t, 2) for t in range(5)] \
        == [False, True, True, False, False]
    assert engine._in_top_k(logits, 4, 3) and not engine._in_top_k(logits, 3, 3)


@settings(max_examples=200, deadline=None)
@given(logits=st.lists(st.sampled_from([-40.0, -1.5, 0.0, 0.25, 2.0]), min_size=1,
                       max_size=12),
       data=st.data())
def test_in_top_k_matches_sorted_reference(logits, data):
    # A small value set makes tied logits common.
    token = data.draw(st.integers(0, len(logits) - 1))
    k = data.draw(st.integers(1, len(logits) + 1))
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    assert engine._in_top_k(np.array(logits), token, k) == (token in order[:k])


def random_sampled_pair(seed: int, agree: float, sigma: float, perturb_target: bool):
    """A random scripted pair, the draft (and maybe the target) perturbed."""
    draft, target = random_scripted_pair(seed, agree)
    draft = PerturbedModel(draft, PerturbSpec(noise_scale=sigma, seed=seed % 97))
    if perturb_target:
        target = PerturbedModel(target, PerturbSpec(noise_scale=sigma, seed=seed % 89 + 1))
    return draft, target


def reference_verify(target, context, window, policy, config, budget):
    """verify_window from one next_logits_hidden and seeded_choice per row."""
    n, emitted, overrides = len(window.tokens), [], 0
    for j, drafted in enumerate(window.tokens):
        prefix = context + tuple(window.tokens[:j])
        logits, _ = target.next_logits_hidden(prefix)
        choice = seeded_choice(logits, prefix, config.state, config.temperature)
        order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
        if drafted != choice and not (isinstance(policy, TopKPolicy)
                                      and drafted in order[:policy.k]):
            return emitted + [choice], CycleStats(n, j, overrides, True, False)
        overrides += drafted != choice
        emitted.append(drafted)
    full = context + tuple(window.tokens)
    bonus = window.tokens[-1] != target.vocab.eos_id and n < budget
    if bonus:
        logits, _ = target.next_logits_hidden(full)
        emitted.append(seeded_choice(logits, full, config.state, config.temperature))
    return emitted, CycleStats(n, n, overrides, False, bonus)


# At temperature 40 a scripted logit gap of 40 leaves real randomness.
sampled_pairs = dict(seed=st.integers(0, 2**32 - 1),
                     agree=st.sampled_from([0.0, 0.5, 0.9]),
                     sigma=st.sampled_from([0.5, 20.0]),
                     perturb_target=st.booleans(),
                     temperature=st.sampled_from([0.7, 40.0]),
                     context=st.lists(st.integers(0, 2), max_size=6),
                     window=st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(**sampled_pairs)
def test_sampled_window_reuses_the_noise_of_each_drafted_prefix(
        seed, agree, sigma, perturb_target, temperature, context, window):
    draft, target = random_sampled_pair(seed, agree, sigma, perturb_target)
    config = EngineConfig(window=window, temperature=temperature,
                          state=RandomState(seed))
    context = (0,) + tuple(context)
    drafted = draft_window(draft, context, window, config)
    size = PROPERTY_VOCAB.size
    assert len(drafted.noise) == len(drafted.tokens)
    for i, row in enumerate(drafted.noise):
        prefix = context + tuple(drafted.tokens[:i])
        np.testing.assert_array_equal(
            row, gumbel_noise(gumbel_key(config.state, prefix), size))
        logits, _ = draft.next_logits_hidden(prefix)
        assert drafted.tokens[i] == seeded_choice(logits, prefix, config.state,
                                                  temperature)
    n = len(drafted.tokens)
    for policy, budget in product((LosslessPolicy(), TopKPolicy(2)), (n, n + 1)):
        assert verify_window(draft, target, context, drafted, policy, config, budget) \
            == reference_verify(target, context, drafted, policy, config, budget)


@settings(max_examples=60, deadline=None)
@given(**sampled_pairs)
def test_sampled_rollout_equals_a_per_step_seeded_choice_loop(
        seed, agree, sigma, perturb_target, temperature, context, window):
    draft, target = random_sampled_pair(seed, agree, sigma, perturb_target)
    state = RandomState(seed)
    for model in (draft, target):
        tokens = (0,) + tuple(context)
        expect = []
        for _ in range(window):
            logits, _ = model.next_logits_hidden(tokens)
            t = seeded_choice(logits, tokens, state, temperature)
            tokens += (t,)
            expect.append(t)
            if t == PROPERTY_VOCAB.eos_id:
                break
        assert rollout(model, (0,) + tuple(context), window, temperature, state) == expect


@settings(max_examples=60, deadline=None)
@given(**{k: v for k, v in sampled_pairs.items() if k != "temperature"})
def test_greedy_rollout_equals_a_per_step_argmax_loop(
        seed, agree, sigma, perturb_target, context, window):
    """Greedy rollouts of perturbed models equal one `next_logits_hidden`
    argmax per step; at sigma 20 their noise-free guesses miss often, and
    the draft still draws at most 2n noise rows, in at most n calls.
    Lossless decoding of the pair still reproduces the target's rollout."""
    draft, target = random_sampled_pair(seed, agree, sigma, perturb_target)
    prompt, drawn = (0,) + tuple(context), []
    for model in (draft, target):
        tokens, expect = prompt, []
        for _ in range(window):
            t = int(np.argmax(model.next_logits_hidden(tokens)[0]))
            tokens += (t,)
            expect.append(t)
            if t == PROPERTY_VOCAB.eos_id:
                break
        if model is draft:  # count the rollout's noise draws only
            noise = draft._noise
            draft._noise = lambda keys: drawn.append(np.size(keys)) or noise(keys)
        assert rollout(model, prompt, window) == expect
    assert sum(drawn) <= 2 * window and len(drawn) <= window
    config = EngineConfig(window=window, max_tokens=12)
    result = spec_decode(prompt, draft, target, LosslessPolicy(), config)
    assert list(result.response) == rollout(target, prompt, 12)


def test_sampled_verify_needs_a_noise_row_per_drafted_token(chain_model):
    config = EngineConfig(window=4, temperature=1.0, state=RandomState(0))
    window = draft_window(chain_model, (0,), 4, config)
    window.noise = window.noise[:-1]
    with pytest.raises(DataError):
        verify_window(chain_model, chain_model, (0,), window, LosslessPolicy(),
                      config, 8)
