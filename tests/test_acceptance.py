"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with -s (or -rA) to see the per-criterion PASS lines.  Criteria 4, 5,
and 9 share module-scoped mining and frontier fixtures, so the suite stays
inside its stated runtime budgets.
"""

import hashlib
import time

import numpy as np
import pytest

from specjudge.bench import run_policy
from specjudge.engine import (EngineConfig, JudgePolicy, LosslessPolicy,
                              TopKPolicy, spec_decode)
from specjudge.judge import (Examples, FeatureConfig, _grad, _loss, predict_importance,
                             train_logreg)
from specjudge.mining import (MiningConfig, TaskSkippedError, dataset_fingerprint,
                              mine_important, mine_naive)
from specjudge.remote import RemoteEndpoint, RemoteError, remote_generator
from specjudge.sampling import RandomState, rollout
from specjudge.tasks import answers_equivalent, extract_answer, gen_arithmetic_task
from specjudge.lm import DataError


# --- shared expensive fixtures ---------------------------------------------


@pytest.fixture(scope="module")
def divergent_mining(pipeline):
    """First 200 tasks whose pure-draft answer differs from the target's,
    each mined to completion."""
    vocab = pipeline.vocab
    results = []
    for i in range(2000):
        if len(results) == 200:
            break
        task = gen_arithmetic_task(30000 + i, 2 + i % 2, vocab)
        budget = task.max_response_len
        target_ans = extract_answer(
            rollout(pipeline.target, task.prompt.tokens, budget), vocab)
        draft_ans = extract_answer(
            rollout(pipeline.draft, task.prompt.tokens, budget), vocab)
        if answers_equivalent(draft_ans, target_ans):
            continue
        try:
            results.append(mine_important(task, pipeline.draft, pipeline.target))
        except TaskSkippedError:
            continue
    return results


@pytest.fixture(scope="module")
def frontier(pipeline, judged, eval_tasks):
    """Benchmark rows for the lossless / top-K / judge frontier sweep."""
    config = EngineConfig(window=8, max_tokens=64)
    started = time.perf_counter()

    def row(policy):
        return run_policy(eval_tasks, pipeline.draft, pipeline.target, policy,
                          config)

    tau_cal = judged.judge.threshold
    rows = {
        "lossless": row(LosslessPolicy()),
        "topk": {k: row(TopKPolicy(k))
                 for k in (1, 2, 4, 8, pipeline.vocab.size)},
        "judge": {tau: row(JudgePolicy(judged.judge, threshold=tau))
                  for tau in (1e-9, 0.02, 0.3, tau_cal, 0.9, 0.999)},
    }
    rows["elapsed"] = time.perf_counter() - started
    rows["tau_cal"] = tau_cal
    return rows


# --- criteria ---------------------------------------------------------------


def test_criterion_01_lossless_greedy_equivalence(pipeline):
    vocab = pipeline.vocab
    tasks = [gen_arithmetic_task(i, 2 + i % 2, vocab) for i in range(100)]
    started = time.perf_counter()
    for task in tasks:
        budget = task.max_response_len
        reference = tuple(rollout(pipeline.target, task.prompt.tokens, budget))
        for window in (1, 8, 64):
            config = EngineConfig(window=window, max_tokens=budget)
            result = spec_decode(task.prompt.tokens, pipeline.draft,
                                 pipeline.target, LosslessPolicy(), config)
            assert result.response == reference, (task.task_id, window)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 1: PASS (100 tasks x W in {{1,8,64}} bit-identical, "
          f"{elapsed:.1f}s)")


def test_criterion_02_lossless_sampled_equivalence(pipeline):
    vocab = pipeline.vocab
    for i in range(50):
        task = gen_arithmetic_task(100 + i, 2 + i % 2, vocab)
        budget = task.max_response_len
        config = EngineConfig(window=8, max_tokens=budget, temperature=0.8,
                              state=RandomState(i))
        result = spec_decode(task.prompt.tokens, pipeline.draft,
                             pipeline.target, LosslessPolicy(), config)
        reference = rollout(pipeline.target, task.prompt.tokens, budget,
                            0.8, RandomState(i))
        assert list(result.response) == reference, task.task_id
    print("criterion 2: PASS (50 sampled tasks bit-identical at T=0.8)")


def test_criterion_04_mining_finds_an_important_token(divergent_mining):
    assert len(divergent_mining) == 200
    with_important = sum(any(r.important for r in res.records)
                         for res in divergent_mining)
    assert with_important == 200
    print("criterion 4: PASS (200/200 divergent tasks yield >= 1 important "
          "token)")


def test_criterion_05_mining_preserves_the_answer(pipeline, divergent_mining):
    vocab = pipeline.vocab
    preserved = 0
    for res in divergent_mining:
        final_answer = extract_answer(list(res.final_tokens), vocab)
        assert answers_equivalent(final_answer, res.reference_answer), res.task_id
        preserved += 1
    assert preserved == 200
    print("criterion 5: PASS (200/200 final sequences keep the reference "
          "answer)")


def test_criterion_06_naive_miner_misses_self_correction(self_correcting_pair):
    pair = self_correcting_pair
    naive = mine_naive(pair.task, pair.draft, pair.target, MiningConfig())
    mined = mine_important(pair.task, pair.draft, pair.target, MiningConfig())
    naive_important = sum(r.important for r in naive.records)
    mined_important = sum(r.important for r in mined.records)
    assert naive_important == 0
    assert mined_important >= 1
    print(f"criterion 6: PASS (self-correcting pair: naive {naive_important} "
          f"important, full miner {mined_important})")


def test_criterion_07_classifier_numerics():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        n, d = rng.integers(4, 30), rng.integers(1, 8)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w, b = rng.normal(size=d), float(rng.normal())
        C = float(rng.choice([0.0, 1e-3, 0.5]))
        gw, gb = _grad(X, y, w, _loss(X, y, w, b, C)[1], C)
        fd = np.array([(_loss(X, y, w + h * np.eye(d)[j], b, C)[0]
                        - _loss(X, y, w - h * np.eye(d)[j], b, C)[0])
                       / (2 * h) for j in range(d)])
        fd_b = (_loss(X, y, w, b + h, C)[0]
                - _loss(X, y, w, b - h, C)[0]) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(fd)), abs(fd_b))
        assert np.max(np.abs(gw - fd)) / scale < 1e-4
        assert abs(gb - fd_b) / scale < 1e-4

    X = rng.normal(size=(40, 3))
    labels = X[:, 0] + 2 * X[:, 1] > 0
    examples = Examples(X, labels.astype(float), np.array([f"t{i}" for i in range(40)]),
                        FeatureConfig())
    model = train_logreg(examples, C=1e-7)
    preds = [predict_importance(model, x) >= 0.5 for x in X]
    assert preds == labels.tolist()

    again = train_logreg(examples, C=1e-7)
    assert np.array_equal(model.weights, again.weights)
    assert model.bias == again.bias
    print("criterion 7: PASS (gradient within 1e-4 of finite differences, "
          "separable accuracy 1.0, training bit-reproducible)")


def test_criterion_08_policy_identities(pipeline, judged, eval_tasks):
    for task in eval_tasks:
        config = EngineConfig(window=8, max_tokens=min(64, task.max_response_len))
        args = (task.prompt.tokens, pipeline.draft, pipeline.target)
        reference = spec_decode(*args, LosslessPolicy(), config).response
        topk = spec_decode(*args, TopKPolicy(k=1), config).response
        tiny = spec_decode(*args, JudgePolicy(judged.judge, threshold=1e-9),
                           config).response
        assert topk == reference, task.task_id
        assert tiny == reference, task.task_id
    print(f"criterion 8: PASS (TopK(1) and Judge(1e-9) match Lossless on "
          f"{len(eval_tasks)}/{len(eval_tasks)} tasks)")


def test_criterion_09_frontier_beats_lossless_and_dominates_topk(frontier):
    lossless = frontier["lossless"]
    cal = frontier["judge"][frontier["tau_cal"]]
    assert cal.accepted_per_cycle > lossless.accepted_per_cycle
    assert cal.accuracy >= lossless.accuracy - 0.03

    judge_rows = frontier["judge"].values()
    dominated = sum(
        any(j.accepted_per_cycle >= t.accepted_per_cycle
            and j.accuracy >= t.accuracy for j in judge_rows)
        for t in frontier["topk"].values())
    assert dominated >= 3
    assert frontier["elapsed"] < 300.0, f"took {frontier['elapsed']:.0f}s"
    print(f"criterion 9: PASS (calibrated tau={frontier['tau_cal']:.4f}: "
          f"apc {cal.accepted_per_cycle:.3f} > {lossless.accepted_per_cycle:.3f}, "
          f"accuracy {cal.accuracy:.3f} vs {lossless.accuracy:.3f}; "
          f"dominates {dominated}/5 top-K levels; {frontier['elapsed']:.0f}s)")


def test_criterion_10_important_fraction_in_range(mined):
    fraction = sum(r.important for r in mined.records) / len(mined.records)
    assert 0.02 < fraction < 0.8
    print(f"criterion 10: PASS (important fraction {fraction:.3f} of "
          f"{len(mined.records)} records)")


def test_criterion_10_mined_dataset_is_pinned(mined):
    """The fixture pipeline mines the same records, bit for bit, as ever.

    The benchmark reports this fingerprint as `dataset` for the same models
    and tasks 2000..2199.
    """
    assert len(mined.records) == 491
    assert sum(r.important for r in mined.records) == 223
    assert dataset_fingerprint(mined.records) == "55f17dc3e22264c1"


def test_criterion_10_trained_judge_is_pinned(judged):
    """The fixture's judge, bit for bit: the benchmark's `judge` digest."""
    judge = judged.judge
    h = hashlib.sha256(judge.weights.tobytes())
    h.update(repr((judge.bias, judge.C, judge.threshold)).encode())
    assert h.hexdigest()[:16] == "cfc4ed608e6bba16"


def records_equal(a, b):
    return (a.task_id == b.task_id and a.position == b.position
            and a.target_token == b.target_token
            and a.draft_token == b.draft_token and a.important == b.important
            and a.context_hash == b.context_hash
            and np.array_equal(a.draft_hidden, b.draft_hidden)
            and np.array_equal(a.target_hidden, b.target_hidden))


def test_criterion_11_remote_mining_matches_local(pipeline, completions_server):
    vocab = pipeline.vocab

    def serve(body):
        prefix = vocab.encode(body["prompt"])
        tokens = rollout(pipeline.target, prefix, body["max_tokens"])
        return 200, {"choices": [{"text": vocab.decode(tokens)}]}

    # first request fails once to exercise the retry path, then the mock
    # replays the local target verbatim
    completions_server.script = [(500, {"error": "warmup"}), serve]
    endpoint = RemoteEndpoint(completions_server.url, model="mock")
    generate = remote_generator(endpoint, vocab, sleep=lambda s: None)

    compared = 0
    for i in range(40):
        task = gen_arithmetic_task(30000 + i, 2 + i % 2, vocab)
        try:
            local = mine_important(task, pipeline.draft, pipeline.target)
        except TaskSkippedError:
            continue
        remote = mine_important(task, pipeline.draft, pipeline.target,
                                target_generate=generate)
        assert len(local.records) == len(remote.records)
        assert all(records_equal(a, b)
                   for a, b in zip(local.records, remote.records))
        assert local.final_tokens == remote.final_tokens
        assert local.reference_answer == remote.reference_answer
        compared += 1
        if compared == 5:
            break
    assert compared == 5
    assert len(completions_server.requests) >= 2  # includes the retried 500

    completions_server.script = [(503, {"error": "down"})]
    task = gen_arithmetic_task(30000, 2, vocab)
    with pytest.raises(RemoteError) as err:
        mine_important(task, pipeline.draft, pipeline.target,
                       target_generate=generate)
    assert err.value.status == 503
    with pytest.raises(DataError):
        remote_generator(endpoint, vocab, temperature=0.5)
    print(f"criterion 11: PASS (5 tasks mined identically via the mock "
          f"endpoint over {len(completions_server.requests)} requests; retry "
          f"and failure paths exercised)")