"""Importance classifier: gradients, training, AUC, calibration, persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge.judge import (C_GRID, CalibrationError, Examples, FeatureConfig,
                             JudgeModel, TrainingError, _grad, _loss,
                             build_examples, calibrate_threshold,
                             check_judge_compatible, decode_features,
                             expected_feature_dim,
                             grid_search_C, load_judge, predict_importance,
                             roc_auc, save_judge, split_by_task, train_logreg)
from specjudge.lm import DataError


def make_examples(X, y, tasks_of=None):
    y = np.asarray(y, dtype=float)
    ids = tasks_of or [f"task-{i}" for i in range(len(y))]
    return Examples(np.asarray(X, dtype=float), y, np.array(ids), FeatureConfig())


def separable_examples(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X[:, 0] + 2 * X[:, 1] > 0  # noiseless linear rule
    return make_examples(X, y)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for case in range(20):
        n, d = rng.integers(4, 30), rng.integers(1, 8)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        C = float(rng.choice([0.0, 1e-3, 0.5]))
        gw, gb = _grad(X, y, w, _loss(X, y, w, b, C)[1], C)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (_loss(X, y, w + e, b, C)[0]
                     - _loss(X, y, w - e, b, C)[0]) / (2 * h)
        fd_b = (_loss(X, y, w, b + h, C)[0]
                - _loss(X, y, w, b - h, C)[0]) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(fd)), abs(fd_b))
        assert np.max(np.abs(gw - fd)) / scale < 1e-4, f"case {case}"
        assert abs(gb - fd_b) / scale < 1e-4, f"case {case}"


def reference_logreg(X, y, C, max_iters, tol=1e-8):
    """The optimizer as it was first written: a gradient at every trial."""
    def loss_grad(w, b):
        z = X @ w + b
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * C * float(w @ w)
        p = np.empty_like(z)
        pos = z >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        p[~pos] = e / (1.0 + e)
        diff = p - y
        return loss, X.T @ diff / len(y) + C * w, float(diff.mean())

    w, b, step = np.zeros(X.shape[1]), 0.0, 1.0
    loss, gw, gb = loss_grad(w, b)
    for _ in range(max_iters):
        gnorm2 = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm2) < tol:
            break
        step = min(step * 2.0, 1e6)
        improved = False
        while step >= 1e-12:
            w2, b2 = w - step * gw, b - step * gb
            loss2, gw2, gb2 = loss_grad(w2, b2)
            if loss2 <= loss - 1e-4 * step * gnorm2:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        w, b, loss, gw, gb = w2, b2, loss2, gw2, gb2
    return w, b


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6),
       st.sampled_from([0.0, 1e-3, 1.0, 1e-7]), st.sampled_from([0, 1, 7, 60, 500]),
       st.floats(0.1, 30.0))
def test_train_logreg_equals_reference_bit_for_bit(seed, n, d, C, max_iters, scale):
    rng = np.random.default_rng(seed)
    X = scale * rng.normal(size=(n, d))  # large scales push z into both tails
    y = np.arange(n) % 2 == 0  # both classes present
    rng.shuffle(y)
    model = train_logreg(make_examples(X, y), C, max_iters=max_iters)
    w, b = reference_logreg(X, y.astype(float), C, max_iters)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == b and type(model.bias) is type(b)


def test_separable_data_reaches_perfect_training_accuracy():
    examples = separable_examples()
    model = train_logreg(examples, C=1e-7)
    preds = [float(predict_importance(model, x) >= 0.5) for x in examples.X]
    assert preds == examples.y.tolist()


def test_training_is_bit_reproducible():
    examples = separable_examples(seed=1)
    a = train_logreg(examples, C=1e-3)
    b = train_logreg(examples, C=1e-3)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_zero_iterations_returns_the_zero_model():
    model = train_logreg(separable_examples(), C=1.0, max_iters=0)
    assert np.array_equal(model.weights, np.zeros(3))
    assert model.bias == 0.0
    assert predict_importance(model, [5.0, -2.0, 1.0]) == 0.5


def test_negative_iterations_rejected():
    with pytest.raises(TrainingError, match="max_iters"):
        train_logreg(separable_examples(), C=1.0, max_iters=-5)


def test_single_class_training_rejected():
    examples = make_examples([[0.0], [1.0]], [True, True])
    with pytest.raises(TrainingError):
        train_logreg(examples, C=1.0)


def test_roc_auc_hand_cases():
    assert roc_auc([True, False], [0.9, 0.1]) == 1.0
    assert roc_auc([True, False], [0.1, 0.9]) == 0.0
    assert roc_auc([True, False], [0.5, 0.5]) == 0.5
    assert roc_auc([True, True, False, False], [0.9, 0.4, 0.6, 0.1]) == 0.75
    with pytest.raises(DataError):
        roc_auc([True, True], [0.5, 0.6])


def reference_roc_auc(labels, scores):
    """roc_auc as it was first written: tie runs found by a while-loop."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# Few distinct values give long tie runs, one value gives all-equal scores,
# and free floats are almost always untied.
_SCORES = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan]), min_size=2, max_size=60),
    st.integers(2, 60).map(lambda n: [0.5] * n),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=60))


@settings(deadline=None, max_examples=200)
@given(_SCORES, st.data())
def test_roc_auc_equals_tie_loop_reference_bit_for_bit(scores, data):
    labels = data.draw(st.lists(st.booleans(), min_size=len(scores),
                                max_size=len(scores)).filter(lambda ls: 0 < sum(ls) < len(ls)))
    got, want = roc_auc(labels, scores), reference_roc_auc(labels, scores)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_regularization_shrinks_weights_monotonically():
    # overlapping classes keep the unregularized optimum finite, so 500
    # iterations land close enough to compare norms across C
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = X[:, 0] + 0.8 * rng.normal(size=60) > 0
    examples = make_examples(X, y)
    norms = [float(np.linalg.norm(train_logreg(examples, C).weights))
             for C in sorted(C_GRID)]  # ascending C
    for weaker, stronger in zip(norms[:-1], norms[1:]):
        assert stronger <= weaker * (1.0 + 1e-3) + 1e-6


def test_grid_search_separable_ties_pick_strongest_C():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 2))
    y = X[:, 0] > 0
    examples = make_examples(X, y, tasks_of=[f"t{i % 16}" for i in range(80)])
    result = grid_search_C(examples, split_seed=0)
    assert all(auc == 1.0 for auc in result.aucs.values())
    assert result.model.C == C_GRID[0] == 1.0


def test_grid_search_noise_labels_stay_near_chance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4000, 4))
    y = rng.integers(0, 2, size=4000).astype(bool)
    examples = make_examples(X, y, tasks_of=[f"t{i % 100}" for i in range(4000)])
    result = grid_search_C(examples, split_seed=0, max_iters=80)
    # best-of-grid on 400 validation rows: near chance, nowhere near signal
    assert 0.40 <= result.val_auc <= 0.62


def test_split_by_task_keeps_tasks_whole():
    examples = make_examples(np.eye(30), [i % 2 == 0 for i in range(30)],
                             tasks_of=[f"t{i % 10}" for i in range(30)])
    train, val = split_by_task(examples, split_seed=0)
    train_ids, val_ids = set(train.task_ids), set(val.task_ids)
    assert not train_ids & val_ids
    assert len(val_ids) == 1  # 10 tasks at 10 percent
    def rows(part):  # row i of np.eye(30) is example i
        return part.X.argmax(axis=1)

    assert sorted(np.concatenate([rows(train), rows(val)])) == list(range(30))
    for part in (train, val):  # rows keep their order, labels and ids alongside
        assert list(rows(part)) == sorted(rows(part))
        np.testing.assert_array_equal(part.y, examples.y[rows(part)])
        np.testing.assert_array_equal(part.task_ids, examples.task_ids[rows(part)])
        assert part.feature_config == examples.feature_config
    again = split_by_task(examples, split_seed=0)
    np.testing.assert_array_equal(again[1].task_ids, val.task_ids)


def sigmoid_inv(p):
    return math.log(p / (1.0 - p))


def identity_judge():
    return JudgeModel(weights=np.array([1.0]), bias=0.0,
                      feature_config=FeatureConfig(), C=1.0)


def scored_examples(scores, labels):
    return make_examples([[sigmoid_inv(s)] for s in scores], labels)


def test_calibrate_threshold_hand_enumeration():
    # the canonical 4-score case {.9,.8,.7,.2}, replicated x3 to meet the
    # minimum of 10 important validation examples
    judge = identity_judge()
    # the two unimportant fillers never enter the quantile
    pool = scored_examples([0.9, 0.8, 0.7, 0.2] * 3 + [0.1, 0.1], [1] * 12 + [0, 0])
    assert calibrate_threshold(judge, pool, target_recall=0.75) == pytest.approx(0.7)
    assert calibrate_threshold(judge, pool, target_recall=1.0) == pytest.approx(0.2)


def test_calibrate_threshold_requires_ten_importants():
    judge = identity_judge()
    with pytest.raises(CalibrationError):
        calibrate_threshold(judge, scored_examples([0.9, 0.8, 0.7, 0.2], [1] * 4))


def test_calibrate_threshold_perfect_classifier_clamps():
    judge = JudgeModel(weights=np.array([200.0]), bias=0.0,
                       feature_config=FeatureConfig(), C=1.0)
    examples = make_examples(np.ones((12, 1)), [1] * 12)
    tau = calibrate_threshold(judge, examples, target_recall=0.9)
    assert tau == 1.0 - 1e-12


def test_calibrate_threshold_unreachable_recall():
    # scores saturate to exactly 0, below any representable threshold
    judge = JudgeModel(weights=np.array([-2000.0]), bias=0.0,
                       feature_config=FeatureConfig(), C=1.0)
    examples = make_examples(np.ones((12, 1)), [1] * 12)
    with pytest.raises(CalibrationError):
        calibrate_threshold(judge, examples, target_recall=0.9)


def test_predict_importance_validates_dimension():
    judge = identity_judge()
    assert 0.0 < predict_importance(judge, [0.3]) < 1.0
    with pytest.raises(DataError):
        predict_importance(judge, [0.3, 0.4])


def test_save_load_judge_round_trip(tmp_path, judged):
    path = tmp_path / "judge.json"
    save_judge(str(path), judged.judge)
    loaded = load_judge(str(path))
    assert np.array_equal(loaded.weights, judged.judge.weights)
    assert loaded.bias == judged.judge.bias
    assert loaded.threshold == judged.judge.threshold
    assert loaded.feature_config == judged.judge.feature_config
    assert loaded.C == judged.judge.C
    path.write_text("{\"weights\": [1.0]}\n")
    with pytest.raises(DataError):
        load_judge(str(path))
    save_judge(str(path), judged.judge)
    good = json.loads(path.read_text())
    for bad in ({"weights": [math.nan] * good["feature_dim"]},
                {"weights": [0.0, math.inf] + good["weights"][2:]},
                {"weights": [[0.0] * good["feature_dim"]], "feature_dim": 1},
                {"bias": math.nan}):
        path.write_text(json.dumps({**good, **bad}))
        with pytest.raises(DataError, match="finite"):
            load_judge(str(path))


def test_feature_dims_and_compatibility(pipeline, judged):
    cfg = FeatureConfig()
    assert expected_feature_dim(cfg, pipeline.draft, pipeline.target) == 37
    assert expected_feature_dim(FeatureConfig(model_source="draft"),
                                pipeline.draft, pipeline.target) == 19
    assert expected_feature_dim(FeatureConfig(model_source="target"),
                                pipeline.draft, pipeline.target) == 18
    check_judge_compatible(judged.judge, pipeline.draft, pipeline.target)
    short = JudgeModel(weights=np.zeros(5), bias=0.0, feature_config=cfg, C=1.0)
    with pytest.raises(DataError):
        check_judge_compatible(short, pipeline.draft, pipeline.target)
    with pytest.raises(DataError):
        FeatureConfig(model_source="bogus")


def test_build_examples_concatenates_draft_then_target(mined):
    rec = mined.records[0]
    examples = build_examples([rec], FeatureConfig())
    np.testing.assert_array_equal(
        examples.X[0], np.concatenate([rec.draft_hidden, rec.target_hidden]))
    prev = build_examples([rec], FeatureConfig(token_source="prev"))
    np.testing.assert_array_equal(
        prev.X[0], np.concatenate([rec.prev_draft_hidden, rec.prev_target_hidden]))
    assert prev.feature_config == FeatureConfig(token_source="prev")


@pytest.mark.parametrize("model_source", ["draft", "target"])
def test_decode_features_ask_only_the_model_they_read(pipeline, monkeypatch,
                                                      model_source):
    """A one-sided config never runs the other model's forward."""
    unread = pipeline.target if model_source == "draft" else pipeline.draft
    monkeypatch.setattr(unread, "forward_parallel",
                        lambda *a, **k: pytest.fail("unread model evaluated"))
    prefix, token = (1, 2, 3), 4
    for token_source, row in (("draft_token", prefix + (token,)), ("prev", prefix)):
        cfg = FeatureConfig(token_source=token_source, model_source=model_source)
        read = pipeline.draft if model_source == "draft" else pipeline.target
        got = decode_features(cfg, pipeline.draft, pipeline.target, prefix, token)
        np.testing.assert_array_equal(got, read.next_logits_hidden(row)[1])


def test_build_examples_keeps_record_order(mined):
    records = mined.records
    examples = build_examples(records, FeatureConfig(model_source="target"))
    assert examples.X.shape == (len(records), 18)
    assert examples.y.tolist() == [float(r.important) for r in records]
    assert examples.task_ids.tolist() == [r.task_id for r in records]
    for x, r in zip(examples.X, records):
        np.testing.assert_array_equal(x, r.target_hidden)
    with pytest.raises(DataError, match="no records"):
        build_examples([], FeatureConfig())


def test_grid_search_judge_carries_the_examples_config(pipeline, mined):
    cfg = FeatureConfig(token_source="prev", model_source="target")
    result = grid_search_C(build_examples(mined.records, cfg), split_seed=0)
    assert result.model.feature_config == cfg
    assert result.validation.feature_config == cfg
    check_judge_compatible(result.model, pipeline.draft, pipeline.target)


def test_engineered_pipeline_judge_quality(judged):
    assert judged.result.val_auc > 0.9
    assert 0.0 < judged.judge.threshold < 1.0