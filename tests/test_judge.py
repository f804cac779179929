"""Importance classifier: gradients, training, AUC, calibration, persistence."""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge.judge import (C_GRID, Examples, FeatureConfig,
                             JudgeModel, _grad, _loss,
                             build_examples, calibrate_threshold,
                             check_judge_compatible, decode_features, grid_search_C, load_judge, predict_importance,
                             roc_auc, save_judge, split_by_task, train_logreg)
from specjudge.lm import DataError, LanguageModel
from specjudge.toymodels import train_ngram


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


def gradient_norm(examples, model):
    X, y = examples.X, examples.y
    gw, gb = _grad(X, y, model.weights, _loss(X, y, model.weights, model.bias,
                                              model.C)[1], model.C)
    return float(np.sqrt(gw @ gw + gb * gb))


def mp_newton_logreg(X, y, C, digits=50):
    """(w, b, loss, smallest Hessian eigenvalue) at the optimum of `_loss`,
    by Newton's method in mpmath."""
    with mpmath.workdps(digits):
        n, d = X.shape
        rows = [[mpmath.mpf(float(v)) for v in row] + [mpmath.mpf(1)] for row in X]
        ys = [mpmath.mpf(float(v)) for v in y]
        C = mpmath.mpf(C)

        def logits(theta):
            return [mpmath.fsum(a * t for a, t in zip(row, theta)) for row in rows]

        def loss(theta):
            return (mpmath.fsum(mpmath.log1p(mpmath.exp(z)) - t * z
                                for z, t in zip(logits(theta), ys)) / n
                    + C / 2 * mpmath.fsum(t * t for t in theta[:d]))

        theta = [mpmath.mpf(0)] * (d + 1)
        for _ in range(200):
            p = [1 / (1 + mpmath.exp(-z)) for z in logits(theta)]
            g = [mpmath.fsum((pi - t) * row[j] for pi, t, row in zip(p, ys, rows)) / n
                 + (C * theta[j] if j < d else 0) for j in range(d + 1)]
            H = mpmath.matrix(d + 1, d + 1)
            for j in range(d + 1):
                for k in range(d + 1):
                    H[j, k] = (mpmath.fsum(pi * (1 - pi) * row[j] * row[k]
                                           for pi, row in zip(p, rows)) / n
                               + (C if j == k < d else 0))
            # far below float64's reach, yet above where 50-digit losses
            # can still tell a Newton step's decrease
            if mpmath.norm(g) < 1e-20:
                break
            delta = mpmath.lu_solve(H, mpmath.matrix(g))
            step, here = mpmath.mpf(1), loss(theta)
            while loss([t - step * dt for t, dt in zip(theta, delta)]) > here:
                step /= 2
            theta = [t - step * dt for t, dt in zip(theta, delta)]
        else:
            raise AssertionError("reference Newton did not converge")
        return (np.array([float(t) for t in theta[:d]]), float(theta[d]),
                float(loss(theta)), float(min(mpmath.eigsy(H, eigvals_only=True))))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3),
       st.sampled_from([1e-3, 1.0]), st.floats(0.1, 3.0))
def test_train_logreg_matches_high_precision_newton(seed, n, d, C, scale):
    rng = np.random.default_rng(seed)
    X = scale * rng.normal(size=(n, d))
    y = np.arange(n) % 2 == 0  # both classes present
    rng.shuffle(y)
    examples = make_examples(X, y)
    model = train_logreg(examples, C)
    w, b, loss, curvature = mp_newton_logreg(X, y, C)
    # The fit stops once its gradient g is below 1e-8, which puts it within
    # about |g| / curvature of the optimum and its loss within |g|^2 /
    # curvature: 1e-6 and 1e-12 relative unless a tiny, nearly separable
    # problem leaves the Hessian's smallest eigenvalue near C.
    g = gradient_norm(examples, model)
    np.testing.assert_allclose(np.append(model.weights, model.bias), np.append(w, b),
                               rtol=0, atol=max(1e-6, 2.0 * g / curvature))
    got = _loss(X, y.astype(float), model.weights, model.bias, C)[0]
    assert abs(got - loss) <= max(1e-12 * loss, g * g / curvature)


@pytest.mark.parametrize("C", C_GRID)
def test_fixture_fit_reaches_the_optimum(judged, C):
    examples = judged.examples
    assert gradient_norm(examples, train_logreg(examples, C)) < 1e-8


def test_singular_hessian_gives_finite_weights_without_warnings(judged):
    """At C=0 a rank-deficient design makes the Hessian exactly singular."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 2))
    duplicated = make_examples(np.column_stack([x, x[:, :1]]),
                               x[:, 0] + rng.normal(size=50) > 0)
    for examples in (judged.examples, duplicated):
        assert np.linalg.matrix_rank(examples.X) < examples.X.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_logreg(examples, C=0.0)
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)


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


def test_single_class_training_rejected():
    examples = make_examples([[0.0], [1.0]], [True, True])
    with pytest.raises(DataError, match="^training data has a single class$"):
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
    result = grid_search_C(examples, split_seed=0)
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
    with pytest.raises(DataError, match="^need >= 10 important validation examples, have 4$"):
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
    with pytest.raises(DataError, match=r"^recall 0\.000 below target 0\.9 at tau=1e-12$"):
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
    """Each feature source fixes the width a compatible judge must have."""
    widths = {"both": 37, "draft": 19, "target": 18}
    for source, want in widths.items():
        cfg = FeatureConfig(model_source=source)
        for width in {*widths.values(), 36}:
            judge = JudgeModel(weights=np.zeros(width), bias=0.0, feature_config=cfg, C=1.0)
            if width == want:
                check_judge_compatible(judge, pipeline.draft, pipeline.target)
                continue
            with pytest.raises(DataError, match=f"^judge expects {width} features but "
                                                f"models produce {want}$"):
                check_judge_compatible(judge, pipeline.draft, pipeline.target)
    check_judge_compatible(judged.judge, pipeline.draft, pipeline.target)
    short = JudgeModel(weights=np.zeros(5), bias=0.0, feature_config=FeatureConfig(), C=1.0)
    with pytest.raises(DataError):
        check_judge_compatible(short, pipeline.draft, pipeline.target)
    with pytest.raises(DataError):
        FeatureConfig(model_source="bogus")


def test_build_examples_concatenates_draft_then_target(mined):
    rec = mined.records[0]
    examples = build_examples([rec], FeatureConfig())
    np.testing.assert_array_equal(
        examples.X[0], np.concatenate([rec.draft_hidden, rec.target_hidden]))
    assert examples.feature_config == FeatureConfig()


@pytest.mark.parametrize("model_source", ["draft", "target", "both"])
def test_decode_features_ask_only_the_model_they_read(pipeline, monkeypatch,
                                                      model_source):
    """A one-sided config never runs the other model's forward, and reading both
    never runs the target's: the draft wraps it, so its row leads the draft's."""
    draft, target = pipeline.draft, pipeline.target
    unread = draft if model_source == "target" else target
    forward = LanguageModel.forward_parallel

    def spy(self, *args, **kwargs):  # on the class: `unread` is a session model
        if self is unread:
            pytest.fail("unread model evaluated")
        return forward(self, *args, **kwargs)
    monkeypatch.setattr(LanguageModel, "forward_parallel", spy)
    cfg, tokens = FeatureConfig(model_source=model_source), (1, 2, 3, 4)
    got = decode_features(cfg, draft, target, tokens[:-1], tokens[-1])
    np.testing.assert_array_equal(got, np.concatenate(
        [m.next_logits_hidden(tokens)[1] for side, m in (("draft", draft), ("target", target))
         if cfg.reads(side)]))


def test_decode_features_of_an_independent_draft_read_both_models(pipeline, monkeypatch):
    """A draft that does not wrap the target (an order-3 n-gram, no `base`) has
    its own row and the target's read, each from one 1-row forward."""
    draft, target = train_ngram(pipeline.vocab, pipeline.corpus, 3, 0.2, seed=1), pipeline.target
    read, forward = [], LanguageModel.forward_parallel

    def spy(self, tokens, start=0):  # on the class: the target is a session model
        if self is draft or self is target:
            read.append((self, len(tokens) - start))
        return forward(self, tokens, start)
    monkeypatch.setattr(LanguageModel, "forward_parallel", spy)
    tokens = (1, 2, 3, 4)
    got = decode_features(FeatureConfig(), draft, target, tokens[:-1], tokens[-1])
    assert read == [(draft, 1), (target, 1)]
    np.testing.assert_array_equal(got, np.concatenate(
        [draft.next_logits_hidden(tokens)[1], target.next_logits_hidden(tokens)[1]]))


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
    cfg = FeatureConfig(model_source="target")
    result = grid_search_C(build_examples(mined.records, cfg), split_seed=0)
    assert result.model.feature_config == cfg
    assert result.validation.feature_config == cfg
    check_judge_compatible(result.model, pipeline.draft, pipeline.target)


def test_engineered_pipeline_judge_quality(judged):
    assert judged.result.val_auc > 0.9
    assert 0.0 < judged.judge.threshold < 1.0