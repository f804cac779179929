"""Token-importance classifier: logistic regression on hidden states.

Features are the hidden states at the draft token (the prefix with the
draft token appended), one hidden row per model read: `hidden_rows`
computes them for mined mismatch records in training and at decode time.  The one
choice is which model's state to use: the draft's, the target's, or both
concatenated.  Training is Newton's method (iteratively reweighted
least squares) with a backtracking line search, run to the optimum of
the L2-regularized log-loss.  The L2
strength is grid-searched on a held-out task split, and the operating
threshold is calibrated to a target recall on important tokens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from .lm import DataError, json_float, json_int, json_str, json_vector, reading, write_json

C_GRID = tuple(10.0 ** -i for i in range(0, 8))  # 1e0 .. 1e-7

MODEL_SOURCES = ("draft", "target", "both")
NEWTON_STEPS = 500  # a guard: the mined examples converge within 19


@dataclass(frozen=True)
class FeatureConfig:
    """Which model's hidden state at the draft token feeds the classifier."""

    model_source: str = "both"

    def __post_init__(self):
        if self.model_source not in MODEL_SOURCES:
            raise DataError(f"model_source must be one of {MODEL_SOURCES}")

    def reads(self, side: str) -> bool:
        """Whether the features hold the "draft" or "target" model's state."""
        return self.model_source in (side, "both")


def assemble_features(cfg: FeatureConfig, draft_hidden, target_hidden) -> np.ndarray:
    """Feature vector for one mismatch (draft part first on both).

    Both hidden states encode the same prefix plus draft token; a side
    that `cfg.model_source` does not read may be None.
    """
    parts = [h for side, h in (("draft", draft_hidden), ("target", target_hidden))
             if cfg.reads(side)]
    vec = np.concatenate(parts).astype(float, copy=False)
    if not np.isfinite(vec).all():
        raise DataError("non-finite feature vector")
    return vec


def hidden_rows(cfg: FeatureConfig, draft, target, tokens):
    """(draft row, target row) encoding `tokens`, each from a 1-row `forward_parallel`
    and None on a side `cfg` does not read.  A draft wrapping this target leads its
    row with the target's, which is then sliced off instead of computed again."""
    def row(model):
        return model.forward_parallel(tokens, start=len(tokens) - 1).hidden[0]
    d = row(draft) if cfg.reads("draft") else None
    if d is not None and cfg.reads("target") and getattr(draft, "base", None) is target:
        return d, d[:target.hidden_dim]
    return d, row(target) if cfg.reads("target") else None


def decode_features(cfg: FeatureConfig, draft, target, prefix,
                    draft_token: int) -> np.ndarray:
    """Decode-time features of drafting `draft_token` after `prefix`: the
    `hidden_rows` mining records, so they equal `build_examples`' features."""
    return assemble_features(cfg, *hidden_rows(cfg, draft, target,
                                               (*prefix, draft_token)))


@dataclass(frozen=True)
class Examples:
    """Training rows: features X (n, d), 0/1 labels y (floats), each row's
    task id, and the FeatureConfig that built X."""

    X: np.ndarray
    y: np.ndarray
    task_ids: np.ndarray
    feature_config: FeatureConfig

    def rows(self, mask) -> "Examples":
        return Examples(self.X[mask], self.y[mask], self.task_ids[mask],
                        self.feature_config)


def build_examples(records, cfg: FeatureConfig) -> Examples:
    """Assemble examples, insisting on one consistent feature dimension."""
    records = list(records)
    if not records:
        raise DataError("no records to build examples from")
    vecs = [assemble_features(cfg, r.draft_hidden, r.target_hidden) for r in records]
    dims = sorted({len(v) for v in vecs})
    if len(dims) > 1:
        raise DataError(
            f"feature dimension mismatch: {dims}; "
            "records come from models with different hidden sizes")
    return Examples(X=np.stack(vecs),
                    y=np.array([1.0 if r.important else 0.0 for r in records]),
                    task_ids=np.array([r.task_id for r in records]),
                    feature_config=cfg)


@dataclass
class JudgeModel:
    """Trained importance classifier plus its operating threshold."""

    weights: np.ndarray
    bias: float
    feature_config: FeatureConfig
    C: float
    threshold: float = 0.5
    dataset_hash: str = ""
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise DataError("threshold must lie strictly inside (0, 1)")

    @property
    def feature_dim(self) -> int:
        return len(self.weights)


def predict_importance(judge: JudgeModel, features) -> float:
    """P(important | features) via the logistic link."""
    x = np.asarray(features, dtype=float)
    if x.shape != (judge.feature_dim,):
        raise DataError(f"expected {judge.feature_dim} features, got {x.shape}")
    z = float(judge.weights @ x + judge.bias)
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _loss(X, y, w, b, C):
    """(mean log-loss + C/2 * ||w||^2, logits z); stable in both tails."""
    z = X @ w + b
    loss = float((np.logaddexp(0.0, z) - y * z).sum() / len(y)) + 0.5 * C * float(w @ w)
    return loss, z


def _grad(X, y, w, z, C):
    """Gradient of `_loss` in (w, b), from the logits z it returned."""
    e = np.exp(-np.abs(z))
    diff = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - y
    return X.T @ diff / len(y) + C * w, float(diff.sum() / len(y))


def train_logreg(examples: Examples, C: float) -> JudgeModel:
    """Damped Newton's method (IRLS) with Armijo backtracking, from zeros.

    Minimizes mean log-loss + C/2 * ||w||^2 (bias unregularized), taking
    at most `NEWTON_STEPS` Newton steps and stopping once the gradient norm
    falls below 1e-8 or no step down to 1e-12 lowers the loss; on the
    491 examples mined from tasks 2000..2199 every C in `C_GRID` converges.
    The Newton system is solved by least squares, so a singular Hessian
    (duplicated feature columns at C=0) still gives a finite step.
    Trials evaluate the loss alone, the gradient only the accepted step.
    The whole procedure is deterministic, so retraining on identical
    inputs reproduces identical parameters bit for bit.  The judge
    carries the examples' feature config.
    """
    if C < 0:
        raise DataError("C must be >= 0")
    X, y = examples.X, examples.y
    if np.unique(y).size < 2:
        raise DataError("training data has a single class")
    n, d = X.shape
    A = np.column_stack([X, np.ones(n)])  # the bias is the last coordinate
    ridge = np.diag(np.append(np.full(d, C), 0.0))
    w, b = np.zeros(d), 0.0
    loss, z = _loss(X, y, w, b, C)
    for _ in range(NEWTON_STEPS):
        g = np.append(*_grad(X, y, w, z, C))  # (dL/dw, dL/db)
        if np.sqrt(g @ g) < 1e-8:  # converged
            break
        e = np.exp(-np.abs(z))  # p(1 - p) = e / (1 + e)^2 in both tails
        hessian = A.T @ (A * (e / (1.0 + e) ** 2)[:, None]) / n + ridge
        delta = np.linalg.lstsq(hessian, g, rcond=None)[0]
        slope = float(g @ delta)
        step = 1.0
        improved = False
        while step >= 1e-12:
            w2 = w - step * delta[:d]
            b2 = b - step * float(delta[d])
            loss2, z2 = _loss(X, y, w2, b2, C)
            if loss2 <= loss - 1e-4 * step * slope:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        w, b, loss, z = w2, b2, loss2, z2
    return JudgeModel(weights=w, bias=b, feature_config=examples.feature_config, C=C)


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic (ties averaged)."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC-AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    # a run of equal sorted scores at i..j shares the rank (i + j) / 2 + 1
    _, i, counts = np.unique(scores[order], return_index=True, return_counts=True,
                             equal_nan=False)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (2 * i + counts - 1) + 1.0, counts)
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def split_by_task(examples: Examples, split_seed: int) -> tuple[Examples, Examples]:
    """Deterministic 90/10 split on task ids, not individual rows."""
    ids = sorted(set(examples.task_ids.tolist()))
    if len(ids) < 2:
        raise DataError("need at least 2 tasks for a task-level split")
    random.Random(f"split:{split_seed}").shuffle(ids)
    is_val = np.isin(examples.task_ids, ids[:max(1, round(len(ids) * 0.1))])
    return examples.rows(~is_val), examples.rows(is_val)


@dataclass
class GridSearchResult:
    model: JudgeModel
    val_auc: float
    aucs: dict[float, float]
    validation: Examples


def grid_search_C(examples: Examples, split_seed: int = 0) -> GridSearchResult:
    """Pick the L2 strength by validation ROC-AUC over the fixed grid.

    Ties go to the larger C (stronger regularization).  The returned
    model is the one fit on the training split at the winning C; the
    validation split is kept for threshold calibration.
    """
    train, val = split_by_task(examples, split_seed)
    if np.unique(val.y).size < 2:
        raise DataError("validation split has a single class")
    best = None
    aucs = {}
    for C in C_GRID:
        model = train_logreg(train, C)
        auc = roc_auc(val.y, [predict_importance(model, x) for x in val.X])
        aucs[C] = auc
        # strict > keeps the earlier (larger) C on ties
        if best is None or auc > best[0]:
            best = (auc, model)
    auc, model = best
    return GridSearchResult(model=model, val_auc=auc, aucs=aucs, validation=val)


def calibrate_threshold(judge: JudgeModel, validation: Examples,
                        target_recall: float = 0.90) -> float:
    """Largest threshold keeping recall on important tokens >= target.

    A draft token is accepted iff its importance score falls below the
    threshold, so recall at threshold tau is the fraction of important
    examples scoring >= tau.
    """
    if not 0.0 < target_recall <= 1.0:
        raise DataError("target_recall must be in (0, 1]")
    scores = sorted((predict_importance(judge, x)
                     for x in validation.X[validation.y == 1.0]), reverse=True)
    if len(scores) < 10:
        raise DataError(
            f"need >= 10 important validation examples, have {len(scores)}")
    k = int(np.ceil(target_recall * len(scores)))
    tau = scores[k - 1]
    tau = min(max(tau, 1e-12), 1.0 - 1e-12)
    achieved = sum(s >= tau for s in scores) / len(scores)
    if achieved < target_recall:
        raise DataError(
            f"recall {achieved:.3f} below target {target_recall} at tau={tau}")
    return float(tau)


def save_judge(path: str, judge: JudgeModel) -> None:
    write_json(path, {
        "feature_config": {"model_source": judge.feature_config.model_source},
        "feature_dim": judge.feature_dim,
        "weights": judge.weights.tolist(),
        "bias": judge.bias,
        "C": judge.C,
        "threshold": judge.threshold,
        "dataset_hash": judge.dataset_hash,
        "seed": judge.seed,
    })


def load_judge(path: str) -> JudgeModel:
    with reading(path, "judge file"):
        with open(path) as f:
            obj = json.load(f)
        layout = obj["feature_config"]
        if not isinstance(layout, dict) or set(layout) != {"model_source"}:
            raise ValueError(f"trained for another feature layout (feature_config "
                             f"{layout!r}); retrain it with train-judge")
        cfg = FeatureConfig(**layout)
        weights = json_vector(obj["weights"], "weights")
        if len(weights) != json_int(obj["feature_dim"], "feature_dim"):
            raise DataError("weight vector does not match feature_dim")
        return JudgeModel(weights=weights, bias=json_float(obj["bias"], "bias"),
                          feature_config=cfg, C=json_float(obj["C"], "C"),
                          threshold=json_float(obj["threshold"], "threshold"),
                          dataset_hash=json_str(obj.get("dataset_hash", ""), "dataset_hash"),
                          seed=json_int(obj.get("seed", 0), "seed"))


def check_judge_compatible(judge: JudgeModel, draft, target) -> None:
    """Reject a judge whose feature layout cannot come from these models."""
    want = sum(model.hidden_dim for side, model in (("draft", draft), ("target", target))
               if judge.feature_config.reads(side))
    if judge.feature_dim != want:
        raise DataError(
            f"judge expects {judge.feature_dim} features but models produce {want}")
