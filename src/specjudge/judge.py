"""Token-importance classifier: logistic regression on hidden states.

Features are the hidden states at the draft token (the prefix with the
draft token appended): from mined mismatch records in training, and at
decode time from one hidden row per model read.  The one choice is
which model's state to use: the draft's, the target's, or both
concatenated.  Training is full-batch gradient descent with a
backtracking line search whose trials evaluate the loss alone; the
gradient is taken once per iteration, at the accepted step.  The L2
strength is grid-searched on a held-out task split, and the operating
threshold is calibrated to a target recall on important tokens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from .lm import DataError, json_int

C_GRID = tuple(10.0 ** -i for i in range(0, 8))  # 1e0 .. 1e-7

MODEL_SOURCES = ("draft", "target", "both")


class TrainingError(DataError):
    pass


class CalibrationError(DataError):
    pass


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
    vec = np.concatenate(parts).astype(float)
    if not np.all(np.isfinite(vec)):
        raise DataError("non-finite feature vector")
    return vec


def decode_features(cfg: FeatureConfig, draft, target, prefix,
                    draft_token: int) -> np.ndarray:
    """Decode-time features of drafting `draft_token` after `prefix`.

    Each model `cfg` reads evaluates one row, `prefix` plus the draft
    token.  Mining records the same rows, so these equal the features
    `build_examples` makes for the mismatch.
    """
    tokens = tuple(prefix) + (draft_token,)

    def row(model):
        return model.forward_parallel(tokens, start=len(tokens) - 1).hidden[0]
    return assemble_features(cfg, row(draft) if cfg.reads("draft") else None,
                             row(target) if cfg.reads("target") else None)


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


def train_logreg(examples: Examples, C: float, max_iters: int = 500) -> JudgeModel:
    """Full-batch gradient descent with Armijo backtracking, from zeros.

    Takes at most `max_iters` descent steps toward the minimum of mean
    log-loss + C/2 * ||w||^2 (bias unregularized), stopping early once
    the gradient norm falls below 1e-8 or no step down to 1e-12 lowers
    the loss; on the fixture's examples every C in `C_GRID` stops at the
    500-step cap, short of the minimum.
    Trials evaluate the loss alone, the gradient only the accepted step.
    The whole procedure is deterministic, so retraining on identical
    inputs reproduces identical parameters bit for bit.  The judge
    carries the examples' feature config.
    """
    if C < 0:
        raise TrainingError("C must be >= 0")
    if max_iters < 0:
        raise TrainingError("max_iters must be >= 0")
    X, y = examples.X, examples.y
    if np.unique(y).size < 2:
        raise TrainingError("training data has a single class")
    w = np.zeros(X.shape[1])
    b = 0.0
    step = 1.0
    loss, z = _loss(X, y, w, b, C)
    for _ in range(max_iters):
        gw, gb = _grad(X, y, w, z, C)
        gnorm2 = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm2) < 1e-8:  # converged
            break
        step = min(step * 2.0, 1e6)  # optimistic growth, then backtrack
        improved = False
        while step >= 1e-12:
            w2 = w - step * gw
            b2 = b - step * gb
            loss2, z2 = _loss(X, y, w2, b2, C)
            if loss2 <= loss - 1e-4 * step * gnorm2:
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
        raise TrainingError("need at least 2 tasks for a task-level split")
    random.Random(f"split:{split_seed}").shuffle(ids)
    is_val = np.isin(examples.task_ids, ids[:max(1, round(len(ids) * 0.1))])
    return examples.rows(~is_val), examples.rows(is_val)


@dataclass
class GridSearchResult:
    model: JudgeModel
    val_auc: float
    aucs: dict[float, float]
    validation: Examples


def grid_search_C(examples: Examples, split_seed: int = 0,
                  max_iters: int = 500) -> GridSearchResult:
    """Pick the L2 strength by validation ROC-AUC over the fixed grid.

    Ties go to the larger C (stronger regularization).  The returned
    model is the one fit on the training split at the winning C; the
    validation split is kept for threshold calibration.
    """
    train, val = split_by_task(examples, split_seed)
    if np.unique(val.y).size < 2:
        raise TrainingError("validation split has a single class")
    best = None
    aucs = {}
    for C in C_GRID:
        model = train_logreg(train, C, max_iters=max_iters)
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
        raise CalibrationError("target_recall must be in (0, 1]")
    scores = sorted((predict_importance(judge, x)
                     for x in validation.X[validation.y == 1.0]), reverse=True)
    if len(scores) < 10:
        raise CalibrationError(
            f"need >= 10 important validation examples, have {len(scores)}")
    k = int(np.ceil(target_recall * len(scores)))
    tau = scores[k - 1]
    tau = min(max(tau, 1e-12), 1.0 - 1e-12)
    achieved = sum(s >= tau for s in scores) / len(scores)
    if achieved < target_recall:
        raise CalibrationError(
            f"recall {achieved:.3f} below target {target_recall} at tau={tau}")
    return float(tau)


def save_judge(path: str, judge: JudgeModel) -> None:
    with open(path, "w") as f:
        json.dump({
            "feature_config": {"model_source": judge.feature_config.model_source},
            "feature_dim": judge.feature_dim,
            "weights": judge.weights.tolist(),
            "bias": judge.bias,
            "C": judge.C,
            "threshold": judge.threshold,
            "dataset_hash": judge.dataset_hash,
            "seed": judge.seed,
        }, f, indent=1)
        f.write("\n")


def load_judge(path: str) -> JudgeModel:
    try:
        with open(path) as f:
            obj = json.load(f)
        cfg = FeatureConfig(**obj["feature_config"])
        weights = np.array(obj["weights"], dtype=float)
        bias = float(obj["bias"])
        if weights.ndim != 1 or not np.all(np.isfinite(weights)) or not np.isfinite(bias):
            raise DataError("judge weights must be a finite vector and its bias finite")
        if len(weights) != json_int(obj["feature_dim"], "feature_dim"):
            raise DataError("weight vector does not match feature_dim")
        return JudgeModel(weights=weights, bias=bias,
                          feature_config=cfg, C=float(obj["C"]),
                          threshold=float(obj["threshold"]),
                          dataset_hash=obj.get("dataset_hash", ""),
                          seed=json_int(obj.get("seed", 0), "seed"))
    except OSError as e:
        raise DataError(f"cannot read judge file {path}: {e}") from e
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise DataError(f"bad judge file {path}: {e}") from e


def expected_feature_dim(cfg: FeatureConfig, draft, target) -> int:
    return sum(model.hidden_dim for side, model in (("draft", draft), ("target", target))
               if cfg.reads(side))


def check_judge_compatible(judge: JudgeModel, draft, target) -> None:
    """Reject a judge whose feature layout cannot come from these models."""
    want = expected_feature_dim(judge.feature_config, draft, target)
    if judge.feature_dim != want:
        raise DataError(
            f"judge expects {judge.feature_dim} features but models produce {want}")
