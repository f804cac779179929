"""Automatic mining of important draft tokens.

A mismatch is a response position where the draft model's prediction
differs from the token actually produced by the target.  Mining walks the
mismatches left to right: swap the draft token in, let the target finish
the sequence, and compare final answers.  If the answer survives, the
mismatch is unimportant and the swapped variant becomes the new working
sequence; if the answer changes, the token is important and the original
stays.  Labels therefore measure each disagreement in the context of all
earlier unimportant swaps, which is exactly how a lossy decoder would
encounter it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .lm import DataError, json_int
from .sampling import RandomState, positionwise_choices, rollout
from .tasks import Task, answers_equivalent, extract_answer


class MiningError(DataError):
    pass


class TaskSkippedError(MiningError):
    """The reference generation produced no parseable answer."""


class MiningBudgetError(MiningError):
    """Rollback cap exceeded; partial records attached."""

    def __init__(self, message: str, records: list):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class MiningConfig:
    """Mining mode and safety limits.

    Temperature 0 mines greedy generations; otherwise generation and
    draft predictions are seed-conditioned samples under `state`.
    max_rollbacks defaults to 4x the reference response length.
    """

    temperature: float = 0.0
    state: RandomState | None = None
    max_rollbacks: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature >= 0):
            raise DataError("temperature must be finite and >= 0")
        if self.temperature > 0 and self.state is None:
            raise DataError("sampled mining needs a RandomState")
        if self.max_rollbacks is not None and self.max_rollbacks < 0:
            raise DataError("max_rollbacks must be >= 0")


@dataclass
class MismatchRecord:
    """One labeled draft/target disagreement.

    `position` is the absolute index into the prompt+response stream.
    `draft_hidden` and `target_hidden` are each model's hidden state at
    the draft token: the prefix before `position` with the draft token
    appended.
    """

    task_id: str
    position: int
    target_token: int
    draft_token: int
    important: bool
    context_hash: str
    draft_hidden: np.ndarray
    target_hidden: np.ndarray

    def __post_init__(self):
        if self.target_token == self.draft_token:
            raise DataError("a mismatch record needs differing tokens")


@dataclass
class MiningResult:
    task_id: str
    records: list[MismatchRecord]
    reference_tokens: tuple[int, ...]
    final_tokens: tuple[int, ...]
    reference_answer: int
    prompt_len: int
    rollbacks: int = 0


def context_fingerprint(tokens) -> str:
    return hashlib.sha256(json.dumps(list(tokens)).encode()).hexdigest()[:16]


def _point_hidden(model, prefix) -> np.ndarray:
    _, hidden = model.next_logits_hidden(tuple(prefix))
    return hidden


def _record(task_id, tokens, t, draft_token, important, draft, target) -> MismatchRecord:
    prev = tokens[:t]
    branch = prev + (draft_token,)
    return MismatchRecord(
        task_id=task_id, position=t, target_token=tokens[t], draft_token=draft_token,
        important=important, context_hash=context_fingerprint(prev),
        draft_hidden=_point_hidden(draft, branch),
        target_hidden=_point_hidden(target, branch),
    )


def _generate(target, prefix, budget, cfg, target_generate):
    if budget <= 0:
        return []
    if target_generate is not None:
        return list(target_generate(tuple(prefix), budget))
    return rollout(target, prefix, budget, cfg.temperature, cfg.state)


def _reference(task: Task, draft, target, cfg: MiningConfig, target_generate):
    """Reference tokens, their answer, and the draft's choice at each position."""
    x = task.prompt.tokens
    y = tuple(_generate(target, x, task.max_response_len, cfg, target_generate))
    if not y:
        raise TaskSkippedError(f"{task.task_id}: empty reference generation")
    alpha = extract_answer(y, target.vocab)
    if alpha is None:
        raise TaskSkippedError(f"{task.task_id}: reference answer not parseable")
    # Prompt positions are never mined; their choices are left undefined.
    choices = [-1] * len(x) + positionwise_choices(draft, x + y, cfg.temperature,
                                                   cfg.state, start=len(x))
    return x + y, alpha, choices


def _label(task: Task, tokens, t, draft_token, alpha, draft, target, cfg,
           target_generate):
    """Swap `draft_token` in at position t, let the target finish, compare answers.

    Returns the finished candidate sequence and the labeled record.
    """
    prompt_len = len(task.prompt.tokens)
    branch = tokens[:t] + (draft_token,)
    candidate = branch
    if draft_token != target.vocab.eos_id:
        budget = task.max_response_len - (t - prompt_len + 1)
        candidate += tuple(_generate(target, branch, budget, cfg, target_generate))
    alpha_hat = extract_answer(candidate[prompt_len:], target.vocab)
    important = not answers_equivalent(alpha_hat, alpha)
    return candidate, _record(task.task_id, tokens, t, draft_token, important,
                              draft, target)


def mine_important(task: Task, draft, target, cfg: MiningConfig = MiningConfig(),
                   target_generate=None) -> MiningResult:
    """Label every mismatch by answer preservation, adopting harmless swaps.

    `target_generate`, when given, replaces local target generation (for
    remote backends); the target model is still used for hidden states.
    """
    reference, alpha, choices = _reference(task, draft, target, cfg, target_generate)
    tokens = reference
    prompt_len = len(task.prompt.tokens)
    cap = (cfg.max_rollbacks if cfg.max_rollbacks is not None
           else 4 * (len(reference) - prompt_len))
    pending = [p for p in range(prompt_len, len(tokens)) if choices[p] != tokens[p]]
    records: list[MismatchRecord] = []
    rollbacks = 0
    while pending:
        rollbacks += 1
        if rollbacks > cap:
            raise MiningBudgetError(
                f"{task.task_id}: rollback cap {cap} exceeded", records)
        t = pending[0]
        candidate, record = _label(task, tokens, t, choices[t], alpha, draft, target,
                                   cfg, target_generate)
        records.append(record)
        if record.important:
            pending = [p for p in pending if p > t]
        else:
            # Choices at positions <= t read only tokens[:t], which the swap
            # kept, so only the suffix is recomputed.
            tokens = candidate
            if t + 1 < len(tokens):
                choices[t + 1:] = positionwise_choices(draft, tokens, cfg.temperature,
                                                       cfg.state, start=t + 1)
            pending = [p for p in range(t + 1, len(tokens)) if choices[p] != tokens[p]]
    return MiningResult(task_id=task.task_id, records=records,
                        reference_tokens=reference, final_tokens=tokens,
                        reference_answer=alpha, prompt_len=prompt_len,
                        rollbacks=rollbacks)


def mine_naive(task: Task, draft, target, cfg: MiningConfig = MiningConfig(),
               target_generate=None) -> MiningResult:
    """Baseline labeling: test each mismatch in isolation, never adopting."""
    tokens, alpha, choices = _reference(task, draft, target, cfg, target_generate)
    prompt_len = len(task.prompt.tokens)
    records = [_label(task, tokens, t, choices[t], alpha, draft, target, cfg,
                      target_generate)[1]
               for t in range(prompt_len, len(tokens)) if choices[t] != tokens[t]]
    return MiningResult(task_id=task.task_id, records=records,
                        reference_tokens=tokens, final_tokens=tokens,
                        reference_answer=alpha, prompt_len=prompt_len)


_HIDDEN_FIELDS = ("draft_hidden", "target_hidden")


def export_dataset(path: str, records) -> None:
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps({
                "task_id": r.task_id, "position": r.position,
                "target_token": r.target_token, "draft_token": r.draft_token,
                "important": r.important, "context_hash": r.context_hash,
                **{key: getattr(r, key).tolist() for key in _HIDDEN_FIELDS},
            }) + "\n")


def _json_vector(row: dict, key: str) -> np.ndarray:
    vec = np.array(row[key], dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"{key} must be a list of numbers")
    return vec


def load_dataset(path: str) -> list[MismatchRecord]:
    records = []
    try:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                row = json.loads(line)
                if not isinstance(row["important"], bool):
                    raise ValueError(f"important must be true or false, "
                                     f"got {row['important']!r}")
                records.append(MismatchRecord(
                    task_id=row["task_id"], position=json_int(row["position"], "position"),
                    target_token=json_int(row["target_token"], "target_token"),
                    draft_token=json_int(row["draft_token"], "draft_token"),
                    important=row["important"],
                    context_hash=row["context_hash"],
                    **{key: _json_vector(row, key) for key in _HIDDEN_FIELDS}))
    except OSError as e:
        raise DataError(f"cannot read dataset file {path}: {e}") from e
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise DataError(f"bad dataset file {path}: {e}") from e
    if not records:
        raise DataError(f"no records in {path}")
    return records


def dataset_fingerprint(records) -> str:
    """Stable hash of a record list, for judge provenance metadata."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r.task_id, r.position, r.target_token, r.draft_token,
                             r.important]).encode())
    return h.hexdigest()[:16]
