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

from .judge import FeatureConfig, hidden_rows
from .lm import (DataError, json_int, json_lines, json_str, json_vector, reading,
                 write_json_lines)
from .sampling import RandomState, check_sampling, positionwise_choices, rollout
from .tasks import Task, answers_equivalent, extract_answer


class TaskSkippedError(DataError):
    """The reference generation produced no parseable answer."""


class MiningBudgetError(DataError):
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
        check_sampling(self.temperature, self.state)
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
    text = "[" + ", ".join(map(str, tokens)) + "]"  # json.dumps(list(tokens)) for ints
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record(task_id, tokens, t, draft_token, important, draft, target) -> MismatchRecord:
    prev = tokens[:t]
    draft_hidden, target_hidden = hidden_rows(FeatureConfig(), draft, target,
                                              prev + (draft_token,))
    return MismatchRecord(
        task_id=task_id, position=t, target_token=tokens[t], draft_token=draft_token,
        important=important, context_hash=context_fingerprint(prev),
        draft_hidden=draft_hidden, target_hidden=target_hidden)


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


def _label(task: Task, tokens, t, draft_token, alpha, target, cfg, target_generate):
    """Swap `draft_token` in at position t, let the target finish, compare answers.

    Returns the finished candidate sequence and whether the answer changed.
    """
    prompt_len = len(task.prompt.tokens)
    branch = tokens[:t] + (draft_token,)
    candidate = branch
    if draft_token != target.vocab.eos_id:
        budget = task.max_response_len - (t - prompt_len + 1)
        candidate += tuple(_generate(target, branch, budget, cfg, target_generate))
    alpha_hat = extract_answer(candidate[prompt_len:], target.vocab)
    return candidate, not answers_equivalent(alpha_hat, alpha)


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
    while pending:  # each pass is one rollback and appends one record
        if len(records) == cap:
            raise MiningBudgetError(
                f"{task.task_id}: rollback cap {cap} exceeded", records)
        t, before = pending[0], tokens
        candidate, important = _label(task, tokens, t, choices[t], alpha, target, cfg,
                                      target_generate)
        if important:
            pending = [p for p in pending if p > t]
        else:
            # Choices at positions <= t read only tokens[:t], which the swap
            # kept, so only the suffix is recomputed.
            tokens = candidate
            if t + 1 < len(tokens):
                choices[t + 1:] = positionwise_choices(draft, tokens, cfg.temperature,
                                                       cfg.state, start=t + 1)
            pending = [p for p in range(t + 1, len(tokens)) if choices[p] != tokens[p]]
        # Recorded after the suffix pass, whose first draft row is this record's.
        records.append(_record(task.task_id, before, t, choices[t], important, draft, target))
    return MiningResult(task_id=task.task_id, records=records,
                        reference_tokens=reference, final_tokens=tokens,
                        reference_answer=alpha, prompt_len=prompt_len,
                        rollbacks=len(records))


def mine_naive(task: Task, draft, target, cfg: MiningConfig = MiningConfig(),
               target_generate=None) -> MiningResult:
    """Baseline labeling: test each mismatch in isolation, never adopting."""
    tokens, alpha, choices = _reference(task, draft, target, cfg, target_generate)
    prompt_len = len(task.prompt.tokens)
    records = [_record(task.task_id, tokens, t, choices[t],
                       _label(task, tokens, t, choices[t], alpha, target, cfg,
                              target_generate)[1], draft, target)
               for t in range(prompt_len, len(tokens)) if choices[t] != tokens[t]]
    return MiningResult(task_id=task.task_id, records=records,
                        reference_tokens=tokens, final_tokens=tokens,
                        reference_answer=alpha, prompt_len=prompt_len)


_HIDDEN_FIELDS = ("draft_hidden", "target_hidden")


def export_dataset(path: str, records) -> None:
    write_json_lines(path, ({
        "task_id": r.task_id, "position": r.position,
        "target_token": r.target_token, "draft_token": r.draft_token,
        "important": r.important, "context_hash": r.context_hash,
        **{key: getattr(r, key).tolist() for key in _HIDDEN_FIELDS},
    } for r in records))


def load_dataset(path: str) -> list[MismatchRecord]:
    records = []
    with reading(path, "dataset file"):
        for row in json_lines(path):
            if not isinstance(row["important"], bool):
                raise ValueError(f"important must be true or false, "
                                 f"got {row['important']!r}")
            records.append(MismatchRecord(
                task_id=json_str(row["task_id"], "task_id"),
                position=json_int(row["position"], "position"),
                target_token=json_int(row["target_token"], "target_token"),
                draft_token=json_int(row["draft_token"], "draft_token"),
                important=row["important"],
                context_hash=json_str(row["context_hash"], "context_hash"),
                **{key: json_vector(row[key], key) for key in _HIDDEN_FIELDS}))
    return records


def dataset_fingerprint(records) -> str:
    """Stable hash of a record list, for judge provenance metadata."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps([r.task_id, r.position, r.target_token, r.draft_token,
                             r.important]).encode())
    return h.hexdigest()[:16]
