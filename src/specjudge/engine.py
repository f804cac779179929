"""Speculative decoding loop with pluggable acceptance policies.

Each cycle drafts a window of tokens with the small model, verifies the
whole window in one target pass, and emits the accepted prefix plus the
target's own token (a correction on rejection, a bonus on full
acceptance).  The lossless policy rejects every disagreement with the
target's deterministic choice, which makes the output identical to
decoding with the target alone, greedy or seed-conditioned sampled.  The
top-K and judge policies may keep a disagreeing draft token: top-K if the
target ranks it highly enough, the judge if its predicted importance is
below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lm import DataError, LanguageModel, TokenSequence
from .judge import JudgeModel, check_judge_compatible, decode_features, predict_importance
from .sampling import RandomState, autoregress, gumbel_max, seeded_choice


@dataclass(frozen=True)
class LosslessPolicy:
    """Reject every draft token the target itself would not have chosen."""


@dataclass(frozen=True)
class TopKPolicy:
    """Keep a disagreeing draft token if it is in the target's top K."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DataError("top-K needs k >= 1")


@dataclass(eq=False)
class JudgePolicy:
    """Keep a disagreeing draft token if the judge calls it unimportant.

    The last drafted position is always handed back to the target: a
    drafting model encodes a prefix only by drafting after it, and nothing
    is drafted after the window, so judging there is disallowed by
    construction.
    """

    judge: JudgeModel
    threshold: float | None = None  # defaults to the judge's calibrated value

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DataError("judge threshold must lie strictly inside (0, 1)")

    @property
    def tau(self) -> float:
        return self.judge.threshold if self.threshold is None else self.threshold


Policy = LosslessPolicy | TopKPolicy | JudgePolicy


@dataclass(frozen=True)
class EngineConfig:
    window: int = 64
    max_tokens: int = 256
    temperature: float = 0.0
    state: RandomState | None = None

    def __post_init__(self):
        if self.window < 1:
            raise DataError("window must be >= 1")
        if self.max_tokens < 1:
            raise DataError("max_tokens must be >= 1")
        if not (np.isfinite(self.temperature) and self.temperature >= 0):
            raise DataError("temperature must be finite and >= 0")
        if self.temperature > 0 and self.state is None:
            raise DataError("sampled decoding needs a RandomState")


@dataclass
class CycleStats:
    """Bookkeeping for one draft/verify cycle."""

    drafted: int
    accepted_draft: int
    judge_overrides: int  # disagreements kept by a lossy policy
    correction_emitted: bool
    bonus_emitted: bool


@dataclass
class DraftWindow:
    """Drafted tokens plus the Gumbel rows that chose them.

    Sampled, `noise` is one (n, V) array, the kept rows of each guessed run
    joined once: row i was drawn at `context + tokens[:i]`, which drafted
    `tokens[i]`.  Greedy windows draw none (None).  The draft steps read
    logits only: the judge asks the draft for hidden rows where it scores.
    """

    tokens: list[int]
    noise: np.ndarray | None


@dataclass
class DecodeResult:
    sequence: TokenSequence
    cycles: list[CycleStats]

    @property
    def response(self) -> tuple[int, ...]:
        return self.sequence.response


def draft_window(draft: LanguageModel, context, width: int,
                 config: EngineConfig) -> DraftWindow:
    """Draft up to `width` tokens autoregressively, stopping after EOS."""
    if width < 1:
        raise DataError("window width must be >= 1")
    return DraftWindow(*autoregress(draft, context, width, config.temperature,
                                    config.state))


def _in_top_k(logits, token: int, k: int) -> bool:
    """Whether `token` is within the first k ids sorted by (-logit, id)."""
    x = logits[token]
    rank = np.count_nonzero(logits > x) + np.count_nonzero(logits[:token] == x)
    return rank < k


def verify_window(draft: LanguageModel, target: LanguageModel, context,
                  window: DraftWindow, policy: Policy, config: EngineConfig,
                  budget: int) -> tuple[list[int], CycleStats]:
    """Verify a drafted window in one target pass, left to right.

    Returns the tokens the cycle emits and its stats.  The pass has W+1
    logits rows, indexed from the window start: row i holds the target's
    logits for `context + tokens[:i]`.  Rows 0..W-1 are chosen in
    one vectorized step, sampled ones with the Gumbel rows the draft drew at
    the same prefixes.  The first upheld rejection truncates the window and
    emits the target's own choice.  A fully accepted window also emits the
    target's bonus choice from row W, unless it ends the sequence or leaves
    no room in the `budget` of tokens the response may still take.  Only
    the judge reads hidden rows: one row of each model its features read,
    per position it scores.
    """
    context = tuple(context)
    if not context:
        raise DataError("verification needs a non-empty context")
    if not window.tokens:
        raise DataError("empty draft window")
    full = context + tuple(window.tokens)
    n, c = len(window.tokens), len(context)
    logits = target.forward_logits(full, start=c - 1)
    temp = config.temperature
    if temp == 0:
        choices = logits[:n].argmax(axis=1)
    else:
        if window.noise is None or len(window.noise) != n:
            raise DataError("a sampled window needs one noise row per drafted token")
        choices = gumbel_max(logits[:n], window.noise, temp)

    overrides = 0
    for j, (drafted, choice) in enumerate(zip(window.tokens, choices.tolist())):
        if drafted == choice:
            continue
        keep = False
        if isinstance(policy, TopKPolicy):
            keep = _in_top_k(logits[j], drafted, policy.k)
        elif isinstance(policy, JudgePolicy) and j < n - 1:
            feats = decode_features(policy.judge.feature_config, draft, target,
                                    full[:c + j], drafted)
            keep = predict_importance(policy.judge, feats) < policy.tau
        if not keep:
            return window.tokens[:j] + [choice], CycleStats(
                drafted=n, accepted_draft=j, judge_overrides=overrides,
                correction_emitted=True, bonus_emitted=False)
        overrides += 1

    emitted = list(window.tokens)
    bonus = window.tokens[-1] != target.vocab.eos_id and n < budget
    if bonus:
        emitted.append(seeded_choice(logits[-1], full, config.state, temp))
    return emitted, CycleStats(drafted=n, accepted_draft=n, judge_overrides=overrides,
                               correction_emitted=False, bonus_emitted=bonus)


def spec_decode(prompt, draft: LanguageModel, target: LanguageModel,
                policy: Policy, config: EngineConfig) -> DecodeResult:
    """Full speculative decoding run for one prompt.

    Stops when an end-of-sequence token is emitted or the response
    reaches config.max_tokens.  Every cycle emits at least one token.
    """
    prompt = tuple(prompt)
    if not prompt:
        raise DataError("prompt must be non-empty")
    if draft.vocab.size != target.vocab.size or draft.vocab.eos_id != target.vocab.eos_id:
        raise DataError("draft and target vocabularies do not match")
    if isinstance(policy, JudgePolicy):
        check_judge_compatible(policy.judge, draft, target)
    eos = target.vocab.eos_id
    tokens = list(prompt)
    cycles: list[CycleStats] = []
    emitted = 0
    while emitted < config.max_tokens and (emitted == 0 or tokens[-1] != eos):
        remaining = config.max_tokens - emitted
        window = draft_window(draft, tokens, min(config.window, remaining), config)
        emit, stats = verify_window(draft, target, tokens, window, policy, config,
                                    remaining)
        tokens.extend(emit)
        emitted += len(emit)
        cycles.append(stats)
    return DecodeResult(sequence=TokenSequence(tuple(tokens), len(prompt)),
                        cycles=cycles)


def accepted_per_cycle(cycles) -> float:
    """Tokens emitted per target forward pass (one pass per cycle)."""
    cycles = list(cycles)
    if not cycles:
        raise DataError("no cycles to aggregate")
    total = sum(c.accepted_draft + int(c.correction_emitted) + int(c.bonus_emitted)
                for c in cycles)
    return total / len(cycles)
