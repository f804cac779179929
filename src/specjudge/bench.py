"""Benchmark harness: accuracy versus tokens accepted per target pass.

Each row decodes a task set under one policy and reports final-answer
accuracy against the oracle plus the mean number of tokens emitted per
target forward pass.  Rows over several judge thresholds or top-K values
map the accuracy/speed frontier.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, replace

from .engine import (DecodeResult, EngineConfig, JudgePolicy, LosslessPolicy,
                     TopKPolicy, accepted_per_cycle, spec_decode)
from .lm import DataError
from .tasks import Task, answers_equivalent, extract_answer

REPORT_COLUMNS = ("policy", "param", "accuracy", "accepted_per_cycle",
                  "cycles", "tokens", "seed")
# JSON lines also carry the failure and drafted-token counts; the CSV keeps
# its seven columns.
JSONL_COLUMNS = REPORT_COLUMNS + ("failures", "drafted")


@dataclass(frozen=True)
class BenchRow:
    policy: str
    param: str
    accuracy: float
    accepted_per_cycle: float
    cycles: int
    tokens: int
    seed: int
    failures: int = 0  # tasks whose decode raised; counted as incorrect
    drafted: int = 0  # draft tokens proposed over the decoded tasks


def policy_label(policy) -> tuple[str, str]:
    if isinstance(policy, LosslessPolicy):
        return "lossless", ""
    if isinstance(policy, TopKPolicy):
        return "topk", str(policy.k)
    if isinstance(policy, JudgePolicy):
        return "judge", repr(policy.tau)
    raise DataError(f"unknown policy {policy!r}")


def decode_task(task: Task, draft, target, policy,
                config: EngineConfig) -> tuple[DecodeResult, int | None, bool]:
    """Decode one task and grade its final answer against the oracle.

    The response budget is the smaller of `config.max_tokens` and the
    task's own limit.  Returns the decode result, the extracted answer and
    whether it matches the oracle; a bad task raises DataError.
    """
    config = replace(config, max_tokens=min(config.max_tokens, task.max_response_len))
    result = spec_decode(task.prompt.tokens, draft, target, policy, config)
    answer = extract_answer(result.response, target.vocab)
    return result, answer, answers_equivalent(answer, task.oracle_answer)


def run_policy(tasks, draft, target, policy, config: EngineConfig,
               seed: int = 0) -> BenchRow:
    """Decode every task under one policy and aggregate a report row.

    A task whose decode raises DataError is reported on stderr, counted as
    incorrect, and tallied in the row's failure count; the run continues.
    Any other exception ends the run: a bug, or a too small temperature.
    """
    tasks = list(tasks)
    if not tasks:
        raise DataError("no tasks to benchmark")
    cycles = []
    correct = 0
    tokens = 0
    failures = 0
    for task in tasks:
        try:
            result, _, ok = decode_task(task, draft, target, policy, config)
        except DataError as e:
            failures += 1
            print(f"decode failed, task {task.task_id}: {e}", file=sys.stderr)
            continue
        correct += int(ok)
        cycles.extend(result.cycles)
        tokens += len(result.response)
    name, param = policy_label(policy)
    apc = accepted_per_cycle(cycles) if cycles else 0.0
    return BenchRow(policy=name, param=param, accuracy=correct / len(tasks),
                    accepted_per_cycle=apc, cycles=len(cycles), tokens=tokens,
                    seed=seed, failures=failures,
                    drafted=sum(c.drafted for c in cycles))


def _row_order(row: BenchRow):
    return (row.policy, float(row.param) if row.param else -1.0)


def run_benchmark(tasks, draft, target, policies, config: EngineConfig,
                  seed: int = 0) -> list[BenchRow]:
    """One report row per policy, sorted by policy name then parameter."""
    rows = [run_policy(tasks, draft, target, p, config, seed=seed)
            for p in policies]
    return sorted(rows, key=_row_order)


def emit_report(rows, fmt: str = "csv") -> str:
    """Render rows as CSV (default) or JSON lines; byte-stable per input."""
    if fmt == "jsonl":
        return "".join(json.dumps({c: getattr(r, c) for c in JSONL_COLUMNS}) + "\n"
                       for r in rows)
    if fmt != "csv":
        raise DataError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in rows:
        writer.writerow([r.policy, r.param, repr(r.accuracy),
                         repr(r.accepted_per_cycle), r.cycles, r.tokens, r.seed])
    return buf.getvalue()
