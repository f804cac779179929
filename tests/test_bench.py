"""Benchmark harness: aggregation, report formats, failure tolerance."""

import json
import re
from dataclasses import replace

import pytest

from specjudge.bench import (REPORT_COLUMNS, BenchRow, emit_report, policy_label,
                             run_benchmark, run_policy)
from specjudge.engine import (EngineConfig, JudgePolicy, LosslessPolicy, TopKPolicy,
                              accepted_per_cycle, spec_decode)
from specjudge.lm import DataError, LanguageModel, TokenSequence
from specjudge.sampling import rollout
from specjudge.tasks import Task, answers_equivalent, extract_answer


@pytest.fixture(scope="module")
def bench_config():
    return EngineConfig(window=8, max_tokens=64)


def test_lossless_row_matches_direct_greedy_decoding(pipeline, eval_tasks,
                                                     bench_config):
    tasks = eval_tasks[:10]
    row = run_policy(tasks, pipeline.draft, pipeline.target, LosslessPolicy(),
                     bench_config, seed=7)
    correct = 0
    tokens = 0
    for task in tasks:
        budget = min(64, task.max_response_len)
        response = rollout(pipeline.target, task.prompt.tokens, budget)
        answer = extract_answer(response, pipeline.vocab)
        correct += answers_equivalent(answer, task.oracle_answer)
        tokens += len(response)
    assert row.policy == "lossless" and row.param == ""
    assert row.accuracy == correct / len(tasks)
    assert row.tokens == tokens
    assert row.seed == 7 and row.failures == 0


def test_topk_one_row_equals_lossless_row(pipeline, eval_tasks, bench_config):
    tasks = eval_tasks[:10]
    lossless = run_policy(tasks, pipeline.draft, pipeline.target,
                          LosslessPolicy(), bench_config)
    topk = run_policy(tasks, pipeline.draft, pipeline.target, TopKPolicy(k=1),
                      bench_config)
    assert (topk.accuracy, topk.accepted_per_cycle, topk.cycles, topk.tokens) \
        == (lossless.accuracy, lossless.accepted_per_cycle, lossless.cycles,
            lossless.tokens)


def test_threshold_sweep_trades_accuracy_for_speed(pipeline, judged, eval_tasks,
                                                   bench_config):
    policies = [JudgePolicy(judged.judge, threshold=t) for t in (0.9, 1e-9, 0.3)]
    rows = run_benchmark(eval_tasks, pipeline.draft, pipeline.target, policies,
                         bench_config)
    assert [float(r.param) for r in rows] == [1e-9, 0.3, 0.9]
    for tighter, looser in zip(rows[:-1], rows[1:]):
        assert looser.accuracy <= tighter.accuracy
        assert looser.accepted_per_cycle >= tighter.accepted_per_cycle
    assert rows[-1].accepted_per_cycle > rows[0].accepted_per_cycle


def test_failed_task_is_counted_and_reported(pipeline, eval_tasks, bench_config,
                                             capsys):
    bad = Task(task_id="broken", prompt=TokenSequence((), 0),
               oracle_answer=None, max_response_len=8, seed=0)
    tasks = list(eval_tasks[:4]) + [bad]
    row = run_policy(tasks, pipeline.draft, pipeline.target, LosslessPolicy(),
                     bench_config)
    assert row.failures == 1
    assert row.accuracy == 4 / 5  # the broken task counts as incorrect
    err = capsys.readouterr().err
    assert "decode failed" in err and "broken" in err


def test_non_data_error_ends_the_run(pipeline, eval_tasks, bench_config):
    class Broken(type(pipeline.target)):
        def _logit_rows(self, *args):
            raise RuntimeError("backend bug")

        _top_choices = _logit_rows  # greedy verification reads no logits rows

    broken = Broken(pipeline.vocab, order=2, smoothing=1.0)
    with pytest.raises(RuntimeError, match="backend bug"):
        run_policy(eval_tasks[:2], pipeline.draft, broken, LosslessPolicy(),
                   bench_config)


def test_run_benchmark_sorts_rows(pipeline, eval_tasks, bench_config):
    policies = [TopKPolicy(k=4), LosslessPolicy(), TopKPolicy(k=1)]
    rows = run_benchmark(eval_tasks[:4], pipeline.draft, pipeline.target,
                         policies, bench_config)
    assert [(r.policy, r.param) for r in rows] \
        == [("lossless", ""), ("topk", "1"), ("topk", "4")]


class Untouchable(LanguageModel):
    """A model whose every step fails the test: nothing may be drafted or verified."""

    hidden_dim = 1

    def __init__(self, vocab):
        self.vocab = vocab

    def _called(self, *args, **kwargs):
        raise AssertionError("a model was called")

    next_logits_hidden = next_logits = sample = _logit_rows = forward_parallel = _called
    top_choices = _top_choices = _called


@pytest.mark.parametrize("policy", ["judge", None, LosslessPolicy],
                         ids=["name", "none", "class"])
def test_unknown_policy_is_refused_before_any_model_call(pipeline, eval_tasks,
                                                         bench_config, policy):
    model = Untouchable(pipeline.vocab)
    message = f"^unknown policy {re.escape(repr(policy))}$"
    with pytest.raises(DataError, match=message):
        spec_decode(eval_tasks[0].prompt.tokens, model, model, policy, bench_config)
    with pytest.raises(DataError, match=message):
        run_policy(eval_tasks[:3], model, model, policy, bench_config)


def test_policy_label_rejects_unknown_policies():
    assert policy_label(LosslessPolicy()) == ("lossless", "")
    assert policy_label(TopKPolicy(k=8)) == ("topk", "8")
    with pytest.raises(DataError):
        policy_label("fastest")


def test_empty_task_list_is_rejected(pipeline, bench_config):
    with pytest.raises(DataError):
        run_policy([], pipeline.draft, pipeline.target, LosslessPolicy(),
                   bench_config)


def sample_rows():
    return [
        BenchRow(policy="lossless", param="", accuracy=1.0,
                 accepted_per_cycle=5.072463768115942, cycles=69, tokens=350,
                 seed=0, drafted=412),
        BenchRow(policy="judge", param="0.3", accuracy=0.975,
                 accepted_per_cycle=5.5, cycles=64, tokens=352, seed=0),
    ]


def test_csv_report_round_trips_bytes_exactly():
    assert emit_report(sample_rows(), fmt="csv") == (
        "policy,param,accuracy,accepted_per_cycle,cycles,tokens,seed\n"
        "lossless,,1.0,5.072463768115942,69,350,0\n"
        "judge,0.3,0.975,5.5,64,352,0\n")


def test_jsonl_report_carries_every_column():
    rows = sample_rows()
    lines = emit_report(rows, fmt="jsonl").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == set(REPORT_COLUMNS) | {"failures", "drafted"}
    assert first["accepted_per_cycle"] == rows[0].accepted_per_cycle
    assert first["drafted"] == rows[0].drafted


def direct_decode(task, pipeline, policy, config):
    """`spec_decode` of one task at the per-task budget `run_policy` decodes it with."""
    config = replace(config, max_tokens=min(config.max_tokens, task.max_response_len))
    return spec_decode(task.prompt.tokens, pipeline.draft, pipeline.target, policy, config)


def test_drafted_sums_the_cycle_stats(pipeline, eval_tasks, bench_config):
    tasks = eval_tasks[:6]
    for policy in (LosslessPolicy(), TopKPolicy(k=2)):
        row = run_policy(tasks, pipeline.draft, pipeline.target, policy,
                         bench_config)
        cycles = [c for task in tasks
                  for c in direct_decode(task, pipeline, policy, bench_config).cycles]
        assert row.cycles == len(cycles)
        assert row.drafted == sum(c.drafted for c in cycles) > row.cycles


@pytest.mark.parametrize("make_policy", [
    lambda judge: LosslessPolicy(), lambda judge: TopKPolicy(k=2), JudgePolicy],
    ids=["lossless", "topk2", "judge"])
def test_outcomes_are_the_direct_decodes_in_task_order(pipeline, judged, eval_tasks,
                                                       bench_config, make_policy, capsys):
    policy = make_policy(judged.judge)
    bad = Task(task_id="broken", prompt=TokenSequence((), 0),
               oracle_answer=None, max_response_len=8, seed=0)
    tasks = list(eval_tasks) + [bad]
    row = run_policy(tasks, pipeline.draft, pipeline.target, policy, bench_config)
    assert [o.task_id for o in row.outcomes] == [t.task_id for t in tasks]
    cycles = []
    for task, outcome in zip(eval_tasks, row.outcomes):
        result = direct_decode(task, pipeline, policy, bench_config)
        answer = extract_answer(result.response, pipeline.vocab)
        assert (outcome.response, outcome.answer, outcome.cycles, outcome.drafted,
                outcome.error) == (result.response, answer, len(result.cycles),
                                   sum(c.drafted for c in result.cycles), None)
        assert outcome.correct == answers_equivalent(answer, task.oracle_answer)
        cycles += result.cycles
    assert row.accepted_per_cycle == accepted_per_cycle(cycles)
    with pytest.raises(DataError) as raised:
        direct_decode(bad, pipeline, policy, bench_config)
    broken = row.outcomes[-1]
    assert broken.response == () and broken.correct is False
    assert broken.error == str(raised.value)
    assert row.failures == 1
    assert f"decode failed, task broken: {raised.value}" in capsys.readouterr().err


def test_failures_reach_jsonl_and_leave_the_csv_unchanged():
    rows = sample_rows()
    failed = [replace(rows[0], failures=3), rows[1]]
    assert [json.loads(line)["failures"]
            for line in emit_report(failed, fmt="jsonl").splitlines()] == [3, 0]
    assert emit_report(failed, fmt="csv") == emit_report(rows, fmt="csv")


def test_report_format_validation():
    with pytest.raises(DataError):
        emit_report(sample_rows(), fmt="xml")