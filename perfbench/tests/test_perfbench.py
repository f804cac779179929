"""Tests for the benchmark's own machinery: spans, wrapping and metric output."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
from spans import SpanRecorder, Tracer, nearest, self_times  # noqa: E402
from specjudge import bench, engine, mining  # noqa: E402
from specjudge.engine import (EngineConfig, JudgePolicy, LosslessPolicy,  # noqa: E402
                              TopKPolicy, spec_decode)
from specjudge.judge import FeatureConfig, JudgeModel  # noqa: E402
from specjudge.sampling import RandomState  # noqa: E402
from specjudge.tasks import gen_arithmetic_task  # noqa: E402


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_the_time_children_cover():
    # root [0,10] > a [1,4], b [5,9] > c [6,7]
    rec = SpanRecorder(clock=_scripted_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    root = rec.open("root")
    a = rec.open("a")
    rec.close(a)
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    rec.close(root)
    cols = rec.arrays()
    assert list(cols["parent"]) == [-1, 0, 0, 2]
    assert list(self_times(cols["start"], cols["end"], cols["parent"])) == [3, 3, 3, 1]
    is_b = cols["name"] == rec.names.index("b")
    assert list(nearest(cols["parent"], is_b)) == [-1, -1, 2, 2]


def test_spans_closed_out_of_order_are_rejected():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


@pytest.fixture(scope="module")
def models():
    return harness.build_models()


def _outputs(models):
    vocab, draft, target = models
    rng = np.random.default_rng(0)
    judge = JudgeModel(weights=rng.standard_normal(draft.hidden_dim + target.hidden_dim),
                       bias=0.0, feature_config=FeatureConfig(), C=1.0, threshold=0.5)
    out = []
    for config in (EngineConfig(window=8),
                   EngineConfig(window=64, temperature=0.2, state=RandomState(3))):
        for policy in (LosslessPolicy(), TopKPolicy(2), JudgePolicy(judge)):
            for i in range(2):
                task = gen_arithmetic_task(9000 + i, 2 + i % 2, vocab)
                result = spec_decode(task.prompt.tokens, draft, target, policy, config)
                out.append((result.response, [vars(c) for c in result.cycles]))
    for i in range(2):
        task = gen_arithmetic_task(2000 + i, 2 + i % 2, vocab)
        res = mining.mine_important(task, draft, target)
        out.append((res.final_tokens, res.rollbacks,
                    [(r.position, r.draft_token, r.important, r.draft_hidden.tobytes(),
                      r.target_hidden.tobytes()) for r in res.records]))
    return out


def test_wrapping_leaves_outputs_bit_identical(models):
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _, _ in harness.trace_points()}
    plain = _outputs(models)
    rec = SpanRecorder()
    with Tracer(rec, harness.trace_points()):
        assert engine.draft_window is not originals[(engine, "draft_window")]
        traced = _outputs(models)
    assert traced == plain
    assert {"toymodels.draft_step", "toymodels.ngram_step", "engine.verify_window",
            "sampling.gumbel_noise", "judge.predict_importance",
            "lm.forward_parallel", "sampling.rollout", "mining.record"} <= set(rec.names)
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn
    assert bench.spec_decode is engine.spec_decode


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    sizes = harness.Sizes(eval_tasks=3, setups=1)
    result = harness.run(workload, seed=0, seconds=0, trace=bool(trace), sizes=sizes)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-greedy-w8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_yardstick_bias_measures_a_memoised_draft():
    import yardstick_bias

    result = yardstick_bias.measure(rounds=2, eval_tasks=2)
    assert set(result) == {"unit_shift", "memo_speedup_unscaled", "memo_speedup_scaled"}
    assert all(np.isfinite(v) for v in result.values())
