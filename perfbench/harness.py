"""specjudge benchmark: workloads, output checks and metrics.

Every workload is a closed loop in one process: a task starts only after
the previous one has finished.  A run sets up `Sizes.setups` times (build
the models, mine the training tasks, train and calibrate the judge), then
decodes the held-out tasks in whole passes under the lossless, top-K and
judge policies until `--seconds` have gone by.  Whole passes keep the work
per pass identical on every commit, so a faster commit runs more passes
of the same tasks, not different tasks.

Every timing is scaled to the machine's nominal speed with the reference
units of `yardstick`, run in blocks before and after each short timed
stretch; no unit's own time is counted in any metric.

With `--trace 1` the run sets up once untraced and once traced, then
alternates untraced and traced passes.  It reports per-layer numbers for
one set-up plus one pass, the tracing overhead, and checks that traced
and untraced outputs hash the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specjudge import bench, engine, judge as judge_mod, lm, mining, sampling, toymodels
from specjudge.engine import EngineConfig, JudgePolicy, LosslessPolicy, TopKPolicy
from specjudge.judge import FeatureConfig, build_examples
from specjudge.mining import TaskSkippedError, dataset_fingerprint
from specjudge.sampling import RandomState, rollout
from specjudge.tasks import (answers_equivalent, build_vocab, extract_answer,
                             gen_arithmetic_task, gen_corpus)
from specjudge.toymodels import PerturbSpec, make_draft, train_ngram

from spans import SpanRecorder, Tracer, nearest, self_times
from yardstick import REFERENCE_SPAN, Yardstick, speed_factor

OUT_DIR = Path(__file__).resolve().parent / "out"
clock = time.perf_counter

# The judge trains on tasks TRAIN_SEED0.. as the test fixture does, for
# every seed: calibration on a 20-task validation split is fragile, and a
# moved training window changed the sampled judge accuracy from 0.68 to
# 0.90.  Held-out tasks start at EVAL_SEED0 plus the benchmark's --seed.  A
# task's step count follows from its own seed, so nearby seeds share most
# held-out tasks: the seed moves a window over one pool.  Sampling uses one
# fixed RandomState for the same reason; with RandomState(seed) the sampled
# p90 latency spread over seeds was 0.22 of its median.
TRAIN_SEED0 = 2000
EVAL_SEED0 = 9000
SAMPLING_STATE = RandomState(0)
TOPK = 2
TARGET_RECALL = 0.90
# Fewer training tasks leave too few important validation examples for
# calibration at the target recall.
TRAIN_TASKS = 200
# Mining and decoding are timed in chunks of tasks, each between two
# blocks of reference units, and training one fit at a time.  The
# machine's speed changes within a tenth of a second, so the chunks are
# short.
MINE_CHUNK = 2
DECODE_CHUNK = 4
# Reference units in each block around a timed stretch.  A block's first
# unit runs right after the package's code and only brings the unit's
# own data back into the caches; it is not counted.
BLOCK_UNITS = 2
TRAIN_REPEATS = 3
# Draft/target cost ratio for the report-only modelled speedup: a draft
# step that costs a twentieth of a target step.  The toy draft costs more
# than its target, so the measured ratio is reported next to it.
DECLARED_C = 0.05

# name -> (window, temperature, held-out tasks).  See BENCHMARK.json for
# why each exists.  Sampled decoding at W=64 varies more from task to task
# (one early rejection wastes a whole window), so it averages over more.
WORKLOADS = {
    "decode-greedy-w8": (8, 0.0, 80),
    "decode-sampled-w64": (64, 0.2, 120),
}
POLICIES = ("lossless", "topk", "judge")

END_TO_END = {
    "setup_s": "s",
    "lossless_tok_s": "tok/s",
    "topk_tok_s": "tok/s",
    "judge_tok_s": "tok/s",
    "task_ms_p50": "ms",
    "task_ms_p90": "ms",
    "topk_accuracy": "ratio",
    "judge_accuracy": "ratio",
    "mine_tasks_s": "tasks/s",
    "train_judge_s": "s",
    "peak_rss_mb": "MB",
}

# Model calls are attributed to the nearest enclosing call-site span.
CALL_SITES = {
    "engine.draft_window": "model_calls.draft_window",
    "engine.verify_window": "model_calls.verify_window",
    "sampling.positionwise_choices": "model_calls.positionwise",
    "sampling.rollout": "model_calls.rollout",
    "mining.record": "model_calls.record_hidden",
}
MODEL_STEPS = ("toymodels.draft_step", "toymodels.ngram_step")


def _per_layer_units() -> dict[str, str]:
    units = {
        "toymodels.draft_step.calls": "count", "toymodels.draft_step.self_us": "us",
        "toymodels.ngram_step.calls": "count", "toymodels.ngram_step.us": "us",
        "lm.forward_parallel.calls": "count", "lm.forward_parallel.rows": "count",
        "lm.forward_parallel.self_s": "s",
        "sampling.gumbel_noise.calls": "count", "sampling.gumbel_noise.us": "us",
        "sampling.seeded_choice.calls": "count", "sampling.seeded_choice.self_us": "us",
        "sampling.rollout.calls": "count", "sampling.rollout.tokens": "count",
        "sampling.rollout.self_s": "s",
        "sampling.positionwise_choices.calls": "count",
        "sampling.positionwise_choices.self_s": "s",
        "engine.draft_window.self_s": "s", "engine.verify_window.self_s": "s",
        "engine.cycles": "count", "engine.drafted": "count",
        "engine.draft_kept_ratio": "ratio", "engine.accepted_per_cycle": "tok/cycle",
        "engine.cost_ratio_c": "ratio",
        "judge.predict_importance.calls": "count", "judge.predict_importance.us": "us",
        "judge.overrides": "count",
        "judge.train_logreg.calls": "count", "judge.train_logreg.s": "s",
        "judge.grid_search_C.s": "s", "judge.calibrate_threshold.s": "s",
        "mining.records": "count", "mining.important_frac": "ratio",
        "mining.rollbacks": "count", "mining.branch_rollouts": "count",
        "mining.skipped": "count",
        "bench.run_policy.s": "s",
        "trace.spans": "count", "trace.overhead_setup_frac": "ratio",
        "trace.overhead_pass_frac": "ratio", "trace.digest_mismatches": "count",
    }
    for site in CALL_SITES.values():
        units[site] = "count"
    for policy in POLICIES:
        units[f"engine.modelled_speedup.{policy}.measured_c"] = "x"
        units[f"engine.modelled_speedup.{policy}.declared_c"] = "x"
        units[f"engine.speedup_vs_target.{policy}"] = "x"
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Sizes:
    eval_tasks: int | None = None  # None: the workload's own count
    setups: int = 3


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED {failed}: {why}", file=sys.stderr)


@dataclass
class Setup:
    vocab: object
    draft: object
    target: object
    judge: object | None
    records: list
    mined: list  # MiningResult per mined (not skipped) task
    skipped: int
    phases: dict  # phase -> (wall seconds, seconds at nominal machine speed)

    def digests(self) -> dict[str, str]:
        out = {"dataset": dataset_fingerprint(self.records)}
        if self.judge is not None:
            h = hashlib.sha256(self.judge.weights.tobytes())
            h.update(repr((self.judge.bias, self.judge.C, self.judge.threshold)).encode())
            out["judge"] = h.hexdigest()[:16]
        return out


def build_models():
    vocab = build_vocab()
    corpus = gen_corpus(vocab, (2, 3), variants=3, seed=0)
    target = train_ngram(vocab, corpus, order=16, smoothing=0.2, seed=0)
    spec = PerturbSpec(noise_scale=0.3, bias_tokens={vocab.token_to_id["Then"]: 1.4},
                       seed=7)
    return vocab, make_draft(target, spec), target


def phase_s(phases: dict, *names: str, scaled: bool = True) -> float:
    """Summed time of the named set-up phases (all of them by default)."""
    return sum(phases[p][1 if scaled else 0] for p in names or phases)


class _StandIn:
    """Stands in for `owner.attr` while entered and times each call.

    `entries` holds (call seconds, result).
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.fn = getattr(owner, attr)
        self.entries = []

    def __call__(self, *args, **kwargs):
        t0 = clock()
        result = self.fn(*args, **kwargs)
        self.entries.append((clock() - t0, result))
        return result

    def __enter__(self):
        setattr(self.owner, self.attr, self)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.fn)


def bracketed(ys: Yardstick, fn):
    """Run `fn` between two blocks of reference units.

    Returns (result, wall seconds, seconds at nominal machine speed).
    """
    units = [ys.unit() for _ in range(BLOCK_UNITS)][1:]
    t0 = clock()
    result = fn()
    wall = clock() - t0
    units += [ys.unit() for _ in range(BLOCK_UNITS)][1:]
    return result, wall, wall * speed_factor(units)


class _Paced(_StandIn):
    """Stands in for `owner.attr` while entered and runs each call between
    two blocks of reference units.

    `wall` and `scaled` sum the calls' own time, measured and at nominal
    machine speed; `elapsed` sums their time with the blocks.
    """

    def __init__(self, owner, attr: str, ys: Yardstick):
        super().__init__(owner, attr)
        self.ys = ys
        self.wall = self.scaled = self.elapsed = 0.0

    def __call__(self, *args, **kwargs):
        t0 = clock()
        result, wall, scaled = bracketed(self.ys, lambda: self.fn(*args, **kwargs))
        self.elapsed += clock() - t0
        self.wall += wall
        self.scaled += scaled
        return result


def train_judge(records):
    examples = build_examples(records, FeatureConfig())
    result = judge_mod.grid_search_C(examples, split_seed=0)
    judge = result.model
    judge.threshold = judge_mod.calibrate_threshold(judge, result.validation,
                                                    target_recall=TARGET_RECALL)
    return judge


def timed_training(records, ys: Yardstick):
    """(judge, wall s, scaled s) of one training, with each fit paced.

    The time outside the fits is scaled by the blocks around the whole
    training; the reference units are in neither.
    """
    with _Paced(judge_mod, "train_logreg", ys) as fits:
        judge, wall, scaled = bracketed(ys, lambda: train_judge(records))
    rest = wall - fits.elapsed
    return judge, rest + fits.wall, rest * scaled / wall + fits.scaled


def mine_chunk(tasks, draft, target, tally: Tally):
    """`mine_important` on each task: (results, skipped count).

    Skipped tasks count as attempted; a task that raises counts as failed.
    """
    results, skipped = [], 0
    for task in tasks:
        try:
            results.append(mining.mine_important(task, draft, target))
        except TaskSkippedError:
            skipped += 1
            tally.add(1)
        except Exception:
            tally.add(1, 1, f"mining {task.task_id}\n{traceback.format_exc()}")
    return results, skipped


def build_setup(tally: Tally, ys: Yardstick, train_repeats: int = TRAIN_REPEATS) -> Setup:
    """Models, mined records and a calibrated judge, with per-phase times."""
    (vocab, draft, target), *models_s = bracketed(ys, build_models)

    mined, skipped, mine_s = [], 0, [0.0, 0.0]
    for lo in range(0, TRAIN_TASKS, MINE_CHUNK):
        tasks = [pool_task(TRAIN_SEED0 + i, vocab) for i in range(lo, lo + MINE_CHUNK)]
        (chunk, chunk_skipped), wall, scaled = bracketed(
            ys, lambda: mine_chunk(tasks, draft, target, tally))
        mined += chunk
        skipped += chunk_skipped
        mine_s = [mine_s[0] + wall, mine_s[1] + scaled]
    records = []
    for res in mined:
        final = extract_answer(res.final_tokens[res.prompt_len:], vocab)
        kept = answers_equivalent(final, res.reference_answer)
        tally.add(1, 0 if kept else 1, f"mining {res.task_id} changed the answer")
        records.extend(res.records)

    # One training is still noisy after scaling, so it is repeated and the
    # median counts as the set-up's.
    trainings, judge = [], None
    for _ in range(train_repeats):
        try:
            judge, train_s, train_scaled = timed_training(records, ys)
        except Exception:
            tally.add(1, 1, f"judge training\n{traceback.format_exc()}")
            judge = None
            break
        tally.add(1)
        trainings.append((train_scaled, train_s))
    train_scaled, train_s = statistics.median_low(trainings) if trainings else (0.0, 0.0)
    return Setup(vocab=vocab, draft=draft, target=target, judge=judge,
                 records=records, mined=mined, skipped=skipped,
                 phases={"models": tuple(models_s), "mine": tuple(mine_s),
                         "train": (train_s, train_scaled)})


@dataclass
class PolicyRun:
    """One policy over the held-out tasks, via bench.run_policy per chunk."""

    tokens: int
    accuracy: float  # from the rows bench.run_policy reported
    responses: list  # per task; None where the decode raised
    latencies: list  # (wall seconds, speed factor) of spec_decode per decoded task
    wall: float  # wall seconds of the bench.run_policy calls
    scaled: float  # the same at nominal machine speed
    cycles: list  # CycleStats, all tasks

    @property
    def factor(self) -> float:
        return self.scaled / self.wall

    def seconds(self, scaled: bool = True) -> float:
        """Time of the bench.run_policy calls, at nominal machine speed if `scaled`."""
        return self.scaled if scaled else self.wall


def _pair(tasks, entries):
    """Align logged decodes with tasks; tasks whose decode raised get None."""
    out, i = [], 0
    for task in tasks:
        if i < len(entries) and entries[i][1].sequence.prompt == task.prompt.tokens:
            out.append(entries[i])
            i += 1
        else:
            out.append(None)
    return out


def decode_pass(setup: Setup, tasks, config: EngineConfig, seed: int,
                ys: Yardstick) -> dict:
    policies = {"lossless": LosslessPolicy(), "topk": TopKPolicy(TOPK)}
    if setup.judge is not None:
        policies["judge"] = JudgePolicy(setup.judge)
    chunks = [tasks[lo:lo + DECODE_CHUNK] for lo in range(0, len(tasks), DECODE_CHUNK)]
    runs = {}
    with _StandIn(bench, "spec_decode") as log:
        for name, policy in policies.items():
            log.entries = []
            tokens, correct, wall, scaled, factors = 0, 0.0, 0.0, 0.0, []
            for chunk in chunks:
                row, w, sc = bracketed(ys, lambda: bench.run_policy(
                    chunk, setup.draft, setup.target, policy, config, seed=seed))
                tokens += row.tokens
                correct += row.accuracy * len(chunk)
                wall += w
                scaled += sc
                factors += [sc / w] * (len(log.entries) - len(factors))
            paired = _pair(tasks, [e + (f,) for e, f in zip(log.entries, factors)])
            done = [p for p in paired if p]
            runs[name] = PolicyRun(
                tokens=tokens, accuracy=correct / len(tasks),
                responses=[p[1].response if p else None for p in paired],
                latencies=[(p[0], p[2]) for p in done], wall=wall, scaled=scaled,
                cycles=[c for p in done for c in p[1].cycles])
    return runs


def response_digest(responses) -> str:
    return hashlib.sha256(json.dumps(responses).encode()).hexdigest()[:16]


def check_pass(runs: dict, first: dict | None, tasks, refs, vocab, tally: Tally) -> None:
    """Count failed decodes: raised, lossless != target rollout, or not repeatable."""
    for name in POLICIES:
        if name not in runs:
            tally.add(len(tasks), len(tasks), f"{name}: policy unavailable")
            continue
        run = runs[name]
        bad = set()
        for i, resp in enumerate(run.responses):
            if resp is None:
                bad.add(i)
            elif name == "lossless" and list(resp) != refs[i]:
                bad.add(i)
            elif first is not None and resp != first[name].responses[i]:
                bad.add(i)
        correct = sum(resp is not None and answers_equivalent(
            extract_answer(resp, vocab), task.oracle_answer)
            for resp, task in zip(run.responses, tasks))
        if abs(correct / len(tasks) - run.accuracy) > 1e-9:
            bad.add(-1)  # the report disagrees with the responses it came from
        tally.add(len(tasks), len(bad), f"{name}: {len(bad)} bad decodes")


def target_rollouts(setup: Setup, tasks, config: EngineConfig, ys: Yardstick):
    """Target-only decoding of every task, the reference for lossless output.

    Also returns the decode time at nominal machine speed.
    """
    refs, _, seconds = bracketed(ys, lambda: [
        rollout(setup.target, t.prompt.tokens, min(config.max_tokens, t.max_response_len),
                config.temperature, config.state)
        for t in tasks])
    return refs, seconds


def pool_task(task_seed: int, vocab):
    return gen_arithmetic_task(task_seed, 2 + task_seed % 2, vocab)


def eval_tasks(workload: str, seed: int, sizes: Sizes, vocab):
    count = sizes.eval_tasks or WORKLOADS[workload][2]
    return [pool_task(EVAL_SEED0 + seed + i, vocab) for i in range(count)]


def engine_config(workload: str) -> EngineConfig:
    window, temperature, _ = WORKLOADS[workload]
    state = SAMPLING_STATE if temperature > 0 else None
    return EngineConfig(window=window, temperature=temperature, state=state)


def tok_s(passes, name: str, scaled: bool = True) -> float:
    """Response tokens per second of `bench.run_policy` time."""
    return (sum(p[name].tokens for p in passes)
            / sum(p[name].seconds(scaled) for p in passes))


def percentile(values, q: int) -> float:
    """Percentile q in 1..99 by the inclusive quantile method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(phases: list, passes: list, scaled: bool) -> dict:
    """The timed end-to-end metrics, at nominal machine speed if `scaled`.

    `phases` holds each set-up's phase times, `passes` each decode pass.
    """
    m = {"setup_s": statistics.median(phase_s(p, scaled=scaled) for p in phases)}
    latencies = []
    for name in POLICIES:
        if name in passes[0]:
            m[f"{name}_tok_s"] = tok_s(passes, name, scaled)
            for p in passes:
                latencies += [x * (f if scaled else 1.0) * 1e3 for x, f in p[name].latencies]
    m["task_ms_p50"] = statistics.median(latencies)
    m["task_ms_p90"] = percentile(latencies, 90)
    m["mine_tasks_s"] = statistics.median(TRAIN_TASKS / phase_s(p, "mine", scaled=scaled)
                                          for p in phases)
    m["train_judge_s"] = statistics.median(phase_s(p, "train", scaled=scaled)
                                           for p in phases)
    return m


def run_untraced(workload, seed, seconds, sizes: Sizes, tally: Tally):
    ys = Yardstick()
    phases, digests = [], None
    for _ in range(sizes.setups):
        setup = None  # free the previous set-up's models before building more
        setup = build_setup(tally, ys)
        d = setup.digests()
        if digests is not None and d != digests:
            tally.add(0, 1, f"set-up not repeatable: {d} != {digests}")
        digests = d
        phases.append(setup.phases)

    config = engine_config(workload)
    tasks = eval_tasks(workload, seed, sizes, setup.vocab)
    refs, _ = target_rollouts(setup, tasks, config, ys)
    passes = []
    deadline = clock() + seconds
    while not passes or clock() < deadline:
        runs = decode_pass(setup, tasks, config, seed, ys)
        check_pass(runs, passes[0] if passes else None, tasks, refs, setup.vocab, tally)
        passes.append(runs)

    metrics = timings(phases, passes, scaled=True)
    for name in ("topk", "judge"):
        if name in passes[0]:
            metrics[f"{name}_accuracy"] = passes[0][name].accuracy
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics = {k: metrics[k] for k in END_TO_END if k in metrics}
    factors = [r.factor for p in passes for r in p.values()]
    info = {"passes": len(passes),
            "task_samples": sum(len(r.latencies) for p in passes for r in p.values()),
            "setups": len(phases),
            "machine_speed": f"{min(factors):.3f}..{max(factors):.3f} of nominal",
            **{f"unscaled.{k}": v for k, v in timings(phases, passes, scaled=False).items()},
            **digests,
            **{f"responses.{n}": response_digest(r.responses)
               for n, r in passes[0].items()}}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def trace_points():
    """(owner, attribute, span name, size measure) for every traced call."""
    return [
        (toymodels.NGramModel, "next_logits_hidden", "toymodels.ngram_step", None),
        (toymodels.PerturbedModel, "next_logits_hidden", "toymodels.draft_step", None),
        (lm.LanguageModel, "forward_parallel", "lm.forward_parallel",
         lambda out: len(out.logits)),
        (sampling, "gumbel_noise", "sampling.gumbel_noise", None),
        (sampling, "seeded_choice", "sampling.seeded_choice", None),
        (engine, "seeded_choice", "sampling.seeded_choice", None),
        (engine, "draft_window", "engine.draft_window", None),
        (engine, "verify_window", "engine.verify_window", None),
        (engine, "predict_importance", "judge.predict_importance", None),
        (mining, "rollout", "sampling.rollout", len),
        (mining, "positionwise_choices", "sampling.positionwise_choices", None),
        (mining, "mine_important", "mining.mine_important", None),
        (mining, "_record", "mining.record", None),
        (judge_mod, "train_logreg", "judge.train_logreg", None),
        (judge_mod, "grid_search_C", "judge.grid_search_C", None),
        (judge_mod, "calibrate_threshold", "judge.calibrate_threshold", None),
        (bench, "run_policy", "bench.run_policy", None),
    ]


@contextmanager
def traced_phase(tracer: Tracer, ys: Yardstick, name: str):
    """Trace the enclosed work under a root span `name`.

    Reference units become spans of their own, so their time can be
    taken out of the spans they run in and used to scale the rest.
    """
    with tracer:
        ys.recorder = tracer.recorder
        root = tracer.recorder.open(name)
        try:
            yield
        finally:
            tracer.recorder.close(root)
            ys.recorder = None


class LayerStats:
    """Per-name span aggregates, each phase scaled to one occurrence.

    Spans under a root span named "setup" are divided by the number of
    traced set-ups and spans under a root named "pass" by the number of
    traced passes, so every figure describes one set-up plus one pass.
    Times are brought to nominal machine speed with the reference-unit
    spans, and a span's total excludes reference units run inside it (the
    blocks around each fit inside `judge.grid_search_C`).
    """

    def __init__(self, recorder: SpanRecorder, n_setups: int, n_passes: int):
        cols = recorder.arrays()
        self.names = list(recorder.names)
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.size = cols["size"]
        raw = cols["end"] - cols["start"]
        is_ref = self.mask(REFERENCE_SPAN)
        factor = speed_factor(raw[is_ref])
        self.self_s = self_times(cols["start"], cols["end"], self.parent) * factor
        ref_inside = np.bincount(self.parent[is_ref], weights=raw[is_ref],
                                 minlength=len(raw))
        self.dur = (raw - ref_inside) * factor
        root = nearest(self.parent, self.parent < 0)
        is_setup = self.name[root] == self.names.index("setup")
        self.weight = np.where(is_setup, 1.0 / n_setups, 1.0 / n_passes)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> float:
        return float(self.weight[self.mask(name)].sum())

    def total_s(self, name: str, own: bool) -> float:
        m = self.mask(name)
        return float(((self.self_s if own else self.dur)[m] * self.weight[m]).sum())

    def size_sum(self, name: str) -> float:
        m = self.mask(name)
        return float((self.size[m] * self.weight[m]).sum())

    def per_call_us(self, name: str, own: bool = False) -> float:
        m = self.mask(name)
        if not m.any():
            return 0.0
        return float((self.self_s if own else self.dur)[m].mean() * 1e6)

    def count_under(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose parent span is called `parent_name`."""
        m = self.mask(name)
        if parent_name not in self.names:
            return 0
        return int((self.name[self.parent[m]] == self.names.index(parent_name)).sum())

    def calls_by_site(self) -> dict[str, float]:
        model_ids = [self.names.index(s) for s in MODEL_STEPS if s in self.names]
        is_model = np.isin(self.name, model_ids)
        parent_model = np.zeros_like(is_model)
        has = self.parent >= 0
        parent_model[has] = is_model[self.parent[has]]
        top = is_model & ~parent_model
        site_ids = [self.names.index(s) for s in CALL_SITES if s in self.names]
        site = nearest(self.parent, np.isin(self.name, site_ids))
        site_name = np.where(site >= 0, self.name[site], -1)
        return {metric: float(self.weight[top & (site_name == self.names.index(span))].sum())
                if span in self.names else 0.0
                for span, metric in CALL_SITES.items()}


def run_traced(workload, seed, seconds, sizes: Sizes, tally: Tally):
    ys = Yardstick()
    setup = build_setup(tally, ys)
    recorder = SpanRecorder()
    tracer = Tracer(recorder, trace_points())
    with traced_phase(tracer, ys, "setup"):
        traced_setup = build_setup(tally, ys, train_repeats=1)
    mismatches = int(setup.digests() != traced_setup.digests())

    config = engine_config(workload)
    tasks = eval_tasks(workload, seed, sizes, setup.vocab)
    refs, target_s = target_rollouts(setup, tasks, config, ys)
    plain, traced = [], []
    deadline = clock() + seconds
    while not traced or clock() < deadline:
        runs = decode_pass(setup, tasks, config, seed, ys)
        check_pass(runs, plain[0] if plain else None, tasks, refs, setup.vocab, tally)
        plain.append(runs)
        with traced_phase(tracer, ys, "pass"):
            runs = decode_pass(setup, tasks, config, seed, ys)
        check_pass(runs, plain[0], tasks, refs, setup.vocab, tally)
        traced.append(runs)
    for p in traced:
        mismatches += sum(p[n].responses != plain[0][n].responses for n in p)
    tally.add(0, mismatches, "traced outputs differ from untraced ones")

    stats = LayerStats(recorder, 1, len(traced))
    m = {}
    for span in ("toymodels.draft_step", "sampling.seeded_choice"):
        m[f"{span}.calls"] = stats.calls(span)
        m[f"{span}.self_us"] = stats.per_call_us(span, own=True)
    for span in ("toymodels.ngram_step", "sampling.gumbel_noise",
                 "judge.predict_importance"):
        m[f"{span}.calls"] = stats.calls(span)
        m[f"{span}.us"] = stats.per_call_us(span)
    m["lm.forward_parallel.calls"] = stats.calls("lm.forward_parallel")
    m["lm.forward_parallel.rows"] = stats.size_sum("lm.forward_parallel")
    m["lm.forward_parallel.self_s"] = stats.total_s("lm.forward_parallel", own=True)
    m["sampling.rollout.calls"] = stats.calls("sampling.rollout")
    m["sampling.rollout.tokens"] = stats.size_sum("sampling.rollout")
    m["sampling.rollout.self_s"] = stats.total_s("sampling.rollout", own=True)
    m["sampling.positionwise_choices.calls"] = stats.calls("sampling.positionwise_choices")
    m["sampling.positionwise_choices.self_s"] = stats.total_s(
        "sampling.positionwise_choices", own=True)
    m["engine.draft_window.self_s"] = stats.total_s("engine.draft_window", own=True)
    m["engine.verify_window.self_s"] = stats.total_s("engine.verify_window", own=True)
    m["judge.train_logreg.calls"] = stats.calls("judge.train_logreg")
    m["judge.train_logreg.s"] = stats.total_s("judge.train_logreg", own=False)
    m["judge.grid_search_C.s"] = stats.total_s("judge.grid_search_C", own=False)
    m["judge.calibrate_threshold.s"] = stats.total_s("judge.calibrate_threshold",
                                                     own=False)
    m["bench.run_policy.s"] = stats.total_s("bench.run_policy", own=False)
    m.update(stats.calls_by_site())

    runs = plain[0]
    cycles = [c for r in runs.values() for c in r.cycles]
    drafted = sum(c.drafted for c in cycles)
    m["engine.cycles"] = len(cycles)
    m["engine.drafted"] = drafted
    m["engine.draft_kept_ratio"] = sum(c.accepted_draft for c in cycles) / drafted
    m["engine.accepted_per_cycle"] = engine.accepted_per_cycle(cycles)
    m["judge.overrides"] = sum(c.judge_overrides for c in runs["judge"].cycles) \
        if "judge" in runs else 0
    records = traced_setup.records
    m["mining.records"] = len(records)
    m["mining.important_frac"] = (sum(r.important for r in records) / len(records)
                                  if records else 0.0)
    m["mining.rollbacks"] = sum(r.rollbacks for r in traced_setup.mined)
    # Each attempted task makes one reference rollout; the rest are branches.
    m["mining.branch_rollouts"] = (stats.count_under("sampling.rollout",
                                                     "mining.mine_important")
                                   - TRAIN_TASKS)
    m["mining.skipped"] = traced_setup.skipped

    c = stats.per_call_us("toymodels.draft_step") / stats.per_call_us("toymodels.ngram_step")
    m["engine.cost_ratio_c"] = c
    target_tok_s = sum(len(r) for r in refs) / target_s
    for name in POLICIES:
        run = runs.get(name)
        n_cycles = len(run.cycles) if run else 0
        n_drafted = sum(s.drafted for s in run.cycles) if run else 0
        m[f"engine.modelled_speedup.{name}.measured_c"] = \
            run.tokens / (n_cycles + c * n_drafted) if run else 0.0
        m[f"engine.modelled_speedup.{name}.declared_c"] = \
            run.tokens / (n_cycles + DECLARED_C * n_drafted) if run else 0.0
        m[f"engine.speedup_vs_target.{name}"] = \
            tok_s(plain, name) / target_tok_s if run else 0.0

    def decode_s(p):
        return sum(r.seconds() for r in p.values())

    m["trace.spans"] = len(recorder)
    m["trace.overhead_setup_frac"] = (phase_s(traced_setup.phases)
                                      / phase_s(setup.phases) - 1.0)
    m["trace.overhead_pass_frac"] = (statistics.median(map(decode_s, traced))
                                     / statistics.median(map(decode_s, plain)) - 1.0)
    m["trace.digest_mismatches"] = mismatches

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.npz"
    recorder.save(str(spans_path))
    info = {"passes": len(traced), "spans_file": spans_path.name,
            "target_only_tok_s": target_tok_s, **setup.digests()}
    return {k: (v, PER_LAYER[k]) for k, v in m.items()}, info


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count()}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    tally = Tally()
    runner = run_traced if trace else run_untraced
    metrics, info = runner(workload, seed, seconds, sizes, tally)
    for key, value in {**environment(), **info}.items():
        print(f"info {key} = {value}")
    print(f"info failed_frac = {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted})")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
