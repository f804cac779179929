"""Command-line interface for the full pipeline.

Subcommands: gen-tasks, gen-corpus, mine, train-judge, decode, bench,
record-trace.  Every command takes --seed, resolves models from spec
strings or JSON files, and writes a manifest of its resolved
configuration next to its output.  The list flags (--num-steps, --topk,
--threshold, --policy) take non-empty comma lists.  Exit codes: 0
success, 1 usage (a malformed list included), 2 data error (an unwritable
--out or a --temperature too small to sample included), 3 remote error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bench as bench_mod
from .engine import (EngineConfig, JudgePolicy, LosslessPolicy, TopKPolicy,
                     accepted_per_cycle)
from .judge import (FeatureConfig, calibrate_threshold, check_judge_compatible,
                    grid_search_C, build_examples, load_judge, save_judge)
from .lm import DataError, TokenSequence
from .mining import (MiningBudgetError, MiningConfig, TaskSkippedError,
                     dataset_fingerprint, export_dataset, load_dataset,
                     mine_important, mine_naive)
from .remote import RemoteEndpoint, RemoteError, remote_generator
from .sampling import RandomState, ScoreError, rollout
from .tasks import (build_vocab, gen_corpus, gen_arithmetic_task, load_tasks,
                    save_tasks)
from .toymodels import PerturbSpec, make_draft, train_ngram
from .trace import SIDES, ReplayModel, load_trace, record_trace, save_trace


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_corpus_lines(path: str, vocab) -> list[list[int]]:
    try:
        with open(path) as f:
            lines = [vocab.encode(line) for line in f if line.strip()]
    except OSError as e:
        raise DataError(f"cannot read corpus {path}: {e}") from e
    if not lines:
        raise DataError(f"empty corpus {path}")
    return lines


def _parse_inline_spec(text: str) -> dict:
    kind, _, rest = text.partition(":")
    spec = {"kind": kind}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if not key or not value:
                raise DataError(f"bad model spec fragment {part!r}")
            spec[key] = value
    return spec


def _spec_value(spec: dict, key: str, cast=str, default=None):
    """spec[key] converted by `cast`; a missing required key or bad value is a DataError."""
    if key not in spec:
        if default is None:
            raise DataError(f"{spec.get('kind')} model spec needs {key}=...")
        return default
    try:
        return cast(spec[key])
    except (TypeError, ValueError) as e:
        raise DataError(f"bad model spec value {key}={spec[key]!r}: {e}") from e


def resolve_model(spec_text: str, vocab, side: str = "target", ngrams: dict | None = None):
    """Build a model from a JSON spec file or an inline kind:k=v,... string; an n-gram
    spec already in `ngrams`, keyed by its resolved values, is not trained again."""
    ngrams = {} if ngrams is None else ngrams
    if os.path.exists(spec_text) and spec_text.endswith(".json"):
        try:
            with open(spec_text) as f:
                spec = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read model spec {spec_text}: {e}") from e
        if not isinstance(spec, dict):
            raise DataError(f"model spec {spec_text} is not a JSON object")
    else:
        spec = _parse_inline_spec(spec_text)
    kind = spec.get("kind")
    if kind == "ngram":
        path, order, smoothing, seed, name = key = (
            _spec_value(spec, "corpus"), _spec_value(spec, "order", int, 16),
            _spec_value(spec, "smoothing", float, 0.2), _spec_value(spec, "seed", int, 0),
            _spec_value(spec, "name", str, "ngram"))
        if key not in ngrams:
            ngrams[key] = train_ngram(vocab, _load_corpus_lines(path, vocab), order,
                                      smoothing, seed, name)
        return ngrams[key]
    if kind == "perturb":
        base = resolve_model(_spec_value(spec, "base"), vocab, side, ngrams)
        bias_raw = spec.get("bias", {})
        if isinstance(bias_raw, str):
            bias_raw = dict(p.partition(":")[::2] for p in bias_raw.split(";") if p)
        if not isinstance(bias_raw, dict):
            raise DataError("perturb model spec bias must map tokens to offsets")
        bias = {}
        for token_text in bias_raw:
            tid = vocab.token_to_id.get(token_text)
            if tid is None:
                raise DataError(f"bias token {token_text!r} not in vocab")
            bias[tid] = _spec_value(bias_raw, token_text, float)
        pspec = PerturbSpec(noise_scale=_spec_value(spec, "sigma", float, 0.0),
                            bias_tokens=bias,
                            seed=_spec_value(spec, "seed", int, 0))
        return make_draft(base, pspec, name=_spec_value(spec, "name", str, "draft"))
    if kind == "trace":
        path = _spec_value(spec, "path")
        side = _spec_value(spec, "side", str, side)
        if side not in SIDES:
            raise DataError(f"trace model spec side must be draft or target, "
                            f"got {side!r}")
        return ReplayModel(load_trace(path), vocab, side)
    raise DataError(f"unknown model kind {kind!r}")


def _write_manifest(out_path: str, command: str, options: dict) -> None:
    manifest = {"command": command,
                "options": {k: v for k, v in sorted(options.items())}}
    with open(out_path + ".manifest.json", "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def _manifest_options(args, skip=("func", "command")) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in skip and not k.startswith("_")}


def _comma_list(cast):
    """argparse type: a non-empty comma list of `cast` values, no empty items."""
    def parse(text: str) -> list:
        try:
            return [cast(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {cast.__name__}, got {text!r}") from None
    return parse


def policy(name: str) -> str:
    """One --policy item: lossless, topk or judge."""
    name = name.strip()
    if name not in ("lossless", "topk", "judge"):
        raise ValueError(f"unknown policy {name!r}")
    return name


def _models_and_tasks(args):
    """Vocab, target, draft and tasks named by the shared model flags, in that order."""
    vocab, ngrams = build_vocab(args.max_value), {}
    target = resolve_model(args.target_model, vocab, "target", ngrams)
    draft = resolve_model(args.draft_model, vocab, "draft", ngrams)
    return vocab, target, draft, load_tasks(args.tasks, vocab)


def _random_state(args) -> RandomState | None:
    """The sampling state of --seed, or None when --temperature is 0 (greedy)."""
    if not 0 <= args.temperature < math.inf:
        raise DataError("temperature must be finite and >= 0")
    return RandomState(args.seed) if args.temperature > 0 else None


def _engine_config(args) -> EngineConfig:
    return EngineConfig(window=args.window, max_tokens=args.max_tokens,
                        temperature=args.temperature, state=_random_state(args))


def _mining_config(args) -> MiningConfig:
    return MiningConfig(temperature=args.temperature, state=_random_state(args),
                        max_rollbacks=args.max_rollbacks)


def _policies(args, draft, target):
    """The --policy list; a judge that cannot read these models' features
    is a data error before anything is decoded."""
    policies = []
    for name in args.policy:
        if name == "lossless":
            policies.append(LosslessPolicy())
        elif name == "topk":
            for k in args.topk:
                policies.append(TopKPolicy(k))
        elif name == "judge":
            if not args.judge:
                raise DataError("judge policy needs --judge <file>")
            judge = load_judge(args.judge)
            check_judge_compatible(judge, draft, target)
            for tau in args.threshold or [judge.threshold]:
                policies.append(JudgePolicy(judge, threshold=tau))
    return policies


def cmd_gen_tasks(args) -> int:
    if args.count < 1:
        raise DataError("--count must be >= 1")
    vocab = build_vocab(args.max_value)
    steps = args.num_steps
    tasks = [gen_arithmetic_task(args.seed + i, steps[i % len(steps)], vocab,
                                 args.max_value)
             for i in range(args.count)]
    save_tasks(args.out, tasks, vocab)
    _write_manifest(args.out, "gen-tasks", _manifest_options(args))
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    if args.variants < 1:
        raise DataError("--variants must be >= 1")
    vocab = build_vocab(args.max_value)
    lines = gen_corpus(vocab, num_steps_values=args.num_steps,
                       variants=args.variants, seed=args.seed,
                       max_value=args.max_value)
    with open(args.out, "w") as f:
        for ids in lines:
            f.write(vocab.decode(ids) + "\n")
    _write_manifest(args.out, "gen-corpus", _manifest_options(args))
    print(f"wrote {len(lines)} sequences to {args.out}")
    return 0


def cmd_mine(args) -> int:
    vocab, target, draft, tasks = _models_and_tasks(args)
    cfg = _mining_config(args)
    generate = None
    if args.remote_url:
        if not args.remote_model:
            raise DataError("--remote-url needs --remote-model")
        endpoint = RemoteEndpoint(base_url=args.remote_url, model=args.remote_model,
                                  bearer_token=os.environ.get("SPECJUDGE_API_TOKEN"))
        generate = remote_generator(endpoint, vocab, temperature=args.temperature)
    miner = mine_naive if args.naive else mine_important
    records = []
    skipped = over_cap = 0
    for task in tasks:
        try:
            records.extend(miner(task, draft, target, cfg,
                                 target_generate=generate).records)
        except TaskSkippedError as e:
            skipped += 1
            print(f"skipped: {e}", file=sys.stderr)
        except MiningBudgetError as e:  # keep the labels finished before the cap
            over_cap += 1
            records.extend(e.records)
            print(f"over the rollback cap: {e}", file=sys.stderr)
    if not records:
        raise DataError("mining produced no records")
    export_dataset(args.out, records)
    _write_manifest(args.out, "mine", _manifest_options(args))
    frac = sum(r.important for r in records) / len(records)
    print(f"wrote {len(records)} records to {args.out} "
          f"(important fraction {frac:.3f}, {skipped} tasks skipped, "
          f"{over_cap} over the rollback cap)")
    return 0


def cmd_train_judge(args) -> int:
    records = load_dataset(args.dataset)
    cfg = FeatureConfig(model_source=args.model_source)
    result = grid_search_C(build_examples(records, cfg), split_seed=args.seed)
    judge = result.model
    judge.threshold = calibrate_threshold(judge, result.validation,
                                          target_recall=args.target_recall)
    judge.dataset_hash = dataset_fingerprint(records)
    judge.seed = args.seed
    save_judge(args.out, judge)
    _write_manifest(args.out, "train-judge", _manifest_options(args))
    print(f"wrote judge to {args.out} (C={judge.C:g}, "
          f"val AUC={result.val_auc:.4f}, threshold={judge.threshold:.6g})")
    return 0


def cmd_decode(args) -> int:
    vocab, target, draft, tasks = _models_and_tasks(args)
    policies = _policies(args, draft, target)
    if len(policies) != 1:
        raise DataError("decode runs exactly one policy")
    config = _engine_config(args)
    rows = []  # written only once every task has decoded
    for task in tasks:
        result, answer, correct = bench_mod.decode_task(
            task, draft, target, policies[0], config)
        rows.append(json.dumps({
            "task_id": task.task_id,
            "response": vocab.decode(result.response),
            "answer": answer,
            "correct": correct,
            "cycles": len(result.cycles),
            "accepted_per_cycle": accepted_per_cycle(result.cycles),
        }) + "\n")
    with open(args.out, "w") as f:
        f.writelines(rows)
    _write_manifest(args.out, "decode", _manifest_options(args))
    print(f"decoded {len(tasks)} tasks to {args.out}")
    return 0


def cmd_bench(args) -> int:
    _, target, draft, tasks = _models_and_tasks(args)
    policies = _policies(args, draft, target)
    rows = bench_mod.run_benchmark(tasks, draft, target, policies,
                                   _engine_config(args), seed=args.seed)
    report = bench_mod.emit_report(rows, fmt=args.format)
    with open(args.out, "w") as f:
        f.write(report)
    _write_manifest(args.out, "bench", _manifest_options(args))
    print(report, end="")
    return 0


def cmd_record_trace(args) -> int:
    _, target, draft, tasks = _models_and_tasks(args)
    if not 0 <= args.task_index < len(tasks):
        raise DataError(f"task index {args.task_index} out of range")
    task = tasks[args.task_index]
    response = rollout(target, task.prompt.tokens, task.max_response_len,
                       args.temperature, _random_state(args))
    seq = TokenSequence(task.prompt.tokens + tuple(response), len(task.prompt.tokens))
    save_trace(args.out, record_trace(draft, target, seq))
    _write_manifest(args.out, "record-trace", _manifest_options(args))
    print(f"recorded {len(seq.response)} positions to {args.out}")
    return 0


def _add_common(p, model_flags=True):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-value", type=int, default=99,
                   help="largest numeral in the task vocabulary")
    if model_flags:
        p.add_argument("--draft-model", required=True,
                       help="model spec string or JSON spec file")
        p.add_argument("--target-model", required=True)
        p.add_argument("--tasks", required=True, help="task set file")
        p.add_argument("--temperature", type=float, default=0.0)


def _add_decode_flags(p):
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--max-tokens", type=int, default=256)
    p.add_argument("--policy", type=_comma_list(policy), default="lossless",
                   help="comma list: lossless,topk,judge")
    p.add_argument("--topk", type=_comma_list(int), default="1",
                   help="comma list of K values for the topk policy")
    p.add_argument("--judge", default=None)
    p.add_argument("--threshold", type=_comma_list(float), default=None,
                   help="comma list of judge thresholds")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="specjudge",
                     description="lossy speculative decoding with a learned judge")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate arithmetic tasks")
    _add_common(p, model_flags=False)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--num-steps", type=_comma_list(int), default="2,3")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_tasks)

    p = sub.add_parser("gen-corpus", help="generate the n-gram training corpus")
    _add_common(p, model_flags=False)
    p.add_argument("--num-steps", type=_comma_list(int), default="2,3")
    p.add_argument("--variants", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("mine", help="mine labeled mismatch records")
    _add_common(p)
    labeling = p.add_mutually_exclusive_group()  # the naive miner never rolls back
    labeling.add_argument("--naive", action="store_true",
                          help="isolated per-mismatch labeling baseline")
    labeling.add_argument("--max-rollbacks", type=int, default=None)
    p.add_argument("--remote-url", default=None)
    p.add_argument("--remote-model", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train-judge", help="train the importance classifier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-source", default="both",
                   choices=["draft", "target", "both"])
    p.add_argument("--target-recall", type=float, default=0.90)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_judge)

    p = sub.add_parser("decode", help="speculative decoding over a task set")
    _add_common(p)
    _add_decode_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="accuracy/acceptance benchmark rows")
    _add_common(p)
    _add_decode_flags(p)
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("record-trace", help="record both models along one task")
    _add_common(p)
    p.add_argument("--task-index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_record_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # an overflow is checked, as a ScoreError, not warned
            return args.func(args)
    except RemoteError as e:
        print(f"remote error: {e}", file=sys.stderr)
        return 3
    except (DataError, OSError, ScoreError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
