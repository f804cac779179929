"""End-to-end command-line workflows against temporary files."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specjudge import cli, remote
from specjudge.cli import main, resolve_model
from specjudge.judge import FeatureConfig, JudgeModel, load_judge, save_judge
from specjudge.lm import DataError
from specjudge.mining import (MiningBudgetError, MiningConfig, TaskSkippedError,
                              export_dataset, load_dataset, mine_important,
                              mine_naive)
from specjudge.sampling import RandomState, rollout
from specjudge.tasks import build_vocab, load_tasks
from specjudge.trace import load_trace


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, model specs, and tasks for a small max-value-9 walkthrough."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    rc = main(["gen-corpus", "--max-value", "9", "--num-steps", "2",
               "--variants", "2", "--seed", "0", "--out", str(corpus)])
    assert rc == 0
    target = root / "target.json"
    target.write_text(json.dumps({"kind": "ngram", "corpus": str(corpus),
                                  "order": 16, "smoothing": 0.2, "seed": 0,
                                  "name": "target"}))
    draft = root / "draft.json"
    draft.write_text(json.dumps({"kind": "perturb", "base": str(target),
                                 "sigma": 0.6, "bias": {"Then": 1.4},
                                 "seed": 7, "name": "draft"}))
    tasks = root / "tasks.jsonl"
    rc = main(["gen-tasks", "--max-value", "9", "--count", "12",
               "--num-steps", "2", "--seed", "50", "--out", str(tasks)])
    assert rc == 0
    return root


def model_args(workdir):
    return ["--max-value", "9",
            "--draft-model", str(workdir / "draft.json"),
            "--target-model", str(workdir / "target.json"),
            "--tasks", str(workdir / "tasks.jsonl")]


def test_gen_corpus_and_tasks_outputs(workdir):
    vocab = build_vocab(9)
    lines = (workdir / "corpus.txt").read_text().splitlines()
    assert lines and all(vocab.encode(line) for line in lines)
    tasks = load_tasks(str(workdir / "tasks.jsonl"), vocab)
    assert len(tasks) == 12
    manifest = json.loads((workdir / "tasks.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-tasks"
    assert manifest["options"]["count"] == 12


def test_inline_model_specs_match_json_specs(workdir):
    vocab = build_vocab(9)
    from_json = resolve_model(str(workdir / "target.json"), vocab)
    inline = resolve_model(
        f"ngram:corpus={workdir / 'corpus.txt'},order=16,smoothing=0.2,seed=0",
        vocab)
    probe = vocab.encode("Start with 1 .")
    a, _ = from_json.next_logits_hidden(probe)
    b, _ = inline.next_logits_hidden(probe)
    assert (a == b).all()
    with pytest.raises(DataError):
        resolve_model("hologram:size=3", vocab)


def test_mine_trains_the_shared_ngram_spec_once(workdir, tmp_path, monkeypatch):
    """With the README's specs, the draft's base names the target's file: one
    command trains that n-gram once and the draft wraps the target itself."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(workdir / "corpus.txt", "corpus.txt")
    Path("target.json").write_text(
        '{"kind": "ngram", "corpus": "corpus.txt", "order": 16, "smoothing": 0.2}')
    Path("draft.json").write_text('{"kind": "perturb", "base": "target.json", '
                                  '"sigma": 0.3, "bias": {"Then": 1.4}, "seed": 7}')
    trained, pairs = [], []
    cli_train, cli_mine = cli.train_ngram, cli.mine_important

    def counting_train(*args, **kwargs):
        trained.append(cli_train(*args, **kwargs))
        return trained[-1]

    def recording_miner(task, draft, target, *args, **kwargs):
        pairs.append((draft, target))
        return cli_mine(task, draft, target, *args, **kwargs)

    monkeypatch.setattr(cli, "train_ngram", counting_train)
    monkeypatch.setattr(cli, "mine_important", recording_miner)
    assert main(["mine", "--max-value", "9", "--draft-model", "draft.json",
                 "--target-model", "target.json", "--tasks",
                 str(workdir / "tasks.jsonl"), "--out", "mined.jsonl"]) == 0
    assert len(trained) == 1 and len(pairs) == 12
    assert all(draft.base is target is trained[0] for draft, target in pairs)


def test_mine_writes_a_labeled_dataset(workdir, capsys):
    out = workdir / "mined.jsonl"
    rc = main(["mine", *model_args(workdir), "--seed", "0", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "records" in stdout
    records = load_dataset(str(out))
    assert records
    assert all(isinstance(r.important, bool) for r in records)
    assert all(r.draft_token != r.target_token for r in records)
    assert (workdir / "mined.jsonl.manifest.json").exists()


def test_mine_counts_tasks_over_the_rollback_cap(workdir, capsys):
    out = workdir / "mined-capped.jsonl"
    rc = main(["mine", *model_args(workdir), "--max-rollbacks", "1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    vocab = build_vocab(9)
    target = resolve_model(str(workdir / "target.json"), vocab)
    draft = resolve_model(str(workdir / "draft.json"), vocab)
    expected, over_cap = [], []
    for task in load_tasks(str(workdir / "tasks.jsonl"), vocab):
        try:
            expected += mine_important(task, draft, target,
                                       MiningConfig(max_rollbacks=1)).records
        except MiningBudgetError as e:
            expected += e.records
            over_cap.append(task.task_id)
        except TaskSkippedError:
            continue
    assert over_cap  # the cap binds on some tasks but not on all
    assert len(over_cap) < 12
    key = lambda r: (r.task_id, r.position, r.draft_token, r.important)
    assert [key(r) for r in load_dataset(str(out))] == [key(r) for r in expected]
    assert [line.split(":")[1].strip() for line in captured.err.splitlines()
            if line.startswith("over the rollback cap")] == over_cap
    assert f"{len(over_cap)} over the rollback cap" in captured.out


def test_negative_rollback_cap_is_one_data_error(workdir, tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    rc = main(["mine", *model_args(workdir), "--max-rollbacks", "-3", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == ["data error: max_rollbacks must be >= 0"]
    assert not out.exists()


def test_naive_mining_with_a_rollback_cap_is_a_usage_error(workdir, tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["mine", *model_args(workdir), "--naive", "--max-rollbacks", "1",
              "--out", str(out)])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "never.jsonl.manifest.json").exists()


def test_mine_naive_labels_each_mismatch_in_isolation(workdir):
    out = workdir / "mined-naive.jsonl"
    rc = main(["mine", *model_args(workdir), "--naive", "--out", str(out)])
    assert rc == 0
    vocab = build_vocab(9)
    target = resolve_model(str(workdir / "target.json"), vocab)
    draft = resolve_model(str(workdir / "draft.json"), vocab)
    expected = []
    for task in load_tasks(str(workdir / "tasks.jsonl"), vocab):
        try:
            expected += mine_naive(task, draft, target).records
        except TaskSkippedError:
            continue
    assert expected
    key = lambda r: (r.task_id, r.position, r.draft_token, r.important)
    assert [key(r) for r in load_dataset(str(out))] == [key(r) for r in expected]
    manifest = json.loads((workdir / "mined-naive.jsonl.manifest.json").read_text())
    assert manifest["options"]["naive"] is True


def test_decode_reports_per_task_results(workdir):
    out = workdir / "decoded.jsonl"
    rc = main(["decode", *model_args(workdir), "--policy", "topk", "--topk", "2",
               "--window", "8", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 12
    for row in rows:
        assert set(row) == {"task_id", "response", "answer", "correct",
                            "cycles", "accepted_per_cycle"}
        assert row["accepted_per_cycle"] >= 1.0


def test_decode_writes_nothing_when_a_task_fails(workdir, tmp_path, capsys):
    """A trace covers one task; decoding three from it fails on the first
    other one, and the tasks decoded before it are not written either."""
    trace = tmp_path / "task1.trace"
    assert main(["record-trace", *model_args(workdir), "--task-index", "1",
                 "--out", str(trace)]) == 0
    three = tmp_path / "three.jsonl"
    three.write_text("".join((workdir / "tasks.jsonl").read_text()
                             .splitlines(keepends=True)[1:4]))
    args = model_args(workdir)
    args[args.index("--target-model") + 1] = f"trace:path={trace}"
    args[args.index("--tasks") + 1] = str(three)
    out = tmp_path / "never.jsonl"
    capsys.readouterr()
    assert main(["decode", *args, "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("data error: context") and "recorded" in err
    assert not out.exists()
    assert not (tmp_path / "never.jsonl.manifest.json").exists()


def test_decode_rejects_multiple_policies(workdir):
    out = workdir / "never.jsonl"
    rc = main(["decode", *model_args(workdir), "--policy", "topk",
               "--topk", "1,2", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_judge_policy_without_judge_file_is_a_data_error(workdir, capsys):
    rc = main(["decode", *model_args(workdir), "--policy", "judge",
               "--out", str(workdir / "never2.jsonl")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "bench"])
def test_bad_judge_threshold_is_one_data_error(workdir, tmp_path, capsys, command):
    judge = tmp_path / "judge.json"
    # 37 weights: the draft's 19 hidden features and the target's 18.
    save_judge(str(judge), JudgeModel(weights=np.zeros(37), bias=0.0,
                                      feature_config=FeatureConfig(), C=1.0))
    out = tmp_path / "never.out"
    rc = main([command, *model_args(workdir), "--policy", "judge",
               "--judge", str(judge), "--threshold", "1.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() \
        == ["data error: judge threshold must lie strictly inside (0, 1)"]
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


@pytest.mark.parametrize("command", ["decode", "bench"])
def test_incompatible_judge_is_one_data_error(workdir, tmp_path, capsys, command):
    judge = tmp_path / "judge.json"
    save_judge(str(judge), JudgeModel(weights=np.zeros(5), bias=0.0,
                                      feature_config=FeatureConfig(), C=1.0))
    out = tmp_path / "never.out"
    rc = main([command, *model_args(workdir), "--policy", "lossless,judge",
               "--judge", str(judge), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() \
        == ["data error: judge expects 5 features but models produce 37"]
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


@pytest.mark.parametrize("settings, message", [
    (["--temperature", "inf"], "temperature must be finite and >= 0"),
    (["--temperature", "1e309"], "temperature must be finite and >= 0"),
    (["--temperature", "nan"], "temperature must be finite and >= 0"),
    (["--seed", "-1", "--temperature", "0.5"], "seed must fit in 64 bits"),
    (["--temperature", "1e-310"], "sampling scores are not finite at temperature 1e-310"),
], ids=["inf", "1e309", "nan", "negative-seed", "1e-310"])
@pytest.mark.parametrize("command", ["bench", "decode", "mine", "record-trace"])
@pytest.mark.filterwarnings("error")  # a warning would be one more line on stderr
def test_bad_sampling_settings_are_one_data_error(workdir, tmp_path, capsys, command,
                                                  settings, message):
    out = tmp_path / "never.out"
    rc = main([command, *model_args(workdir), *settings, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


def test_bench_emits_sorted_report(workdir, capsys):
    out = workdir / "report.csv"
    rc = main(["bench", *model_args(workdir), "--policy", "lossless,topk",
               "--topk", "2,1", "--window", "8", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("policy,param,")
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["policy"], r["param"]) for r in rows] \
        == [("lossless", ""), ("topk", "1"), ("topk", "2")]
    manifest = json.loads((workdir / "report.csv.manifest.json").read_text())
    assert manifest["options"]["policy"] == ["lossless", "topk"]
    assert manifest["options"]["topk"] == [2, 1]
    jsonl_out = workdir / "report.jsonl"
    rc = main(["bench", *model_args(workdir), "--policy", "lossless",
               "--window", "8", "--format", "jsonl", "--out", str(jsonl_out)])
    assert rc == 0
    assert json.loads(jsonl_out.read_text().splitlines()[0])["policy"] == "lossless"


def test_record_trace_round_trips(workdir):
    out = workdir / "task1.trace"
    rc = main(["record-trace", *model_args(workdir), "--task-index", "1",
               "--out", str(out)])
    assert rc == 0
    trace = load_trace(str(out))
    vocab = build_vocab(9)
    tasks = load_tasks(str(workdir / "tasks.jsonl"), vocab)
    assert trace.tokens[:trace.prompt_len] == tasks[1].prompt.tokens
    for side in ("draft", "target"):
        rows = trace.rows[side]
        assert rows.logits.shape == (len(trace.tokens) - trace.prompt_len + 1, vocab.size)
        assert len(rows.hidden) == len(rows.logits)
    # replaying the target's rows on both sides decodes the recorded response
    one_task = workdir / "task1.jsonl"
    one_task.write_text((workdir / "tasks.jsonl").read_text().splitlines()[1] + "\n")
    replayed = workdir / "replayed.jsonl"
    args = model_args(workdir)
    args[args.index("--target-model") + 1] = f"trace:path={out}"
    args[args.index("--draft-model") + 1] = f"trace:path={out},side=target"
    args[args.index("--tasks") + 1] = str(one_task)
    assert main(["decode", *args, "--window", "4", "--out", str(replayed)]) == 0
    response = json.loads(replayed.read_text())["response"]
    assert response == vocab.decode(trace.tokens[trace.prompt_len:])
    rc = main(["record-trace", *model_args(workdir), "--task-index", "99",
               "--out", str(workdir / "never3.trace")])
    assert rc == 2


def test_record_trace_samples_at_the_given_temperature(workdir, tmp_path):
    out = tmp_path / "sampled.trace"
    assert main(["record-trace", *model_args(workdir), "--temperature", "0.7",
                 "--seed", "5", "--out", str(out)]) == 0
    vocab = build_vocab(9)
    target = resolve_model(str(workdir / "target.json"), vocab)
    task = load_tasks(str(workdir / "tasks.jsonl"), vocab)[0]
    prompt = task.prompt.tokens
    sampled = rollout(target, prompt, task.max_response_len, 0.7, RandomState(5))
    assert load_trace(str(out)).tokens == prompt + tuple(sampled)
    assert sampled != rollout(target, prompt, task.max_response_len)
    manifest = json.loads((tmp_path / "sampled.trace.manifest.json").read_text())
    assert manifest["options"]["temperature"] == 0.7


def test_train_judge_from_exported_dataset(tmp_path, mined, capsys):
    dataset = tmp_path / "dataset.jsonl"
    export_dataset(str(dataset), mined.records)
    out = tmp_path / "judge.json"
    rc = main(["train-judge", "--dataset", str(dataset), "--seed", "0",
               "--target-recall", "0.9", "--out", str(out)])
    assert rc == 0
    assert "val AUC" in capsys.readouterr().out
    judge = load_judge(str(out))
    assert 0.0 < judge.threshold < 1.0
    assert judge.dataset_hash
    manifest = json.loads((tmp_path / "judge.json.manifest.json").read_text())
    assert manifest["command"] == "train-judge"


def test_train_judge_max_iters_is_a_usage_error(tmp_path, mined, capsys):
    """Newton's method meets its gradient stop long before any cap, so there is no
    --max-iters flag: passing one is a usage error."""
    dataset = tmp_path / "dataset.jsonl"
    export_dataset(str(dataset), mined.records)
    out = tmp_path / "judge.json"
    with pytest.raises(SystemExit) as exc:
        main(["train-judge", "--dataset", str(dataset), "--max-iters", "150",
              "--out", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-iters 150" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("loader", ["dataset", "judge", "tasks", "trace"])
def test_unreadable_input_file_is_a_data_error(workdir, tmp_path, capsys, loader):
    missing = str(tmp_path / f"missing-{loader}")
    out = str(tmp_path / "never.out")
    args = {
        "dataset": ["train-judge", "--dataset", missing, "--out", out],
        "judge": ["decode", *model_args(workdir), "--policy", "judge",
                  "--judge", missing, "--out", out],
        "tasks": ["decode", *model_args(workdir)[:-1], missing, "--out", out],
        "trace": ["decode", *model_args(workdir), "--target-model",
                  f"trace:path={missing}", "--out", out],
    }[loader]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"data error: cannot read {loader}")
    assert missing in err[0]
    assert not os.path.exists(out)


def _set(key, value):
    def edit(row):
        row[key] = value
    return edit


def _set_feature_config(key, value):
    def edit(row):
        row["feature_config"][key] = value
    return edit


def _set_first_token(value):
    def edit(row):
        row["tokens"][0] = value
    return edit


@pytest.mark.parametrize("loader, edit, message", [
    ("dataset", _set("important", "false"), "important must be true or false"),
    ("dataset", _set("position", 9.7), "position must be an integer, got 9.7"),
    ("dataset", _set("target_token", True), "target_token must be an integer"),
    ("dataset", _set("draft_hidden", 0.5), "draft_hidden must be a list of numbers"),
    ("dataset", _set("target_hidden", [[0.5, 1.0]]),
     "target_hidden must be a list of numbers"),
    ("judge", _set("feature_dim", 37.9), "feature_dim must be an integer, got 37.9"),
    ("judge", _set("seed", 1.5), "seed must be an integer, got 1.5"),
    # a judge fit on another feature layout: its weights mean other features
    ("judge", _set_feature_config("token_source", "prev"),
     "trained for another feature layout"),
    ("judge", _set_feature_config("token_source", "draft_token"),
     "trained for another feature layout"),
    ("judge", _set("feature_config", {}), "retrain it with train-judge"),
    ("trace", _set_first_token(1.9), "token must be an integer, got 1.9"),
    ("trace", _set("prompt_len", 2.6), "prompt_len must be an integer, got 2.6"),
], ids=["important-string", "position-float", "token-bool", "hidden-scalar",
        "hidden-2d", "feature-dim-float", "seed-float", "layout-key-prev",
        "layout-key-draft-token", "layout-empty", "trace-token-float", "prompt-len-float"])
def test_bad_value_in_an_input_file_is_one_data_error(workdir, tmp_path, capsys, mined,
                                                      loader, edit, message):
    """Loaders refuse a value they would otherwise coerce, or crash on later."""
    path = tmp_path / f"input.{loader}"
    out = tmp_path / "never.out"
    if loader == "dataset":
        export_dataset(str(path), mined.records[:2])
        argv = ["train-judge", "--dataset", str(path), "--out", str(out)]
    elif loader == "judge":
        save_judge(str(path), JudgeModel(weights=np.zeros(37), bias=0.0,
                                         feature_config=FeatureConfig(), C=1.0))
        argv = ["decode", *model_args(workdir), "--policy", "judge",
                "--judge", str(path), "--out", str(out)]
    else:
        assert main(["record-trace", *model_args(workdir), "--out", str(path)]) == 0
        argv = ["decode", *model_args(workdir), "--target-model",
                f"trace:path={path}", "--out", str(out)]
    first, *rest = path.read_text().splitlines(keepends=True)
    if loader == "judge":  # one indented JSON object, not JSON lines
        first, rest = path.read_text(), []
    row = json.loads(first)
    edit(row)
    path.write_text(json.dumps(row) + "\n" + "".join(rest))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"data error: bad {loader} file") and message in err[0]
    assert not out.exists()


def test_old_format_trace_is_a_data_error(workdir, tmp_path, capsys):
    path = tmp_path / "old.trace"
    path.write_text(json.dumps({
        "tokens": [1, 2, 3], "prompt_len": 2, "vocab_size": 4, "top_m": 4,
        "draft_name": "draft", "target_name": "target",
        "prompt_last_hidden": {"draft": [0.0], "target": [0.0]},
        "final_top": {"draft": {"top": [[0, 1.0]], "tail_mass": 0.0},
                      "target": {"top": [[0, 1.0]], "tail_mass": 0.0}}}) + "\n")
    out = tmp_path / "never.jsonl"
    args = model_args(workdir)
    args[args.index("--target-model") + 1] = f"trace:path={path}"
    assert main(["decode", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: bad trace file")
    assert not out.exists()


def test_missing_required_argument_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["gen-tasks", "--count", "2"])  # no --out
    assert exc.value.code == 1


@pytest.mark.parametrize("spec, message", [
    ("ngram:order=3", "ngram model spec needs corpus="),
    ("ngram:corpus={corpus},order=x", "bad model spec value order='x'"),
    ("ngram:corpus={corpus},smoothing=lots", "bad model spec value smoothing="),
    ("perturb:sigma=0.3", "perturb model spec needs base="),
    ("perturb:base={target},sigma=high", "bad model spec value sigma="),
    ("perturb:base={target},bias=Then:up", "bad model spec value Then='up'"),
    ("trace:side=draft", "trace model spec needs path="),
    ("trace:path={corpus},side=bogus", "side must be draft or target, got 'bogus'"),
])
def test_bad_model_spec_is_a_data_error(workdir, tmp_path, capsys, spec, message):
    spec = spec.format(corpus=workdir / "corpus.txt", target=workdir / "target.json")
    out = tmp_path / "never.jsonl"
    args = model_args(workdir)
    args[args.index("--target-model") + 1] = spec
    assert main(["decode", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("data error: ") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("side, spec, message", [
    ("draft", "perturb:base={target},sigma=nan", "noise_scale must be finite and >= 0"),
    ("draft", "perturb:base={target},sigma=inf", "noise_scale must be finite and >= 0"),
    ("draft", "perturb:base={target},bias=Then:nan", "bias offsets must be finite"),
    ("draft", "ngram:corpus={corpus},smoothing=nan", "smoothing must be finite and > 0"),
    ("target", "ngram:corpus={corpus},smoothing=inf", "smoothing must be finite and > 0"),
], ids=["sigma-nan", "sigma-inf", "bias-nan", "draft-smoothing-nan", "target-smoothing-inf"])
@pytest.mark.parametrize("command", ["decode", "bench"])
def test_non_finite_model_parameter_is_one_data_error(workdir, tmp_path, capsys, command,
                                                      side, spec, message):
    spec = spec.format(corpus=workdir / "corpus.txt", target=workdir / "target.json")
    out = tmp_path / "never.out"
    args = model_args(workdir)
    args[args.index(f"--{side}-model") + 1] = spec
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


@pytest.mark.parametrize("spec, message", [
    ([1, 2], "is not a JSON object"),
    ({"kind": "perturb", "base": "target.json", "bias": ["Then"]},
     "bias must map tokens to offsets"),
])
def test_bad_json_model_spec_is_a_data_error(workdir, tmp_path, capsys, spec,
                                             message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec).replace("target.json",
                                             str(workdir / "target.json")))
    args = model_args(workdir)
    args[args.index("--draft-model") + 1] = str(path)
    assert main(["decode", *args, "--out", str(tmp_path / "never.jsonl")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_tasks_rejects_an_empty_task_set(tmp_path, capsys, count):
    for command, flag in (("gen-tasks", "--count"), ("gen-corpus", "--variants")):
        out = tmp_path / f"{command}.out"
        assert main([command, flag, count, "--out", str(out)]) == 2
        assert f"data error: {flag} must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / f"{command}.out.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen-tasks", "--max-value", "3", "--num-steps", "4", "--count", "2"],
    ["gen-corpus", "--max-value", "0"],
])
def test_infeasible_max_value_is_a_data_error(tmp_path, capsys, argv):
    out = tmp_path / "never.out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


def test_gen_tasks_redraws_a_chain_that_strands(tmp_path):
    """A start of 9 leaves no step within max-value 9; the chain is drawn again."""
    out = tmp_path / "tasks.jsonl"
    assert main(["gen-tasks", "--max-value", "9", "--count", "30", "--num-steps", "2",
                 "--seed", "50", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 30
    for row in rows:
        words = row["prompt"].split()
        values = [int(words[2])]
        for word, operand in zip(words, words[1:]):
            if word == "Add":
                values.append(values[-1] + int(operand))
            elif word == "by":
                values.append(values[-1] * int(operand))
        assert len(values) == 2 and max(values) <= 9 and values[-1] == row["oracle"]


@pytest.mark.parametrize("argv", [
    ["gen-tasks", "--num-steps", "abc"],
    ["gen-tasks", "--num-steps", ","],
    ["gen-corpus", "--num-steps", "2,"],
    ["bench", "--topk", "1,x"],
    ["bench", "--threshold", ""],
    ["bench", "--policy", "lossless,"],
    ["bench", "--policy", "bogus"],
])
def test_malformed_list_flag_is_a_usage_error(workdir, tmp_path, capsys, argv):
    out = tmp_path / "never.out"
    extra = model_args(workdir) if argv[0] == "bench" else []
    with pytest.raises(SystemExit) as exc:
        main([*argv, *extra, "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: specjudge") and f"argument {argv[1]}" in err
    assert not out.exists()


def test_unwritable_output_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "tasks.jsonl"
    assert main(["gen-tasks", "--count", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("data error: ") and str(out) in err[0]


def test_remote_mining_failure_exits_three(workdir, completions_server,
                                           monkeypatch, capsys):
    completions_server.script = [(500, {"error": "down"})]
    monkeypatch.setenv("SPECJUDGE_API_TOKEN", "cli-token")
    sleeps = []
    monkeypatch.setattr(remote.time, "sleep", sleeps.append)
    rc = main(["mine", *model_args(workdir), "--remote-url",
               completions_server.url, "--remote-model", "toy",
               "--out", str(workdir / "never4.jsonl")])
    assert rc == 3
    assert "remote error" in capsys.readouterr().err
    assert completions_server.requests[0]["auth"] == "Bearer cli-token"
    assert len(completions_server.requests) == 4
    assert sleeps == [0.5, 1.0, 2.0]
    rc = main(["mine", *model_args(workdir), "--remote-url",
               completions_server.url, "--out", str(workdir / "never5.jsonl")])
    assert rc == 2  # --remote-url needs --remote-model


def _assert_help_ok(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: specjudge")
    assert "speculative decoding" in proc.stdout


def test_console_script_is_installed():
    """The `specjudge` script declared in pyproject.toml runs from this tree.

    The callable named in `[project.scripts]` is run the way pip's generated
    wrapper runs it, with this checkout's `src/` first on the path, so no
    install is needed. Where a `specjudge` executable is on PATH, it is
    checked too.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["specjudge"]
    module, attr = entry.split(":")
    wrapper = ("import sys\n"
               f"from {module} import {attr}\n"
               "sys.argv[0] = 'specjudge'\n"
               f"sys.exit({attr}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    _assert_help_ok(subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, env=env))
    exe = shutil.which("specjudge")
    if exe:
        _assert_help_ok(subprocess.run(
            [exe, "--help"], capture_output=True, text=True))
