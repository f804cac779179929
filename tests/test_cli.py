"""End-to-end command-line workflows against temporary files."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specjudge import bench, cli, remote
from specjudge.cli import main, resolve_model
from specjudge.judge import FeatureConfig, JudgeModel, load_judge, save_judge
from specjudge.lm import DataError
from specjudge.mining import (MiningBudgetError, MiningConfig, TaskSkippedError,
                              export_dataset, load_dataset, mine_important,
                              mine_naive)
from specjudge.sampling import rollout
from specjudge.tasks import build_vocab, load_tasks


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


def test_decode_on_a_vocabulary_past_one_byte_per_id(tmp_path):
    """Max value 300 makes 318 ids, two bytes per packed id: decoding with an
    n-gram target on that corpus exits 0, and lossless equals target-only rollouts."""
    corpus, tasks, out = (tmp_path / name for name in ("corpus.txt", "tasks.jsonl", "out.jsonl"))
    assert main(["gen-corpus", "--max-value", "300", "--num-steps", "2", "--variants", "1",
                 "--out", str(corpus)]) == 0
    assert main(["gen-tasks", "--max-value", "300", "--count", "6", "--num-steps", "2",
                 "--out", str(tasks)]) == 0
    target = f"ngram:corpus={corpus},order=16,smoothing=0.2"
    draft = tmp_path / "draft.json"
    draft.write_text(json.dumps({"kind": "perturb", "base": target, "sigma": 0.6,
                                 "bias": {"Then": 1.4}, "seed": 7}))
    assert main(["decode", "--max-value", "300", "--target-model", target,
                 "--draft-model", str(draft), "--tasks", str(tasks), "--out", str(out)]) == 0
    vocab = build_vocab(300)
    assert vocab.size == 318
    model = resolve_model(target, vocab)
    want = [vocab.decode(rollout(model, task.prompt.tokens, task.max_response_len))
            for task in load_tasks(str(tasks), vocab)]
    assert [json.loads(line)["response"] for line in out.read_text().splitlines()] == want


FAILED_DECODE = "a decode that fails on purpose"


def three_tasks_failing_after_the_first(workdir, tmp_path, monkeypatch):
    """Model args over tasks 1..3, and the list of `bench.spec_decode` calls, which
    decode the first of them and raise one fixed DataError on the other two."""
    three = tmp_path / "three.jsonl"
    three.write_text("".join((workdir / "tasks.jsonl").read_text()
                             .splitlines(keepends=True)[1:4]))
    first, *others = (t.prompt.tokens for t in load_tasks(str(three), build_vocab(9)))
    assert first not in others
    calls, real = [], bench.spec_decode

    def failing(prompt, *a, **k):
        calls.append(prompt)
        if prompt != first:
            raise DataError(FAILED_DECODE)
        return real(prompt, *a, **k)

    monkeypatch.setattr(bench, "spec_decode", failing)
    args = model_args(workdir)
    args[args.index("--tasks") + 1] = str(three)
    return args, calls


def test_decode_writes_nothing_when_a_task_fails(workdir, tmp_path, capsys, monkeypatch):
    """Decoding three tasks stops at the first that fails, the second, and the
    task decoded before it is not written either."""
    args, calls = three_tasks_failing_after_the_first(workdir, tmp_path, monkeypatch)
    out = tmp_path / "never.jsonl"
    capsys.readouterr()
    assert main(["decode", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {FAILED_DECODE}"]
    assert len(calls) == 2
    assert not out.exists()
    assert not (tmp_path / "never.jsonl.manifest.json").exists()


def test_decode_and_bench_share_one_failure_rule(workdir, tmp_path, capsys, monkeypatch):
    """bench counts each failed task and goes on; decode stops at the first,
    with the same message, and decodes nothing after it."""
    args, calls = three_tasks_failing_after_the_first(workdir, tmp_path, monkeypatch)
    capsys.readouterr()
    report = tmp_path / "report.jsonl"
    assert main(["bench", *args, "--format", "jsonl", "--out", str(report)]) == 0
    failed = capsys.readouterr().err.splitlines()
    assert len(calls) == 3
    (row,) = [json.loads(line) for line in report.read_text().splitlines()]
    assert row["failures"] == len(failed) == 2
    first_id = json.loads((tmp_path / "three.jsonl").read_text().splitlines()[1])["task_id"]
    prefix = f"decode failed, task {first_id}: "
    assert failed[0].startswith(prefix)
    calls.clear()
    assert main(["decode", *args, "--out", str(tmp_path / "never.jsonl")]) == 2
    assert capsys.readouterr().err.splitlines() \
        == ["data error: " + failed[0][len(prefix):]]
    assert len(calls) == 2


def test_decode_rows_agree_with_the_bench_row(workdir, tmp_path):
    policy = ["--policy", "topk", "--topk", "2", "--window", "8"]
    decoded, report = tmp_path / "decoded.jsonl", tmp_path / "report.jsonl"
    assert main(["decode", *model_args(workdir), *policy, "--out", str(decoded)]) == 0
    assert main(["bench", *model_args(workdir), *policy, "--format", "jsonl",
                 "--out", str(report)]) == 0
    rows = [json.loads(line) for line in decoded.read_text().splitlines()]
    (row,) = [json.loads(line) for line in report.read_text().splitlines()]
    assert sum(r["correct"] for r in rows) / len(rows) == row["accuracy"]
    assert sum(r["cycles"] for r in rows) == row["cycles"]


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
@pytest.mark.parametrize("command", ["bench", "decode", "mine"])
@pytest.mark.filterwarnings("error")  # a warning would be one more line on stderr
def test_bad_sampling_settings_are_one_data_error(workdir, tmp_path, capsys, command,
                                                  settings, message):
    out = tmp_path / "never.out"
    rc = main([command, *model_args(workdir), *settings, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not out.exists()
    assert not (tmp_path / "never.out.manifest.json").exists()


@pytest.mark.parametrize("command", ["bench", "decode"])
def test_topk_zero_is_one_data_error(workdir, tmp_path, capsys, command):
    out = tmp_path / "never.out"
    assert main([command, *model_args(workdir), "--policy", "topk", "--topk", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["data error: top-K needs k >= 1"]
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


@pytest.mark.parametrize("command, extra, summary, digest", [
    ("gen-tasks", ["--max-value", "9", "--count", "3", "--num-steps", "2", "--seed", "5"],
     "wrote 3 tasks to {out}\n",
     "3d1bc0cb3fcf2dac6598ff8e521bdd7df37ce22c3697b8eeee1700109510dc41"),
    ("gen-corpus", ["--max-value", "9", "--num-steps", "2", "--variants", "1"],
     "wrote 50 sequences to {out}\n",
     "52c2a7420a7d11c6eb9c5440567c7d605447241cbaa75a7dab6181c67daaa6ab"),
    ("mine", ["--seed", "3"], "wrote 83 records to {out} (important fraction 0.422, "
     "0 tasks skipped, 0 over the rollback cap)\n",
     "f664ca107136454a0b67b5edd81c2a217901520609c8912f2498e6c610a76a08"),
    ("train-judge", ["--seed", "1"],
     "wrote judge to {out} (C=0.1, val AUC=0.9885, threshold=0.61807)\n",
     "f8e6f796f562d385b5d3b17217b238f94333cb0caba8303ba3a75248fea19761"),
    ("decode", ["--window", "8", "--policy", "topk", "--topk", "2"],
     "decoded 12 tasks to {out}\n",
     "dcf8ed65c01c89f8a239a4afef896ed0411a30ce2257b5e161b9cd650062dca2"),
    ("bench", ["--window", "8", "--policy", "lossless,topk"], None,
     "a7a2906d9a365a52716fd393e61dc805eda9b79c99f06ad93e3fa1110cc6f86c"),
    ("bench", ["--policy", "lossless", "--format", "jsonl"], None,
     "35cceea35abfa2725ad90956b5b5e3cf35b212b6149334d8298c025cf294378b"),
], ids=["gen-tasks", "gen-corpus", "mine", "train-judge", "decode", "bench-csv",
        "bench-jsonl"])
def test_each_command_writes_its_output_then_manifest_and_summary(
        workdir, tmp_path, capsys, mined, command, extra, summary, digest):
    """Exit 0; stdout is the command's summary (bench's: its report, byte for byte); the
    manifest names the command and every parsed option; the output's bytes are pinned."""
    out = tmp_path / "out"
    if command == "train-judge":
        export_dataset(str(tmp_path / "mined.jsonl"), mined.records)
        extra = ["--dataset", str(tmp_path / "mined.jsonl"), *extra]
    elif command not in ("gen-tasks", "gen-corpus"):
        extra = [*model_args(workdir), *extra]
    argv = [command, *extra, "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert stdout == (out.read_bytes() if summary is None else
                      summary.format(out=out).encode())
    options = vars(cli.build_parser().parse_args(argv))
    del options["func"], options["command"]
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest == {"command": command, "options": options}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


UNDECODABLE = b"\xff\xfe\x80 not UTF-8\n"


@pytest.mark.parametrize("loader, content", [
    ("dataset", None), ("judge", None), ("tasks", None),
    ("corpus", None), ("model spec", None), ("model spec", "directory"),
    ("dataset", b""), ("tasks", b"\n  \n"), ("model spec", b"{not JSON\n"),
    ("judge", b"[" * 10 ** 5), ("tasks", UNDECODABLE), ("corpus", UNDECODABLE),
    ("model spec", UNDECODABLE), ("corpus", b"\n  \n"),
], ids=["dataset", "judge", "tasks", "corpus", "spec", "spec-directory",
        "dataset-empty", "tasks-blank", "spec-not-json", "judge-nested-too-deep",
        "tasks-undecodable", "corpus-undecodable", "spec-undecodable", "corpus-blank"])
def test_unreadable_input_file_is_a_data_error(workdir, tmp_path, capsys, loader, content):
    """A file that cannot be opened (missing, or a directory) is `cannot read`; one
    whose bytes are not UTF-8, are not JSON or hold no data at all is `bad`: one line
    naming the file either way.  A `*.json` spec with no `=` is a file even if missing."""
    path = str(tmp_path / f"input-{loader.replace(' ', '-')}.json")  # .json: a spec file
    if content == "directory":
        os.mkdir(path)
    elif content is not None:
        Path(path).write_bytes(content)
    out = str(tmp_path / "never.out")
    args = {
        "dataset": ["train-judge", "--dataset", path, "--out", out],
        "judge": ["decode", *model_args(workdir), "--policy", "judge",
                  "--judge", path, "--out", out],
        "tasks": ["decode", *model_args(workdir)[:-1], path, "--out", out],
        "corpus": ["decode", *model_args(workdir), "--target-model",
                   f"ngram:corpus={path}", "--out", out],
        "model spec": ["decode", *model_args(workdir), "--draft-model", path,
                       "--out", out],
    }[loader]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    verdict = "bad" if isinstance(content, bytes) else "cannot read"
    what = loader if loader == "model spec" else f"{loader} file"
    assert err[0].startswith(f"data error: {verdict} {what} {path}: ")
    assert not os.path.exists(out)


def _set(key, value):
    def edit(row):
        row[key] = value
    return edit


def _copy(key, source):
    def edit(row):
        row[key] = row[source]
    return edit


def _set_feature_config(key, value):
    def edit(row):
        row["feature_config"][key] = value
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
    # a string field holding another type would fail far from the file, or not at all
    ("tasks", _set("prompt", 5), "prompt must be a string, got 5"),
    ("tasks", _set("task_id", 7), "task_id must be a string, got 7"),
    ("dataset", _set("task_id", [1, 2]), "task_id must be a string, got [1, 2]"),
    ("dataset", _set("task_id", None), "task_id must be a string, got None"),
    ("dataset", _set("context_hash", 12), "context_hash must be a string, got 12"),
    ("judge", _set("dataset_hash", False), "dataset_hash must be a string, got False"),
    ("judge", _set("bias", 10 ** 400), "int too large to convert to float"),
    # a value its record refuses names the file too
    ("tasks", _set("prompt", "Start zed"), "unknown token 'zed'"),
    ("tasks", _set("max_response_len", 0), "max_response_len must be >= 1"),
    ("judge", _set("threshold", 1.0), "threshold must lie strictly inside (0, 1)"),
    # a number field holding a string or bool would be coerced; one not finite is refused
    ("judge", _set("threshold", "0.7"), "threshold must be a finite number, got '0.7'"),
    ("judge", _set("bias", True), "bias must be a finite number, got True"),
    ("judge", _set("C", "1e-3"), "C must be a finite number, got '1e-3'"),
    ("judge", _set("weights", ["1", "2", True] + [0.0] * 34),
     "weights must be a list of numbers"),
    ("dataset", _set("draft_hidden", ["0.5", 1.0]), "draft_hidden must be a list of numbers"),
    ("dataset", _set("target_hidden", [True, 0.5]), "target_hidden must be a list of numbers"),
    ("judge", _set("C", float("inf")), "C must be a finite number, got inf"),
    ("dataset", _set("draft_hidden", [float("nan")]),
     "draft_hidden must be a list of numbers, all finite"),
    ("dataset", _copy("draft_token", "target_token"),
     "a mismatch record needs differing tokens"),
    ("judge", _set("feature_dim", 5), "weight vector does not match feature_dim"),
], ids=["important-string", "position-float", "token-bool", "hidden-scalar",
        "hidden-2d", "feature-dim-float", "seed-float", "layout-key-prev",
        "layout-key-draft-token", "layout-empty", "prompt-int", "task-id-int", "task-id-list", "task-id-null", "context-hash-int",
        "dataset-hash-bool", "bias-past-float", "prompt-unknown-token",
        "max-response-len-zero", "threshold-one", "threshold-string", "bias-bool",
        "c-string", "weights-strings-and-bool", "hidden-string", "hidden-bool",
        "c-inf", "hidden-nan",
        "tokens-equal", "feature-dim-off"])
def test_bad_value_in_an_input_file_is_one_data_error(workdir, tmp_path, capsys, mined,
                                                      loader, edit, message):
    """Loaders refuse a value they would otherwise coerce, or crash on later."""
    path = tmp_path / f"input.{loader}"
    out = tmp_path / "never.out"
    if loader == "dataset":
        export_dataset(str(path), mined.records[:2])
        argv = ["train-judge", "--dataset", str(path), "--out", str(out)]
    elif loader == "tasks":
        shutil.copy(workdir / "tasks.jsonl", path)
        argv = ["decode", *model_args(workdir)[:-1], str(path), "--out", str(out)]
    else:
        save_judge(str(path), JudgeModel(weights=np.zeros(37), bias=0.0,
                                         feature_config=FeatureConfig(), C=1.0))
        argv = ["decode", *model_args(workdir), "--policy", "judge",
                "--judge", str(path), "--out", str(out)]
    lines = path.read_text().splitlines(keepends=True)
    if loader == "judge":  # one indented JSON object, not JSON lines
        lines = [path.read_text()]
    row = json.loads(lines[0])
    edit(row)
    lines[0] = json.dumps(row) + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"data error: bad {loader} file") and message in err[0]
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def valid_inputs(workdir, tmp_path_factory, mined):
    """A valid file for each reader with the command that reads it, which runs; one
    task keeps each run short."""
    root = tmp_path_factory.mktemp("valid")
    tasks, dataset, judge = (root / name for name in (
        "tasks.jsonl", "dataset.jsonl", "judge.json"))
    tasks.write_text((workdir / "tasks.jsonl").read_text().splitlines(keepends=True)[0])
    for name in ("draft.json", "target.json"):
        shutil.copy(workdir / name, root / name)
    models = ["--max-value", "9", "--draft-model", str(root / "draft.json"),
              "--target-model", str(root / "target.json"), "--tasks", str(tasks)]
    export_dataset(str(dataset), mined.records)
    save_judge(str(judge), JudgeModel(weights=np.zeros(37), bias=0.0,
                                      feature_config=FeatureConfig(), C=1.0))
    out = str(root / "out")
    inputs = {
        "tasks": (tasks, ["decode", *models, "--out", out]),
        "dataset": (dataset, ["train-judge", "--dataset", str(dataset), "--out", out]),
        "judge": (judge, ["decode", *models, "--policy", "judge", "--judge", str(judge),
                          "--out", out]),
        "target spec": (root / "target.json", ["decode", *models, "--out", out]),
        "draft spec": (root / "draft.json", ["decode", *models, "--out", out]),
    }
    for _, argv in inputs.values():
        assert main(argv) == 0
    os.remove(out)
    return inputs


@pytest.mark.parametrize("reader", ["tasks", "dataset", "judge", "target spec",
                                    "draft spec"])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_any_value_in_an_input_field_runs_or_is_one_data_error(valid_inputs, reader, data):
    """A valid input file with one top-level field of one line (the whole object of a
    .json file) set to any JSON value runs, or ends in one data error line: it never
    raises."""
    path, argv = valid_inputs[reader]
    text = path.read_text()
    lines = [text] if path.suffix == ".json" else text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    row = json.loads(lines[i])
    row[data.draw(st.sampled_from(sorted(row)), label="field")] = data.draw(JSON_VALUES)
    lines[i] = json.dumps(row)
    out, err = Path(argv[-1]), io.StringIO()
    try:
        path.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        path.write_text(text)
    if rc == 2:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("data error: ") and not out.exists()
    else:
        assert rc == 0
    out.unlink(missing_ok=True)


def test_missing_required_argument_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["gen-tasks", "--count", "2"])  # no --out
    assert exc.value.code == 1


def test_record_trace_is_a_usage_error(workdir, tmp_path, capsys):
    """Trace record and replay were removed: the old command is an unknown one."""
    out = tmp_path / "never.trace"
    with pytest.raises(SystemExit) as exc:
        main(["record-trace", *model_args(workdir), "--out", str(out)])
    assert exc.value.code == 1
    assert "invalid choice: 'record-trace'" in capsys.readouterr().err
    assert not out.exists()


def test_docs_name_the_parser_subcommands():
    """The subcommands in `cli`'s docstring, the `specjudge <cmd>` lines of the
    README's command block and the parser's choices are one set."""
    (listed,) = re.findall(r"Subcommands: ([^.]+)\.", cli.__doc__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = set(sub.choices)
    assert len(parsed) == 6
    assert {name.strip() for name in listed.split(",")} == parsed
    assert set(re.findall(r"^specjudge (\S+)", block, re.M)) == parsed


@pytest.mark.parametrize("spec, message", [
    ("ngram:order=3", "ngram model spec needs corpus="),
    ("ngram:corpus={corpus},order=x", "bad model spec value order='x'"),
    ("ngram:corpus={corpus},smoothing=lots", "bad model spec value smoothing="),
    ("ngram:corpus={corpus},seed=-1", "seed must be >= 0"),
    ("perturb:sigma=0.3", "perturb model spec needs base="),
    ("perturb:base={target},sigma=high", "bad model spec value sigma="),
    ("perturb:base={target},bias=Then:up", "bad model spec value Then='up'"),
    ("perturb:base={target},seed=-1", "seed must be in 0..2**64-1"),
    ("perturb:base={target},bias=zed:1", "bias token 'zed' not in vocab"),
    ("trace:path=x", "unknown model kind 'trace'"),
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
    # a JSON value parses as its inline text would: no integer field truncates
    ({"kind": "perturb", "base": "target.json", "seed": 3.7},
     "bad model spec value seed=3.7"),
    ({"kind": "perturb", "base": "target.json", "seed": True},
     "bad model spec value seed=True"),
    ({"kind": "perturb", "base": "target.json", "seed": 1e20},
     "bad model spec value seed=1e+20"),
    ({"kind": "ngram", "corpus": "corpus\0.txt"}, "embedded null byte"),
    ({"kind": "trace", "path": "x.trace"}, "unknown model kind 'trace'"),
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


@pytest.mark.parametrize("specs", [
    {"d.json": "d.json"},
    {"d.json": "e.json", "e.json": "d.json"},
], ids=["self", "two-files"])
@pytest.mark.parametrize("command", ["bench", "decode", "mine"])
def test_model_spec_cycle_is_one_data_error(workdir, tmp_path, monkeypatch, capsys,
                                            command, specs):
    """A perturb spec whose bases lead back to itself is a data error naming the chain
    of spec files, not an endless recursion."""
    monkeypatch.chdir(tmp_path)
    for name, base in specs.items():
        Path(name).write_text(json.dumps({"kind": "perturb", "base": base, "sigma": 0.3}))
    args = model_args(workdir)
    args[args.index("--draft-model") + 1] = "d.json"
    assert main([command, *args, "--out", "never.out"]) == 2
    chain = " -> ".join(str(tmp_path.resolve() / name) for name in [*specs, "d.json"])
    assert capsys.readouterr().err.splitlines() == [
        f"data error: model spec names itself as a base: {chain}"]
    assert not Path("never.out").exists()


def test_spec_file_paths_resolve_against_the_file(workdir, tmp_path, monkeypatch):
    """Relative corpus and base paths inside a spec file name files beside it,
    for every command run from another directory; the shared n-gram is trained once."""
    monkeypatch.chdir(tmp_path)
    specs = Path("specs")
    specs.mkdir()
    shutil.copy(workdir / "corpus.txt", specs / "corpus.txt")
    (specs / "target.json").write_text('{"kind": "ngram", "corpus": "corpus.txt"}')
    (specs / "draft.json").write_text('{"kind": "perturb", "base": "target.json", '
                                      '"sigma": 0.3, "seed": 7}')
    trained, cli_train = [], cli.train_ngram
    monkeypatch.setattr(cli, "train_ngram",
                        lambda *a, **k: trained.append(cli_train(*a, **k)) or trained[-1])
    models = ["--max-value", "9", "--draft-model", "specs/draft.json",
              "--target-model", "specs/target.json", "--tasks", str(workdir / "tasks.jsonl")]
    for command, out in (("mine", "mined.jsonl"), ("decode", "decoded.jsonl"),
                         ("bench", "report.csv")):
        assert main([command, *models, "--out", out]) == 0
    assert len(trained) == 3  # one per command
    vocab, ngrams = build_vocab(9), {}
    draft = resolve_model("specs/draft.json", vocab, ngrams=ngrams)
    assert draft.base is resolve_model("specs/target.json", vocab, ngrams=ngrams)


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


@pytest.mark.parametrize("flags", [["--remote-url", "http://127.0.0.1:9"],
                                   ["--remote-model", "toy"]], ids=["url", "model"])
def test_remote_flags_go_together(workdir, tmp_path, capsys, flags):
    out = tmp_path / "never.jsonl"
    assert main(["mine", *model_args(workdir), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "data error: --remote-url and --remote-model go together"]
    assert not out.exists()
    assert not (tmp_path / "never.jsonl.manifest.json").exists()


@pytest.mark.parametrize("text, code, last_line", [
    ("Now zed plus 3", 3, "remote error: completion text holds an unknown token 'zed'"),
    ("", 2, "data error: mining produced no records"),
], ids=["out-of-vocabulary", "empty"])
def test_unusable_remote_completion_writes_nothing(workdir, tmp_path, completions_server,
                                                   capsys, text, code, last_line):
    """A word outside the vocabulary is a remote protocol error; an empty completion
    skips every task, and mining with no record is a data error."""
    completions_server.script = [(200, {"choices": [{"text": text}]})]
    out = tmp_path / "never.jsonl"
    assert main(["mine", *model_args(workdir), "--remote-url", completions_server.url,
                 "--remote-model", "toy", "--out", str(out)]) == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and err[-1] == last_line
    if code == 2:
        assert len(err) == 13 and all(line.startswith("skipped: ") for line in err[:-1])
        assert "empty reference generation" in err[0]
    else:
        assert len(err) == 1
    assert not out.exists()
    assert not (tmp_path / "never.jsonl.manifest.json").exists()


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
