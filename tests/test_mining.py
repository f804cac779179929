"""Important-token mining: labels, adoption, budgets, and serialization."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import script_line
from specjudge import mining, sampling
from specjudge.judge import FeatureConfig, build_examples
from specjudge.lm import DataError, TokenSequence
from specjudge.mining import (MiningBudgetError, MiningConfig, MismatchRecord,
                              TaskSkippedError, context_fingerprint,
                              dataset_fingerprint, export_dataset, load_dataset,
                              mine_important, mine_naive)
from specjudge.sampling import RandomState, rollout
from specjudge.tasks import Task, extract_answer, gen_arithmetic_task
from specjudge.toymodels import PerturbedModel, PerturbSpec, ScriptedModel, make_draft


def pipeline_task(pipeline):
    return gen_arithmetic_task(2000, 2, pipeline.vocab)


def filler_digit_pair(vocab):
    """Target tells one worked addition; the draft swaps the filler word
    (harmless) and, on the adopted path, the intermediate digit (fatal)."""
    ids = vocab.token_to_id
    start, now, then = ids["Start"], ids["Now"], ids["Then"]
    response = [ids[w] for w in
                "Now 8 plus 1 is 9 . The final answer is 9 . </s>".split()]
    script = {}
    script_line(script, (start,), response)
    swapped = [then] + response[1:]
    script_line(script, (start,), [now])  # keep the target's own first choice
    script_line(script, (start, then), swapped[1:])
    wrong_tail = [ids[w] for w in ". The final answer is 8 . </s>".split()]
    script_line(script, tuple([start] + swapped[:5]) + (ids["8"],), wrong_tail)
    target = ScriptedModel(vocab, script, name="worked-target")
    overrides = {(start,): then,
                 tuple([start] + swapped[:5]): ids["8"]}
    draft = ScriptedModel(vocab, {**script, **overrides}, name="swapping-draft")
    task = Task(task_id="filler-digit", prompt=TokenSequence((start,), 1),
                oracle_answer=9, max_response_len=len(response),
                seed=0)
    return task, draft, target


def test_zero_noise_draft_yields_no_records(pipeline):
    clean = make_draft(pipeline.target, PerturbSpec())
    task = pipeline_task(pipeline)
    result = mine_important(task, clean, pipeline.target)
    assert result.records == []
    assert result.final_tokens == result.reference_tokens


def test_filler_swap_unimportant_digit_swap_important(vocab):
    task, draft, target = filler_digit_pair(vocab)
    result = mine_important(task, draft, target)
    labels = [(r.position, r.important) for r in result.records]
    assert labels == [(1, False), (6, True)]
    then_id = vocab.token_to_id["Then"]
    assert result.final_tokens[1] == then_id  # harmless swap was adopted
    final_answer = extract_answer(result.final_tokens[1:], vocab)
    assert final_answer == 9 == result.reference_answer


def test_naive_labeling_never_adopts(vocab):
    task, draft, target = filler_digit_pair(vocab)
    result = mine_naive(task, draft, target)
    # in isolation only the filler mismatch exists; the digit swap is
    # reachable only after adopting the filler, which naive never does
    assert [(r.position, r.important) for r in result.records] == [(1, False)]
    assert result.final_tokens == result.reference_tokens


def test_self_correcting_pair_separates_miners(self_correcting_pair):
    w = self_correcting_pair
    naive = mine_naive(w.task, w.draft, w.target)
    assert naive.records and not any(r.important for r in naive.records)
    mined = mine_important(w.task, w.draft, w.target)
    assert sum(r.important for r in mined.records) >= 1
    final_answer = extract_answer(mined.final_tokens[1:], w.target.vocab)
    assert final_answer == mined.reference_answer == 7


def test_record_fields_recompute(mined, pipeline):
    # the first record of a task is mined before any adoption, so its
    # context is a prefix of the reference and every field can be recomputed
    result = next(r for r in mined.results if r.records)
    rec = result.records[0]
    prev = result.reference_tokens[: rec.position]
    branch = prev + (rec.draft_token,)
    assert rec.task_id == result.task_id
    assert rec.target_token == result.reference_tokens[rec.position]
    assert rec.draft_token != rec.target_token
    assert rec.context_hash == context_fingerprint(prev)
    np.testing.assert_array_equal(rec.draft_hidden,
                                  pipeline.draft.next_logits_hidden(branch)[1])
    np.testing.assert_array_equal(rec.target_hidden,
                                  pipeline.target.next_logits_hidden(branch)[1])


def test_record_positions_strictly_increase(mined):
    for result in mined.results:
        positions = [r.position for r in result.records]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)
        assert result.rollbacks <= 4 * len(result.reference_tokens)


def test_mismatch_indices_alignment(vocab):
    """Choice i of positionwise_choices(start=p) predicts position p + i."""
    task, draft, target = filler_digit_pair(vocab)
    prompt = task.prompt.tokens
    tokens = prompt + tuple(rollout(target, prompt, task.max_response_len))

    def mismatches(model):
        choices = sampling.positionwise_choices(model, tokens, start=len(prompt))
        return [p for p, c in enumerate(choices, len(prompt)) if c != tokens[p]]

    assert mismatches(draft) == [1]
    assert mismatches(target) == []


def test_rollback_cap_raises_with_partial_records(vocab):
    task, draft, target = filler_digit_pair(vocab)
    with pytest.raises(MiningBudgetError) as err:
        mine_important(task, draft, target, MiningConfig(max_rollbacks=0))
    assert err.value.records == []
    with pytest.raises(MiningBudgetError) as err:
        mine_important(task, draft, target, MiningConfig(max_rollbacks=1))
    assert [r.important for r in err.value.records] == [False]  # partial yield
    done = mine_important(task, draft, target, MiningConfig(max_rollbacks=2))
    assert len(done.records) == 2


def test_negative_rollback_cap_rejected():
    assert MiningConfig(max_rollbacks=0).max_rollbacks == 0
    with pytest.raises(DataError, match="max_rollbacks"):
        MiningConfig(max_rollbacks=-3)


def test_unparseable_reference_skips_task(vocab):
    start = vocab.token_to_id["Start"]
    silent = ScriptedModel(vocab, {})  # immediately emits end-of-sequence
    task = Task(task_id="silent", prompt=TokenSequence((start,), 1),
                oracle_answer=1, max_response_len=5, seed=0)
    with pytest.raises(TaskSkippedError):
        mine_important(task, silent, silent)


def test_sampled_mining_is_seed_reproducible(pipeline):
    # T=0.3 keeps the sampled reference parseable for this task/state pair
    task = pipeline_task(pipeline)
    cfg = MiningConfig(temperature=0.3, state=RandomState(0))
    first = mine_important(task, pipeline.draft, pipeline.target, cfg)
    second = mine_important(task, pipeline.draft, pipeline.target, cfg)
    assert first.records, "expected sampled mismatches for this seed pair"
    assert first.reference_tokens == second.reference_tokens
    assert [(r.position, r.draft_token, r.important) for r in first.records] == \
        [(r.position, r.draft_token, r.important) for r in second.records]


def _same_record(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(MismatchRecord))


@pytest.mark.parametrize("cfg", [MiningConfig(),
                                 MiningConfig(temperature=0.3, state=RandomState(0))])
def test_suffix_recompute_equals_full_recompute(pipeline, monkeypatch, cfg):
    """Recomputing only the choices after an adopted swap changes nothing."""
    tasks = [gen_arithmetic_task(2000 + i, 2 + i % 2, pipeline.vocab) for i in range(16)]

    def mine_all():
        out = []
        for task in tasks:
            try:
                out.append(mine_important(task, pipeline.draft, pipeline.target, cfg))
            except TaskSkippedError:
                continue
        return out

    suffix = mine_all()

    def every_position(model, tokens, temperature=0.0, state=None, start=0):
        return sampling.positionwise_choices(model, tokens, temperature, state)[start:]

    monkeypatch.setattr(mining, "positionwise_choices", every_position)
    full = mine_all()
    assert any(not r.important for x in full for r in x.records)  # swaps were adopted
    assert [r.final_tokens for r in suffix] == [r.final_tokens for r in full]
    assert [r.rollbacks for r in suffix] == [r.rollbacks for r in full]
    pairs = [(a, b) for x, y in zip(suffix, full) for a, b in zip(x.records, y.records)]
    assert len(pairs) == sum(len(r.records) for r in full) > 0
    assert all(_same_record(a, b) for a, b in pairs)


@pytest.mark.parametrize("cfg", [MiningConfig(),
                                 MiningConfig(temperature=0.3, state=RandomState(0))])
def test_adopted_record_reads_its_draft_row_from_the_suffix_pass(pipeline, monkeypatch, cfg):
    """An adopted swap is recorded after the suffix pass that starts at its draft
    token, so its record draws no perturbation row; an important record, an adopted
    one with no suffix, and every naive record draw exactly one."""
    tasks = [gen_arithmetic_task(2000 + i, 2 + i % 2, pipeline.vocab) for i in range(16)]
    events, deltas = [], []
    draw, suffix, record = PerturbedModel._delta, mining.positionwise_choices, mining._record

    def counted_draw(self, *args):  # on the class: the draft is a session model
        if self is pipeline.draft:
            deltas.append(args)
        return draw(self, *args)

    def logged_suffix(model, tokens, temperature=0.0, state=None, start=0):
        events.append(("suffix", start))
        return suffix(model, tokens, temperature, state, start)

    def logged_record(task_id, tokens, t, draft_token, important, draft, target):
        deltas.clear()
        rec = record(task_id, tokens, t, draft_token, important, draft, target)
        events.append(("record", t, important, len(deltas)))
        return rec

    monkeypatch.setattr(PerturbedModel, "_delta", counted_draw)
    monkeypatch.setattr(mining, "positionwise_choices", logged_suffix)
    monkeypatch.setattr(mining, "_record", logged_record)
    for miner in (mine_important, mine_naive):
        events.clear()
        for task in tasks:
            try:
                miner(task, pipeline.draft, pipeline.target, cfg)
            except TaskSkippedError:
                continue
        # (important, after its own suffix pass, draws) per record
        records = [(e[2], events[i - 1] == ("suffix", e[1] + 1), e[3])
                   for i, e in enumerate(events) if e[0] == "record"]
        if miner is mine_important:
            assert {r[:2] for r in records} >= {(True, False), (False, True)}
            assert all(n == (0 if suffixed else 1) for _, suffixed, n in records)
        else:
            assert records and all(n == 1 for *_, n in records)


def test_fixture_mining_draws_one_perturbation_row_per_row_it_reads(pipeline, monkeypatch):
    """Mining tasks 2000..2199 draws each draft row it reads once: every suffix
    pass reads all its rows, and a record right after its suffix pass reads that
    pass's first row, even a pass of one row."""
    draft = make_draft(pipeline.target, pipeline.draft.spec)  # no window left by other tests
    noise, drawn = PerturbedModel._noise, []

    def counted(self, keys):
        if self is draft:
            drawn.append(np.size(keys))
        return noise(self, keys)

    monkeypatch.setattr(PerturbedModel, "_noise", counted)
    records = []
    for i in range(200):
        try:
            records += mine_important(gen_arithmetic_task(2000 + i, 2 + i % 2, pipeline.vocab),
                                      draft, pipeline.target).records
        except TaskSkippedError:
            continue
    assert len(records) == 491
    assert (len(drawn), sum(drawn)) == (691, 5977)


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(0, 200), st.integers(-(2**70), 2**70)), max_size=40))
def test_context_fingerprint_is_the_json_digest(tokens):
    want = hashlib.sha256(json.dumps(tokens).encode()).hexdigest()[:16]
    assert context_fingerprint(tuple(tokens)) == want


@pytest.mark.parametrize("cfg", [MiningConfig(),
                                 MiningConfig(temperature=0.3, state=RandomState(0))])
def test_both_miners_label_the_first_mismatch_alike(pipeline, cfg):
    """Before any swap is adopted, both miners run the same labeling step."""
    compared = 0
    for i in range(24):
        task = gen_arithmetic_task(2000 + i, 2 + i % 2, pipeline.vocab)
        try:
            naive = mine_naive(task, pipeline.draft, pipeline.target, cfg)
        except TaskSkippedError:
            continue
        important = mine_important(task, pipeline.draft, pipeline.target, cfg)
        assert bool(naive.records) == bool(important.records)
        if naive.records:
            assert _same_record(naive.records[0], important.records[0])
            compared += 1
    assert compared > 0


def test_generation_hook_replaces_local_target(pipeline):
    task = pipeline_task(pipeline)
    local = mine_important(task, pipeline.draft, pipeline.target)
    hook = lambda prefix, budget: rollout(pipeline.target, prefix, budget)
    hooked = mine_important(task, pipeline.draft, pipeline.target,
                            target_generate=hook)
    assert hooked.final_tokens == local.final_tokens
    assert [(r.position, r.important) for r in hooked.records] == \
        [(r.position, r.important) for r in local.records]


def test_export_load_round_trip(tmp_path, mined):
    path = tmp_path / "dataset.jsonl"
    subset = mined.records[:25]
    export_dataset(str(path), subset)
    loaded = load_dataset(str(path))
    assert len(loaded) == len(subset)
    for a, b in zip(subset, loaded):
        assert (a.task_id, a.position, a.target_token, a.draft_token,
                a.important, a.context_hash) == \
            (b.task_id, b.position, b.target_token, b.draft_token,
             b.important, b.context_hash)
        np.testing.assert_array_equal(a.draft_hidden, b.draft_hidden)
        np.testing.assert_array_equal(a.target_hidden, b.target_hidden)
    assert dataset_fingerprint(subset) == dataset_fingerprint(loaded)
    assert dataset_fingerprint(subset) != dataset_fingerprint(subset[:-1])


def test_extra_dataset_fields_are_ignored(tmp_path, mined):
    """Older datasets also stored each model's hidden row before the
    mismatch, as `prev_` plus the field name; such lines load as without it."""
    path, old = tmp_path / "dataset.jsonl", tmp_path / "old.jsonl"
    export_dataset(str(path), mined.records[:25])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    old.write_text("".join(
        json.dumps({**row, **{"prev_" + key: row[key][::-1]
                              for key in ("draft_hidden", "target_hidden")}}) + "\n"
        for row in rows))
    records, old_records = load_dataset(str(path)), load_dataset(str(old))
    assert len(old_records) == len(records)
    for a, b in zip(records, old_records):
        for field in dataclasses.fields(MismatchRecord):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))
    assert dataset_fingerprint(old_records) == dataset_fingerprint(records)
    np.testing.assert_array_equal(build_examples(old_records, FeatureConfig()).X,
                                  build_examples(records, FeatureConfig()).X)
