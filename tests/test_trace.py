"""Trace capture and replay: exactness, divergence refusal, persistence."""

import json

import numpy as np
import pytest

from specjudge.lm import DataError, TokenSequence
from specjudge.mining import MiningConfig, mine_important
from specjudge.sampling import rollout
from specjudge.tasks import gen_arithmetic_task
from specjudge.toymodels import PerturbSpec, make_draft
from specjudge.trace import (SIDES, ReplayModel, load_trace,
                             record_trace, save_trace)

OUTSIDE = "context length {} outside recorded range"
DIVERGES = "context diverges from the recorded sequence"


@pytest.fixture(scope="module")
def recorded(pipeline):
    task = gen_arithmetic_task(123, 2, pipeline.vocab)
    prompt = task.prompt.tokens
    response = rollout(pipeline.target, prompt, task.max_response_len)
    seq = TokenSequence(prompt + tuple(response), len(prompt))
    trace = record_trace(pipeline.draft, pipeline.target, seq)
    return task, seq, trace


def test_full_width_replay_is_bit_exact(pipeline, recorded):
    _, seq, trace = recorded
    d_rep, t_rep = (ReplayModel(trace, pipeline.vocab, side) for side in SIDES)
    for live, rep in ((pipeline.draft, d_rep), (pipeline.target, t_rep)):
        for c in range(seq.prompt_len, len(seq.tokens) + 1):
            want_l, want_h = live.next_logits_hidden(seq.tokens[:c])
            got_l, got_h = rep.next_logits_hidden(seq.tokens[:c])
            assert np.array_equal(want_l, got_l), (rep.name, c)
            assert np.array_equal(want_h, got_h), (rep.name, c)


def test_replay_forward_parallel_serves_only_the_recorded_rows(pipeline, recorded):
    """Rows before prompt_len - 1 were never recorded: asking for one is refused,
    and every row from prompt_len - 1 on is the live model's, bit for bit."""
    _, seq, trace = recorded
    t_rep = ReplayModel(trace, pipeline.vocab, "target")
    first = seq.prompt_len - 1
    for start in range(first):
        with pytest.raises(DataError, match=f"^{OUTSIDE.format(start + 1)}$"):
            t_rep.forward_parallel(seq.tokens, start=start)
    for start in (first, first + 1, len(seq.tokens) - 1):
        live = pipeline.target.forward_parallel(seq.tokens, start=start)
        rep = t_rep.forward_parallel(seq.tokens, start=start)
        assert np.array_equal(rep.logits, live.logits)
        assert np.array_equal(rep.hidden, live.hidden)
        assert np.array_equal(t_rep.forward_logits(seq.tokens, start=start), live.logits)


def test_greedy_replay_reproduces_the_recorded_response(pipeline, recorded):
    _, seq, trace = recorded
    t_rep = ReplayModel(trace, pipeline.vocab, "target")
    replayed = rollout(t_rep, seq.prompt, len(seq.response))
    assert tuple(replayed) == seq.response


def test_replay_refuses_divergent_contexts(pipeline, recorded):
    _, seq, trace = recorded
    t_rep = ReplayModel(trace, pipeline.vocab, "target")
    with pytest.raises(DataError, match=f"^{OUTSIDE.format(seq.prompt_len - 1)}$"):
        t_rep.next_logits_hidden(seq.tokens[: seq.prompt_len - 1])  # too short
    with pytest.raises(DataError, match=f"^{OUTSIDE.format(len(seq.tokens) + 1)}$"):
        t_rep.next_logits_hidden(seq.tokens + (0,))  # past the horizon
    wrong = list(seq.tokens[: seq.prompt_len + 2])
    wrong[-1] = (wrong[-1] + 1) % pipeline.vocab.size
    with pytest.raises(DataError, match=f"^{DIVERGES}$"):
        t_rep.next_logits_hidden(tuple(wrong))


def test_replay_forward_parallel_refuses_divergent_sequences(pipeline, recorded):
    _, seq, trace = recorded
    t_rep = ReplayModel(trace, pipeline.vocab, "target")
    wrong = list(seq.tokens)
    wrong[seq.prompt_len + 1] = (wrong[seq.prompt_len + 1] + 1) % pipeline.vocab.size
    with pytest.raises(DataError, match=f"^{DIVERGES}$"):
        t_rep.forward_parallel(tuple(wrong), start=seq.prompt_len - 1)
    with pytest.raises(DataError, match=f"^{OUTSIDE.format(len(seq.tokens) + 1)}$"):
        t_rep.forward_parallel(seq.tokens + (0,), start=seq.prompt_len - 1)  # past the horizon


def test_replay_serves_the_row_after_the_final_token(pipeline, recorded):
    _, seq, trace = recorded
    d_rep = ReplayModel(trace, pipeline.vocab, "draft")
    want_l, want_h = pipeline.draft.next_logits_hidden(seq.tokens)
    got_l, got_h = d_rep.next_logits_hidden(seq.tokens)
    assert np.array_equal(want_l, got_l)
    assert np.array_equal(want_h, got_h)


def test_zero_noise_mining_matches_between_live_and_replay(pipeline):
    vocab = pipeline.vocab
    clone = make_draft(pipeline.target, PerturbSpec(), name="clone")
    task = gen_arithmetic_task(321, 2, vocab)
    prompt = task.prompt.tokens
    response = rollout(pipeline.target, prompt, task.max_response_len)
    seq = TokenSequence(prompt + tuple(response), len(prompt))
    trace = record_trace(clone, pipeline.target, seq)
    d_rep, t_rep = (ReplayModel(trace, vocab, side) for side in SIDES)

    live = mine_important(task, clone, pipeline.target, MiningConfig())
    replayed = mine_important(task, d_rep, t_rep, MiningConfig())
    assert live.records == replayed.records == []
    assert live.reference_tokens == replayed.reference_tokens
    assert live.final_tokens == replayed.final_tokens
    assert live.reference_answer == replayed.reference_answer
    assert live.rollbacks == replayed.rollbacks


def test_trace_round_trip_and_byte_stability(tmp_path, recorded):
    _, _, trace = recorded
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    save_trace(str(p1), trace)
    loaded = load_trace(str(p1))
    save_trace(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.tokens == trace.tokens
    assert loaded.prompt_len == trace.prompt_len
    assert loaded.names == trace.names
    for side in ("draft", "target"):
        assert np.array_equal(loaded.rows[side].logits, trace.rows[side].logits)
        assert np.array_equal(loaded.rows[side].hidden, trace.rows[side].hidden)
    (tmp_path / "bad.trace").write_text("{\"tokens\": [1, 2]}\n")
    with pytest.raises(DataError):
        load_trace(str(tmp_path / "bad.trace"))


def test_trace_rows_must_cover_the_response(tmp_path, recorded):
    _, _, trace = recorded
    path = tmp_path / "short.trace"
    save_trace(str(path), trace)
    head, draft, target = [json.loads(line) for line in path.read_text().splitlines()]
    target["logits"] = target["logits"][:-1]  # one row short
    path.write_text("".join(json.dumps(o) + "\n" for o in (head, draft, target)))
    with pytest.raises(DataError, match=r"len\(tokens\) - prompt_len \+ 1"):
        load_trace(str(path))


def test_record_trace_validation(pipeline, recorded):
    _, seq, trace = recorded
    prompt_only = TokenSequence(seq.prompt, len(seq.prompt))
    with pytest.raises(DataError):
        record_trace(pipeline.draft, pipeline.target, prompt_only)
    with pytest.raises(DataError):
        ReplayModel(trace, pipeline.vocab, "bogus")
