"""Arithmetic task generation, answer extraction, and the training corpus."""

import collections
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from specjudge import tasks as tasks_mod
from specjudge.cli import main
from specjudge.lm import DataError, Vocab
from specjudge.tasks import (Chain, CONNECTIVES, answers_equivalent,
                             build_vocab, count_chains, enumerate_chains,
                             extract_answer, gen_arithmetic_task, gen_corpus,
                             load_tasks, prompt_words, response_budget,
                             response_words, sample_chain, save_tasks,
                             task_from_chain)


def eval_chain(chain):
    # independent oracle: fold the ops with plain integer arithmetic
    v = chain.start
    for op, k in chain.ops:
        v = v + k if op == "Add" else v * k
    return v


def test_chain_values_match_integer_oracle():
    rng = random.Random(0)
    for _ in range(200):
        num_steps = rng.randint(2, 3)
        chain = sample_chain(rng, num_steps)
        assert len(chain.ops) == num_steps - 1  # the start counts as a step
        assert chain.answer == eval_chain(chain)
    with pytest.raises(DataError):
        sample_chain(rng, 1)
    with pytest.raises(DataError):
        sample_chain(rng, 9)


def test_prompt_and_response_rendering():
    chain = Chain(start=7, ops=(("Add", 3), ("Multiply", 2)))
    assert prompt_words(chain) == [
        "Start", "with", "7", ".", "Add", "3", ".",
        "Finally", "Multiply", "by", "2", ".",
    ]
    words = response_words(chain, ("Now", "Then"))
    assert words == [
        "Now", "7", "plus", "3", "is", "10", ".",
        "Then", "10", "times", "2", "is", "20", ".",
        "The", "final", "answer", "is", "20", ".", "</s>",
    ]
    vocab = build_vocab()
    assert extract_answer(vocab.encode(" ".join(words)), vocab) == 20
    assert response_budget(chain) >= len(words)


def test_rendered_tasks_reparse_to_oracle_answer():
    vocab = build_vocab()
    rng = random.Random(1)
    for _ in range(300):
        chain = sample_chain(rng, rng.randint(2, 3))
        words = response_words(chain, ["Now"] * len(chain.ops))
        ids = vocab.encode(" ".join(prompt_words(chain) + words))
        assert vocab.decode(ids).split() == prompt_words(chain) + words
        assert extract_answer(ids, vocab) == chain.answer


def test_chain_values_respect_vocab_bounds():
    for num_steps in (2, 3):
        chains = enumerate_chains(num_steps, max_value=30)
        assert chains
        for chain in chains:
            assert len(chain.ops) == num_steps - 1
            values = [chain.start]
            for op, k in chain.ops:
                assert (op, k) in {("Add", j) for j in range(1, 10)} | \
                    {("Multiply", j) for j in range(2, 10)}
                values.append(values[-1] + k if op == "Add" else values[-1] * k)
            assert all(0 <= v <= 30 for v in values)
            assert all(v <= 29 for v in values[:-1])  # headroom before last op


def test_gen_arithmetic_task_is_deterministic():
    a = gen_arithmetic_task(42, 3)
    b = gen_arithmetic_task(42, 3)
    assert a == b
    assert a.task_id == "arith-42-3"
    assert gen_arithmetic_task(43, 3) != a


def test_extract_answer_uses_last_marker():
    vocab = build_vocab()

    def answer(text):
        return extract_answer(vocab.encode(text), vocab)

    assert answer("final answer is 3 . Now final answer is 5 .") == 5
    assert answer("The final answer is") is None
    assert answer("final answer is Now") is None
    assert answer("Start with 7 .") is None
    assert answer("") is None


def text_answer(tokens, vocab):
    """The parse `extract_answer` replaced: decode every id, then scan the words."""
    words = [vocab.id_to_text[t] for t in tokens]
    for i in range(len(words) - 3, -1, -1):
        if tuple(words[i : i + 3]) == ("final", "answer", "is"):
            try:
                return int(words[i + 3])
            except (IndexError, ValueError):
                return None
    return None


# The task vocab; one whose texts int() reads in odd ways; one with no marker.
ANSWER_VOCABS = [build_vocab(), build_vocab(3),
                 Vocab(("final", "answer", "is", "+7", "-2", "1_0", "\u0663", "0x1", "3.0",
                        "Now", "</s>"), eos_id=10),
                 Vocab(("a", "1", "</s>"), eos_id=2)]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_extract_answer_by_id_equals_the_text_parse(data):
    """Any ids in 0..V-1, with a marker near the end followed by no operand, a
    numeral or another word; an id outside 0..V-1 anywhere is a DataError."""
    vocab = data.draw(st.sampled_from(ANSWER_VOCABS))
    ids = st.integers(0, vocab.size - 1)
    tokens = data.draw(st.lists(ids, max_size=20))
    if "final" in vocab.token_to_id and data.draw(st.booleans()):
        tokens += [vocab.token_to_id[w] for w in ("final", "answer", "is")]
        tokens += data.draw(st.lists(ids, max_size=3))
    assert extract_answer(tokens, vocab) == text_answer(tokens, vocab)
    assert extract_answer(tuple(tokens), vocab) == text_answer(tokens, vocab)
    bad = data.draw(st.one_of(st.integers(-(2**64), -1), st.integers(vocab.size, 2**64)))
    at = data.draw(st.integers(0, len(tokens)))
    with pytest.raises(DataError, match="token ids must be in"):
        extract_answer(tokens[:at] + [bad] + tokens[at:], vocab)


def test_answers_equivalent_rules():
    assert answers_equivalent(5, 5)
    assert not answers_equivalent(5, 6)
    assert not answers_equivalent(None, 5)
    assert not answers_equivalent(5, None)
    assert not answers_equivalent(None, None)


def test_gen_corpus_is_deterministic_and_decodable(vocab):
    lines = gen_corpus(vocab, (2,), variants=2, seed=0)
    again = gen_corpus(vocab, (2,), variants=2, seed=0)
    assert lines == again
    assert len(lines) == 2 * len(enumerate_chains(2))
    sample = vocab.decode(lines[0]).split()
    assert sample[0] == "Start" and sample[-1] == "</s>"


def test_fixture_corpus_is_pinned(pipeline):
    """The conftest corpus, 7,143 lines of which 5,742 are distinct, byte for byte."""
    corpus = pipeline.corpus
    assert (len(corpus), len(set(map(tuple, corpus)))) == (7143, 5742)
    assert hashlib.sha256(repr(corpus).encode()).hexdigest() == \
        "bcfbacdd2da5e88e763525a0afa0414da06fe7e77eeb60998b7e25eebaffb461"


def test_gen_corpus_connective_frequencies_match_weights(pipeline):
    # the full 2-and-3-step corpus gives ~12k connective draws
    conn_ids = {pipeline.vocab.token_to_id[c]: c for c in CONNECTIVES}
    counts = collections.Counter(conn_ids[t] for line in pipeline.corpus
                                 for t in line if t in conn_ids)
    total = sum(counts.values())
    for name, weight in zip(CONNECTIVES, (0.6, 0.3, 0.1)):
        assert abs(counts[name] / total - weight) < 0.02


def test_save_load_tasks_round_trip(tmp_path, vocab):
    tasks = [gen_arithmetic_task(s, 2 + s % 2, vocab) for s in range(5)]
    path = tmp_path / "tasks.jsonl"
    save_tasks(str(path), tasks, vocab)
    loaded = load_tasks(str(path), vocab)
    assert loaded == tasks
    row = json.loads(path.read_text().splitlines()[0])
    path.write_text(json.dumps({**row, "oracle": None}) + "\n")
    assert load_tasks(str(path), vocab)[0].oracle_answer is None
    # A float or a bool would be truncated to an integer, so it is refused.
    for key, value in (("oracle", 10.9), ("oracle", True), ("oracle", "10"),
                       ("max_response_len", 20.7), ("max_response_len", False),
                       ("seed", 1.5)):
        path.write_text(json.dumps({**row, key: value}) + "\n")
        with pytest.raises(DataError, match="bad tasks file"):
            load_tasks(str(path), vocab)


@pytest.mark.parametrize("num_steps", [2, 3, 4])
def test_count_chains_equals_the_enumeration(num_steps):
    assert count_chains(num_steps) == len(enumerate_chains(num_steps))
    assert count_chains(num_steps, 30) == len(enumerate_chains(num_steps, 30))


def test_oversized_corpus_fails_before_enumerating(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("enumerate_chains was called")

    monkeypatch.setattr(tasks_mod, "enumerate_chains", refuse)
    out = tmp_path / "corpus.txt"
    assert main(["gen-corpus", "--num-steps", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("data error: the corpus would have")
    assert not out.exists()


def test_task_from_chain_budget_covers_response(vocab):
    rng = random.Random(2)
    for _ in range(50):
        chain = sample_chain(rng, rng.randint(2, 4))
        task = task_from_chain(chain, vocab, "t", 0)
        assert task.oracle_answer == chain.answer
        assert task.prompt.prompt_len == len(task.prompt.tokens)
        assert task.max_response_len >= len(response_words(chain, ["Now"] * len(chain.ops)))
