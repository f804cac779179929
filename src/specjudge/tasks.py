"""Synthetic chain-arithmetic tasks with exact oracle answers.

A task prompt lists a start value and a chain of operations ("Start with
7 . Add 3 . Finally Multiply by 2 ."); the expected response walks the
chain one sentence at a time and closes with "The final answer is <v> .".
"Finally" marks the last operation so prompts with different step counts
never share a full-prompt prefix.  Every intermediate value stays inside a
closed numeric vocabulary, so a plain n-gram model trained on rendered
chains reproduces the oracle exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lm import (DataError, TokenSequence, Vocab, json_int, json_lines, json_str, reading,
                 write_json_lines)

CONNECTIVES = ("Now", "Then", "Next")
CONNECTIVE_WEIGHTS = (0.6, 0.3, 0.1)
_WORDS = ("Start", "with", "Add", "Multiply", "by", "Finally", "plus", "times",
          "is", "The", "final", "answer", ".") + CONNECTIVES
EOS_TEXT = "</s>"
# Admits every corpus of up to 4 steps at the default 3 variants (87,372
# lines for steps 2,3,4); 5 steps alone renders 282,943 lines per variant.
MAX_CORPUS_LINES = 200_000
# 8 steps within max_value 8, the least likely feasible setting, completes
# one draw in 11,300: a million draws all fail with probability e^-88.
MAX_CHAIN_DRAWS = 1_000_000


def build_vocab(max_value: int = 99) -> Vocab:
    """Closed vocabulary: task words, numerals 0..max_value, end marker."""
    texts = _WORDS + tuple(str(v) for v in range(max_value + 1)) + (EOS_TEXT,)
    return Vocab(id_to_text=texts, eos_id=len(texts) - 1)


def answers_equivalent(a: int | None, b: int | None) -> bool:
    """Numbers match iff equal; a missing answer (None) matches nothing."""
    return a is not None and a == b


@dataclass(frozen=True)
class Chain:
    """Start value plus (op, operand) steps; ops are 'Add' or 'Multiply'."""

    start: int
    ops: tuple[tuple[str, int], ...]

    def values(self) -> list[int]:
        vals = [self.start]
        for op, k in self.ops:
            vals.append(vals[-1] + k if op == "Add" else vals[-1] * k)
        return vals

    @property
    def answer(self) -> int:
        return self.values()[-1]


def _legal_ops(value: int, max_value: int, final: bool) -> list[tuple[str, int, int]]:
    """(op, operand, next value) of every step allowed from `value`."""
    # A running value of max_value would strand the chain, so only the
    # final step may land there.
    cap = max_value if final else max_value - 1
    ops = [("Add", k, value + k) for k in range(1, 10) if value + k <= cap]
    ops += [("Multiply", k, value * k) for k in range(2, 10) if value * k <= cap]
    return ops


def sample_chain(rng: random.Random, num_steps: int, max_value: int = 99) -> Chain:
    """Random feasible chain; num_steps counts the starting step.

    A draw stranded at a value with no legal step is drawn again from
    `rng`, so a first draw that succeeds is kept as it is.
    """
    if not 2 <= num_steps <= 8:
        raise DataError("num_steps must be in 2..8")
    for draw in range(MAX_CHAIN_DRAWS):
        start = value = rng.randint(1, 9)
        ops = []
        for j in range(num_steps - 1):
            choices = _legal_ops(value, max_value, final=j == num_steps - 2)
            if not choices:
                break
            op, k, value = choices[rng.randrange(len(choices))]
            ops.append((op, k))
        else:
            return Chain(start, tuple(ops))
        if draw == 0 and count_chains(num_steps, max_value) == 0:
            raise DataError(f"no {num_steps}-step chain stays within max_value {max_value}")
    raise DataError(f"no {num_steps}-step chain within max_value {max_value} "
                    f"found in {MAX_CHAIN_DRAWS} draws")


def count_chains(num_steps: int, max_value: int = 99) -> int:
    """len(enumerate_chains(num_steps, max_value)), counted without building them.

    A chain's legal next steps depend only on its running value, so the
    count is a dynamic program over (step, value).
    """
    if not 2 <= num_steps <= 8:
        raise DataError("num_steps must be in 2..8")
    counts = dict.fromkeys(range(1, 10), 1)
    for j in range(num_steps - 1):
        grown: dict[int, int] = {}
        for value, n in counts.items():
            for _, _, nxt in _legal_ops(value, max_value, final=j == num_steps - 2):
                grown[nxt] = grown.get(nxt, 0) + n
        counts = grown
    return sum(counts.values())


def enumerate_chains(num_steps: int, max_value: int = 99) -> list[Chain]:
    """All feasible chains with the given step count, in a fixed order."""
    if not 2 <= num_steps <= 8:
        raise DataError("num_steps must be in 2..8")
    partial = [(start, (), start) for start in range(1, 10)]  # (start, ops, value)
    for j in range(num_steps - 1):
        final = j == num_steps - 2
        partial = [(start, ops + ((op, k),), nxt) for start, ops, value in partial
                   for op, k, nxt in _legal_ops(value, max_value, final)]
    return [Chain(start, ops) for start, ops, _ in partial]


def prompt_words(chain: Chain) -> list[str]:
    words = ["Start", "with", str(chain.start), "."]
    for j, (op, k) in enumerate(chain.ops):
        step = ["Add", str(k), "."] if op == "Add" else ["Multiply", "by", str(k), "."]
        if j == len(chain.ops) - 1:
            step = ["Finally"] + step
        words += step
    return words


def response_words(chain: Chain, connectives) -> list[str]:
    """Render the worked response; `connectives` gives one word per step."""
    vals = chain.values()
    words = []
    for j, (op, k) in enumerate(chain.ops):
        opw = "plus" if op == "Add" else "times"
        words += [connectives[j], str(vals[j]), opw, str(k), "is", str(vals[j + 1]), "."]
    words += ["The", "final", "answer", "is", str(vals[-1]), ".", EOS_TEXT]
    return words


def response_budget(chain: Chain) -> int:
    return 7 * len(chain.ops) + 7 + 8  # worked sentences + closing + slack


@dataclass(frozen=True)
class Task:
    """One prompt with its oracle answer and response budget."""

    task_id: str
    prompt: TokenSequence
    oracle_answer: int | None
    max_response_len: int
    seed: int

    def __post_init__(self):
        if self.max_response_len < 1:
            raise DataError("max_response_len must be >= 1")


def task_from_chain(chain: Chain, vocab: Vocab, task_id: str, seed: int) -> Task:
    ids = tuple(vocab.encode(" ".join(prompt_words(chain))))
    return Task(task_id=task_id, prompt=TokenSequence(ids, len(ids)),
                oracle_answer=chain.answer, max_response_len=response_budget(chain),
                seed=seed)


def gen_arithmetic_task(seed: int, num_steps: int, vocab: Vocab | None = None,
                        max_value: int = 99) -> Task:
    """Deterministic task for (seed, num_steps)."""
    vocab = vocab or build_vocab(max_value)
    rng = random.Random(f"arith:{seed}:{num_steps}")
    chain = sample_chain(rng, num_steps, max_value)
    return task_from_chain(chain, vocab, f"arith-{seed}-{num_steps}", seed)


def _int_or_none(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def extract_answer(tokens, vocab: Vocab) -> int | None:
    """Parse the integer after the last "final answer is" marker in token ids.

    Missing marker, missing operand, or a non-integer operand all yield
    None, the missing answer.  An id outside 0..V-1 is a DataError.
    """
    found = vocab.__dict__.get("_answer_ids")  # built once per vocab, as token_to_id is
    if found is None:  # the marker's ids (None if absent) and each id's int() or None
        found = (tuple(map(vocab.token_to_id.get, ("final", "answer", "is"))),
                 list(map(_int_or_none, vocab.id_to_text)))
        object.__setattr__(vocab, "_answer_ids", found)
    (first, second, third), values = found
    if len(tokens) and not 0 <= min(tokens) <= max(tokens) < len(values):
        raise DataError(f"token ids must be in 0..{len(values) - 1}")
    for i in range(len(tokens) - 3, -1, -1):
        if tokens[i] == first and tokens[i + 1] == second and tokens[i + 2] == third:
            return values[tokens[i + 3]] if i + 3 < len(tokens) else None
    return None


def gen_corpus(vocab: Vocab, num_steps_values=(2, 3), variants: int = 3,
               seed: int = 0, max_value: int = 99) -> list[list[int]]:
    """Token sequences covering every feasible chain, with varied fillers.

    Each chain is rendered `variants` times with connectives drawn from a
    fixed weighted distribution, so filler words become genuinely
    ambiguous while all content tokens stay deterministic per chain.
    """
    size = variants * sum(count_chains(n, max_value) for n in num_steps_values)
    if size > MAX_CORPUS_LINES:
        raise DataError(f"the corpus would have {size} lines, more than "
                        f"{MAX_CORPUS_LINES}; use fewer steps or variants")
    rng = random.Random(f"corpus:{seed}")
    lines = []
    for num_steps in num_steps_values:
        for chain in enumerate_chains(num_steps, max_value):
            prompt = vocab.encode(" ".join(prompt_words(chain)))
            for _ in range(variants):
                conns = rng.choices(CONNECTIVES, weights=CONNECTIVE_WEIGHTS,
                                    k=len(chain.ops))
                lines.append(prompt + vocab.encode(" ".join(response_words(chain, conns))))
    if not lines:
        raise DataError(f"no feasible chain within max_value {max_value}")
    return lines


def save_tasks(path: str, tasks, vocab: Vocab) -> None:
    write_json_lines(path, ({
        "task_id": t.task_id,
        "prompt": vocab.decode(t.prompt.tokens),
        "oracle": t.oracle_answer,
        "seed": t.seed,
        "max_response_len": t.max_response_len,
    } for t in tasks))


def load_tasks(path: str, vocab: Vocab) -> list:
    tasks = []
    with reading(path, "tasks file"):
        for row in json_lines(path):
            ids = tuple(vocab.encode(json_str(row["prompt"], "prompt")))
            oracle = None if row["oracle"] is None else json_int(row["oracle"], "oracle")
            tasks.append(Task(task_id=json_str(row["task_id"], "task_id"),
                              prompt=TokenSequence(ids, len(ids)), oracle_answer=oracle,
                              max_response_len=json_int(row["max_response_len"],
                                                        "max_response_len"),
                              seed=json_int(row["seed"], "seed")))
    return tasks
