"""Session fixtures: the engineered corpus pipeline, built once and shared.

The pipeline is an add-k n-gram target trained on the arithmetic corpus
plus a perturbed draft (filler-word bias and Gaussian logit noise), the
mining run over 200 tasks, and a grid-searched judge calibrated at
recall 0.90.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from specjudge.judge import (FeatureConfig, build_examples, calibrate_threshold,
                             grid_search_C)
from specjudge.lm import TokenSequence
from specjudge.mining import TaskSkippedError, mine_important
from specjudge.tasks import Task, build_vocab, gen_arithmetic_task, gen_corpus
from specjudge.toymodels import PerturbSpec, ScriptedModel, make_draft, train_ngram


def script_line(script, prefix, continuation):
    """Extend a scripted-model table along one linear continuation."""
    ctx = tuple(prefix)
    for tok in continuation:
        script[ctx] = tok
        ctx = ctx + (tok,)


class _CompletionsHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        srv = self.server
        srv.requests.append({"path": self.path,
                             "auth": self.headers.get("Authorization"),
                             "body": body})
        if srv.script:
            step = srv.script[min(len(srv.requests) - 1, len(srv.script) - 1)]
        else:
            step = (500, {"error": "unscripted"})
        status, payload = step(body) if callable(step) else step
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class MockCompletions:
    """Scripted completion server on an ephemeral loopback port.

    `script` is a list of steps, one per request (the last step repeats);
    a step is either (status, payload) or a callable(body) returning one.
    Every request is recorded with its path, auth header, and JSON body.
    """

    def __init__(self):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionsHandler)
        self.server.script = []
        self.server.requests = []
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    @property
    def script(self):
        return self.server.script

    @script.setter
    def script(self, steps):
        self.server.script = list(steps)

    @property
    def requests(self):
        return self.server.requests

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def completions_server():
    srv = MockCompletions()
    yield srv
    srv.stop()


@pytest.fixture(scope="session")
def vocab():
    return build_vocab()


@pytest.fixture(scope="session")
def pipeline(vocab):
    """Engineered model pair: n-gram target, filler+noise perturbed draft."""
    corpus = gen_corpus(vocab, (2, 3), variants=3, seed=0)
    target = train_ngram(vocab, corpus, order=16, smoothing=0.2, seed=0)
    spec = PerturbSpec(noise_scale=0.3,
                       bias_tokens={vocab.token_to_id["Then"]: 1.4}, seed=7)
    draft = make_draft(target, spec)
    return SimpleNamespace(vocab=vocab, corpus=corpus, target=target, draft=draft)


@pytest.fixture(scope="session")
def mined(pipeline):
    """Importance-mining results over 200 tasks (seeds 2000..2199)."""
    tasks, results, records = [], [], []
    for i in range(200):
        task = gen_arithmetic_task(2000 + i, 2 + i % 2, pipeline.vocab)
        tasks.append(task)
        try:
            res = mine_important(task, pipeline.draft, pipeline.target)
        except TaskSkippedError:
            continue
        results.append(res)
        records.extend(res.records)
    return SimpleNamespace(tasks=tasks, results=results, records=records)


@pytest.fixture(scope="session")
def judged(mined):
    """Grid-searched judge with a recall-0.90 calibrated threshold."""
    examples = build_examples(mined.records, FeatureConfig())
    result = grid_search_C(examples, split_seed=0)
    judge = result.model
    judge.threshold = calibrate_threshold(judge, result.validation,
                                          target_recall=0.90)
    return SimpleNamespace(judge=judge, result=result, examples=examples)


@pytest.fixture(scope="session")
def eval_tasks(vocab):
    """Held-out tasks (seeds 9000..9039) for policy and frontier checks."""
    return [gen_arithmetic_task(9000 + i, 2 + i % 2, vocab) for i in range(40)]


@pytest.fixture(scope="session")
def self_correcting_pair(vocab):
    """Scripted pair where each draft swap looks harmless in isolation.

    The target answers 7 unless both of its first two response tokens
    are 8; the draft pushes 8 at both spots.  Either swap alone keeps
    the answer (so isolated labeling calls both unimportant), but after
    adopting the first swap the second one flips the answer.
    """
    start = vocab.token_to_id["Start"]
    seven, eight = vocab.token_to_id["7"], vocab.token_to_id["8"]
    tail = [vocab.token_to_id[w] for w in ("The", "final", "answer", "is")]
    dot, eos = vocab.token_to_id["."], vocab.eos_id
    script = {(start,): seven, (start, seven): seven, (start, eight): seven}
    for a in (seven, eight):
        for b in (seven, eight):
            answer = eight if (a, b) == (eight, eight) else seven
            script_line(script, (start, a, b), tail + [answer, dot, eos])
    target = ScriptedModel(vocab, script, name="self-correcting-target")
    overrides = {(start,): eight, (start, seven): eight, (start, eight): eight}
    draft = ScriptedModel(vocab, {**script, **overrides}, name="pushy-draft")
    task = Task(task_id="witness", prompt=TokenSequence((start,), 1),
                oracle_answer=7, max_response_len=9, seed=0)
    return SimpleNamespace(task=task, draft=draft, target=target)
