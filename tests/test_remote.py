"""Completion-API client: retries, backoff, protocol errors, tokenization."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from specjudge.lm import DataError
from specjudge.remote import (ProtocolError, RemoteEndpoint, RemoteError,
                              remote_generate, remote_generator)


def ok(text):
    return (200, {"choices": [{"text": text}]})


def test_successful_completion_round_trip(completions_server):
    completions_server.script = [ok("hello world")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    text = remote_generate(endpoint, "Start with 7 .", max_tokens=12)
    assert text == "hello world"
    (request,) = completions_server.requests
    assert request["path"] == "/v1/completions"
    assert request["auth"] is None
    assert request["body"] == {"model": "toy", "prompt": "Start with 7 .",
                               "max_tokens": 12, "temperature": 0.0}


def test_bearer_token_sent_when_configured(completions_server):
    completions_server.script = [ok("x")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy",
                              bearer_token="sekrit")
    remote_generate(endpoint, "p", max_tokens=1)
    assert completions_server.requests[0]["auth"] == "Bearer sekrit"


def test_transient_failures_retry_with_exponential_backoff(completions_server):
    completions_server.script = [(500, {}), (500, {}), ok("recovered")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    sleeps = []
    text = remote_generate(endpoint, "p", max_tokens=4, sleep=sleeps.append)
    assert text == "recovered"
    assert len(completions_server.requests) == 3
    assert sleeps == [0.5, 1.0]


def test_persistent_failure_exhausts_retries(completions_server):
    completions_server.script = [(503, {"error": "down"})]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    sleeps = []
    with pytest.raises(RemoteError) as err:
        remote_generate(endpoint, "p", max_tokens=4, sleep=sleeps.append)
    assert err.value.status == 503
    assert str(err.value) == "completion failed with HTTP 503 after 4 attempts"
    assert len(completions_server.requests) == 4
    assert sleeps == [0.5, 1.0, 2.0]


@pytest.mark.parametrize("status", [400, 401, 404])
def test_client_errors_fail_without_a_retry(completions_server, status):
    completions_server.script = [(status, {"error": "no"}), ok("never")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    sleeps = []
    with pytest.raises(RemoteError) as err:
        remote_generate(endpoint, "p", max_tokens=4, sleep=sleeps.append)
    assert err.value.status == status
    assert str(err.value) == f"completion failed with HTTP {status}"
    assert len(completions_server.requests) == 1
    assert sleeps == []


def test_rate_limit_is_retried(completions_server):
    completions_server.script = [(429, {"error": "slow down"}), ok("done")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    sleeps = []
    assert remote_generate(endpoint, "p", max_tokens=4,
                           sleep=sleeps.append) == "done"
    assert len(completions_server.requests) == 2
    assert sleeps == [0.5]


def test_malformed_success_is_a_protocol_error_not_retried(completions_server):
    completions_server.script = [(200, {"unexpected": True})]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    with pytest.raises(ProtocolError):
        remote_generate(endpoint, "p", max_tokens=4, sleep=lambda s: None)
    assert len(completions_server.requests) == 1


def test_non_string_completion_text_is_a_protocol_error(completions_server):
    completions_server.script = [(200, {"choices": [{"text": 5}]})]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    with pytest.raises(ProtocolError):
        remote_generate(endpoint, "p", max_tokens=4)


def test_transport_failure_reports_no_status():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    endpoint = RemoteEndpoint(f"http://127.0.0.1:{port}", model="toy")
    sleeps = []
    with pytest.raises(RemoteError) as err:
        remote_generate(endpoint, "p", max_tokens=1, sleep=sleeps.append)
    assert err.value.status is None
    assert str(err.value).startswith("completion transport failure after 4 attempts: ")
    assert sleeps == [0.5, 1.0, 2.0]


def test_endpoint_validation():
    with pytest.raises(DataError):
        RemoteEndpoint("ftp://example.test", model="toy")


def test_remote_generator_is_greedy_only(completions_server, vocab):
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    with pytest.raises(DataError):
        remote_generator(endpoint, vocab, temperature=0.7)


def test_remote_generator_tokenizes_and_truncates(completions_server, vocab):
    completions_server.script = [ok("Now 7 plus 3 is 10 . </s> Now Now")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    generate = remote_generator(endpoint, vocab)
    prefix = vocab.encode("Start with 7 .")
    tokens = generate(prefix, budget=20)
    assert tokens == vocab.encode("Now 7 plus 3 is 10 . </s>")
    assert tokens[-1] == vocab.eos_id  # nothing read past the end marker
    assert completions_server.requests[0]["body"]["prompt"] == "Start with 7 ."
    assert completions_server.requests[0]["body"]["max_tokens"] == 20


def test_out_of_vocabulary_completion_is_a_protocol_error(completions_server, vocab):
    """The server answered, but with a word the local vocabulary cannot encode."""
    completions_server.script = [ok("Now zed plus 3")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    generate = remote_generator(endpoint, vocab, sleep=lambda s: None)
    with pytest.raises(ProtocolError, match="unknown token 'zed'"):
        generate(vocab.encode("Start with 7 ."), budget=4)
    assert len(completions_server.requests) == 1


def test_remote_generator_respects_the_budget(completions_server, vocab):
    completions_server.script = [ok("Now 7 plus 3 is 10 . </s>")]
    endpoint = RemoteEndpoint(completions_server.url, model="toy")
    generate = remote_generator(endpoint, vocab)
    tokens = generate(vocab.encode("Start with 7 ."), budget=3)
    assert tokens == vocab.encode("Now 7 plus")


def test_import_specjudge_leaves_requests_unloaded():
    """Only remote mining needs `requests`: the command line imports the remote
    client, and the client imports `requests` only when it sends a request."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = "import sys, specjudge.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
