"""Minimal completion-API client for mining against a remote target.

The remote side only ever generates text, greedily; hidden states always come
from local models, the standing limitation of mining over a plain completion
endpoint.  Responses are whitespace-retokenized with the local vocabulary, so
token boundaries survive the round trip exactly; a word outside it is a
protocol error.  The retry schedule is fixed: ATTEMPTS, BACKOFF and TIMEOUT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .lm import DataError, Vocab

ATTEMPTS = 4
BACKOFF = (0.5, 1.0, 2.0)  # seconds slept before the second, third and fourth try
TIMEOUT = 30.0  # seconds per request


class RemoteError(Exception):
    """Transport failure or non-2xx status: one that cannot succeed on a
    retry, or a transient one that survived all retries."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class ProtocolError(RemoteError):
    """The server answered, but not in the completion format."""


@dataclass(frozen=True)
class RemoteEndpoint:
    base_url: str
    model: str
    bearer_token: str | None = None

    def __post_init__(self):
        if not self.base_url.startswith(("http://", "https://")):
            raise DataError("base_url must be an http(s) URL")


def remote_generate(endpoint: RemoteEndpoint, prompt: str, max_tokens: int,
                    sleep=None) -> str:
    """POST one greedy completion request, retrying transient failures.

    Retries cover transport errors, 5xx and 429.  Any other non-2xx status
    cannot succeed on a retry and fails at once, as does a 2xx response
    that is not shaped like a completion (a protocol error).  `sleep`
    waits out each backoff; it defaults to `time.sleep` as looked up at
    call time, so a patched one takes effect.
    """
    import requests  # only remote mining needs it; `import specjudge.cli` stays light

    sleep = sleep or time.sleep
    url = endpoint.base_url.rstrip("/") + "/v1/completions"
    body = {"model": endpoint.model, "prompt": prompt,
            "max_tokens": max_tokens, "temperature": 0.0}
    headers = {}
    if endpoint.bearer_token:
        headers["Authorization"] = f"Bearer {endpoint.bearer_token}"
    for attempt in range(ATTEMPTS):
        if attempt:
            sleep(BACKOFF[attempt - 1])
        try:
            resp = requests.post(url, json=body, timeout=TIMEOUT, headers=headers)
        except requests.RequestException as e:
            failure = None, f"completion transport failure after {ATTEMPTS} attempts: {e}"
            continue
        status = resp.status_code
        if not 200 <= status < 300:
            if status < 500 and status != 429:
                raise RemoteError(f"completion failed with HTTP {status}", status)
            failure = status, f"completion failed with HTTP {status} after {ATTEMPTS} attempts"
            continue
        try:
            text = resp.json()["choices"][0]["text"]
        except (ValueError, KeyError, IndexError, TypeError) as e:
            raise ProtocolError(f"malformed completion response: {e}") from e
        if not isinstance(text, str):
            raise ProtocolError("completion text is not a string")
        return text
    status, message = failure
    raise RemoteError(message, status)


def remote_generator(endpoint: RemoteEndpoint, vocab: Vocab, temperature: float = 0.0,
                     sleep=None):
    """Adapter giving mining a (prefix_tokens, budget) -> token list callable."""
    if temperature != 0.0:
        raise DataError("remote generation is greedy only; the endpoint "
                        "cannot reproduce seed-conditioned sampling")

    def generate(prefix_tokens, budget: int) -> list[int]:
        text = remote_generate(endpoint, vocab.decode(prefix_tokens), budget, sleep=sleep)
        try:
            tokens = vocab.encode(text)
        except DataError as e:
            raise ProtocolError(f"completion text holds an {e}") from e
        if vocab.eos_id in tokens:  # never read past the end marker
            tokens = tokens[: tokens.index(vocab.eos_id) + 1]
        return tokens[:budget]

    return generate
