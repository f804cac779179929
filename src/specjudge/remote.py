"""Minimal completion-API client for mining against a remote target.

The remote side only ever generates text; hidden states always come from
local models, which is the standing limitation of mining over a plain
completion endpoint.  Responses are whitespace-retokenized with the local
vocabulary, so token boundaries survive the round trip exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .lm import DataError, Vocab


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
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5
    bearer_token: str | None = None

    def __post_init__(self):
        if not self.base_url.startswith(("http://", "https://")):
            raise DataError("base_url must be an http(s) URL")
        if self.max_retries < 0:
            raise DataError("max_retries must be >= 0")


def remote_generate(endpoint: RemoteEndpoint, prompt: str, max_tokens: int,
                    temperature: float = 0.0, sleep=None) -> str:
    """POST one completion request, retrying transient failures.

    Retries cover transport errors, 5xx and 429, with exponential
    backoff.  Any other non-2xx status cannot succeed on a retry and fails
    at once, as does a 2xx response that is not shaped like a completion
    (a protocol error).  `sleep` waits out each backoff; it defaults to
    `time.sleep` as looked up at call time, so a patched one takes effect.
    """
    import requests  # only remote mining needs it; `import specjudge` stays light

    if sleep is None:
        sleep = time.sleep
    url = endpoint.base_url.rstrip("/") + "/v1/completions"
    body = {"model": endpoint.model, "prompt": prompt,
            "max_tokens": max_tokens, "temperature": temperature}
    headers = {}
    if endpoint.bearer_token:
        headers["Authorization"] = f"Bearer {endpoint.bearer_token}"
    last_status = None
    last_error = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            sleep(endpoint.backoff * 2 ** (attempt - 1))
        try:
            resp = requests.post(url, json=body, timeout=endpoint.timeout,
                                 headers=headers)
        except requests.RequestException as e:
            last_error, last_status = e, None
            continue
        if not 200 <= resp.status_code < 300:
            last_error, last_status = None, resp.status_code
            if resp.status_code >= 500 or resp.status_code == 429:
                continue
            raise RemoteError(f"completion failed with HTTP {last_status}",
                              last_status)
        try:
            payload = resp.json()
            text = payload["choices"][0]["text"]
        except (ValueError, KeyError, IndexError, TypeError) as e:
            raise ProtocolError(f"malformed completion response: {e}") from e
        if not isinstance(text, str):
            raise ProtocolError("completion text is not a string")
        return text
    if last_status is not None:
        raise RemoteError(f"completion failed with HTTP {last_status} "
                          f"after {endpoint.max_retries + 1} attempts", last_status)
    raise RemoteError(f"completion transport failure after "
                      f"{endpoint.max_retries + 1} attempts: {last_error}")


def remote_generator(endpoint: RemoteEndpoint, vocab: Vocab, temperature: float = 0.0,
                     sleep=None):
    """Adapter giving mining a (prefix_tokens, budget) -> token list callable."""
    if temperature != 0.0:
        raise DataError("remote generation is greedy only; the endpoint "
                        "cannot reproduce seed-conditioned sampling")

    def generate(prefix_tokens, budget: int) -> list[int]:
        text = remote_generate(endpoint, vocab.decode(prefix_tokens), budget,
                               temperature, sleep=sleep)
        tokens = vocab.encode(text)
        if vocab.eos_id in tokens:  # never read past the end marker
            tokens = tokens[: tokens.index(vocab.eos_id) + 1]
        return tokens[:budget]

    return generate
