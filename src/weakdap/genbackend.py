"""Pluggable text-generation backends and completion parsing.

Two backends implement the same interface:
  - MockBackend: a deterministic template generator with a planted label-noise
    rate, pure in (prompt text, seed, config). Each completion carries the
    hidden label of the template it was drawn from, so tests can measure noise
    retention exactly.
  - HttpBackend: a client for a minimal completion-style HTTP API with retries
    and bounded request parallelism, on the standard library's http.client:
    one connection per attempt, no proxies, no redirects.
"""
from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import ssl
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from .prompt import RenderedPrompt

# HttpBackend's retry policy: attempts per call in all, the first backoff
# window in seconds, and the timeout of each connection in seconds.
MAX_ATTEMPTS = 3
BACKOFF_S = 0.5
TIMEOUT_S = 60.0


class BackendError(RuntimeError):
    """Transport or protocol failure after retries."""


@dataclass
class GenParams:
    mode: str = "top_p_sampling"  # top_p_sampling | beam
    top_p: float = 0.92
    num_return: int = 1
    max_new_tokens: int = 48
    stop_markers: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("top_p_sampling", "beam"):
            raise ValueError(f"mode must be one of top_p_sampling, beam; got {self.mode!r}")
        if self.mode == "top_p_sampling" and not (0 < self.top_p <= 1):
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.num_return < 1:
            raise ValueError("num_return must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


@dataclass
class Completion:
    raw: str
    parsed: str | None
    hidden_label: str | None = None  # mock backend only; template's true label


@dataclass
class MockGenConfig:
    templates: dict[str, list[str]]
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.templates, dict):
            raise ValueError("templates map each label to a list of utterances")
        for label, tpls in self.templates.items():
            if not (isinstance(tpls, list) and tpls and all(isinstance(t, str) for t in tpls)):
                raise ValueError(f"label {label!r}: templates must be a non-empty list of strings")
        if not (0 <= self.noise_rate <= 1):
            raise ValueError("noise_rate must be in [0, 1]")


def stable_seed(text: str) -> int:
    """A seed from text, stable across runs and processes, unlike hash()."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class MockBackend:
    """Deterministic seeded generator drawing utterances from per-label templates.

    With probability noise_rate the template comes from a uniformly chosen
    wrong label, planting measurable label noise in the generated data.
    """

    def __init__(self, config: MockGenConfig):
        self.config = config

    def complete(self, prompt: RenderedPrompt, params: GenParams) -> list[Completion]:
        labels = sorted(self.config.templates)
        if prompt.prescribed_label not in self.config.templates:
            raise BackendError(f"mock has no templates for label {prompt.prescribed_label!r}")
        out = []
        for i in range(params.num_return):
            rng = random.Random(stable_seed(
                f"{prompt.text}\x1f{params.seed}\x1f{self.config.seed}\x1f{i}"))
            label = prompt.prescribed_label
            if rng.random() < self.config.noise_rate:
                wrong = [l for l in labels if l != label]
                if wrong:
                    label = rng.choice(wrong)
            raw = rng.choice(self.config.templates[label])
            out.append(Completion(raw=raw, parsed=None, hidden_label=label))
        return out


class HttpBackend:
    """Client for the POST <endpoint>/complete wire protocol.

    The endpoint is an http:// or https:// URL, optionally with a path
    prefix (http://host:8080/v1 posts to /v1/complete); anything else raises
    ValueError here, before any request. Each attempt opens one connection,
    sends one request and closes the connection. HTTPS uses the default SSL
    context, which verifies certificates; no proxy variable is read and
    redirects are not followed.

    Retries transient failures (connection errors, timeouts of TIMEOUT_S,
    answers cut short, 5xx) up to MAX_ATTEMPTS in all, sleeping a uniform
    draw from [0, BACKOFF_S * 2^k) before retry k+1 so concurrent callers do
    not retry in lockstep, then raises BackendError. A certificate that fails
    verification, or any other answer, such as a 3xx or 4xx or a body that
    is not JSON with a list of exactly n completion strings, raises at once.
    In-flight requests are capped by a semaphore so concurrent augmentation
    cannot overload the server. An explicit endpoint beats WEAKDAP_ENDPOINT.
    """

    def __init__(self, endpoint: str | None = None, max_parallel: int = 4):
        if max_parallel < 1:  # Semaphore(0) blocks every call forever
            raise ValueError("HttpBackend needs max_parallel >= 1")
        self.endpoint = endpoint if endpoint is not None else os.environ.get("WEAKDAP_ENDPOINT")
        if not self.endpoint:
            raise ValueError("no endpoint configured (set WEAKDAP_ENDPOINT or pass endpoint)")
        # a value that is not a string has no scheme, so it fails the check below
        parts = urlsplit(self.endpoint if isinstance(self.endpoint, str) else "")
        try:
            bad_port = parts.port == 0
        except ValueError:  # not a number, or out of range
            bad_port = True
        # Credentials, a query or a fragment would be dropped, not sent. Only
        # visible ASCII: http.client refuses a host or path with spaces,
        # control or non-ASCII characters, so such a URL could never be sent.
        if (parts.scheme not in ("http", "https") or not parts.hostname or bad_port
                or "@" in parts.netloc or parts.query or parts.fragment
                or re.search(r"[^\x21-\x7e]", self.endpoint)):
            raise ValueError("endpoint must be http(s)://host[:port][/path] with a port in "
                             f"1-65535, got {self.endpoint!r}")
        self._https = parts.scheme == "https"
        self._host = parts.hostname
        self._port = parts.port or (443 if self._https else 80)
        self._path = parts.path.rstrip("/") + "/complete"
        # One context for all connections: building one loads the CA certificates.
        self._ssl_context = ssl.create_default_context() if self._https else None
        self._slots = threading.Semaphore(max_parallel)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One request on a fresh connection: (status, body of the answer)."""
        if self._https:
            conn = http.client.HTTPSConnection(self._host, self._port, timeout=TIMEOUT_S,
                                               context=self._ssl_context)
        else:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=TIMEOUT_S)
        try:
            conn.request("POST", self._path, body=body,
                         headers={"Content-Type": "application/json", "Connection": "close"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def complete(self, prompt: RenderedPrompt, params: GenParams) -> list[Completion]:
        body = json.dumps({
            "prompt": prompt.text,
            "mode": "beam" if params.mode == "beam" else "top_p",
            "top_p": params.top_p,
            "n": params.num_return,
            "max_new_tokens": params.max_new_tokens,
            "stop": list(params.stop_markers),
            "seed": params.seed,
        }).encode("utf-8")
        last_err = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                with self._slots:
                    status, answer = self._post(body)
            except ssl.SSLCertVerificationError as e:  # an OSError, but retrying cannot fix it
                raise BackendError(f"backend request failed: {e}") from e
            except (OSError, http.client.HTTPException) as e:
                last_err = e
            else:
                if status < 500:
                    return self._completions(status, answer, params.num_return)
                last_err = f"HTTP {status}"
            if attempt < MAX_ATTEMPTS:
                time.sleep(random.uniform(0, BACKOFF_S * 2 ** (attempt - 1)))
        raise BackendError(f"backend unreachable after {MAX_ATTEMPTS} attempts: {last_err}")

    @staticmethod
    def _completions(status: int, answer: bytes, n: int) -> list[Completion]:
        """The n completions of a final (non-5xx) answer, or BackendError."""
        if not 200 <= status < 300:
            raise BackendError(f"backend request failed: HTTP {status}")
        try:
            texts = json.loads(answer)["completions"]
        except (KeyError, TypeError, ValueError) as e:
            raise BackendError(f"backend request failed: bad answer: {e!r}") from e
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise BackendError("backend request failed: completions are not a list of strings")
        if len(texts) != n:
            raise BackendError(f"backend request failed: {len(texts)} completions, "
                               f"asked for {n}")
        return [Completion(raw=t, parsed=None) for t in texts]


def parse_completion(raw: str, stop_markers=()) -> str | None:
    """Clean utterance from a raw model continuation.

    Cuts at the first newline, then at the first occurrence of any stop
    marker, trims whitespace, and returns None if nothing usable remains.
    """
    text = raw.split("\n", 1)[0]
    cut = len(text)
    for marker in stop_markers:
        if not marker:
            continue
        idx = text.find(marker)
        if idx != -1:
            cut = min(cut, idx)
    text = text[:cut].strip()
    return text or None


def generate(prompt: RenderedPrompt, params: GenParams, backend) -> list[Completion]:
    """Run the backend and attach parsed utterances to each completion."""
    completions = backend.complete(prompt, params)
    for c in completions:
        c.parsed = parse_completion(c.raw, stop_markers=params.stop_markers)
    return completions
