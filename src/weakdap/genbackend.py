"""Pluggable text-generation backends and completion parsing.

Two backends implement the same interface:
  - MockBackend: a deterministic template generator with a planted label-noise
    rate, pure in (prompt text, seed, config). Each completion carries the
    hidden label of the template it was drawn from, so tests can measure noise
    retention exactly.
  - HttpBackend: a client for a minimal completion-style HTTP API with retries
    and bounded request parallelism.
"""
from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass

import requests

from .prompt import RenderedPrompt


# Failures worth retrying; 5xx answers are retried as well.
_TRANSIENT = (requests.ConnectionError, requests.Timeout,
              requests.exceptions.ChunkedEncodingError)


class BackendError(RuntimeError):
    """Transport or protocol failure after retries."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


@dataclass
class GenParams:
    mode: str = "top_p_sampling"  # top_p_sampling | beam
    top_p: float = 0.92
    num_return: int = 1
    max_new_tokens: int = 48
    stop_markers: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
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
            if not tpls:
                raise ValueError(f"label {label!r} has no templates")
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

    Retries transient failures (connection errors, timeouts, 5xx) up to
    max_attempts in all, sleeping a uniform draw from [0, backoff * 2^k)
    before retry k+1 so concurrent callers do not retry in lockstep, then
    raises BackendError. Any other failure, such as a 4xx answer or a
    malformed body, raises at once. In-flight requests are capped by a
    semaphore so concurrent augmentation cannot overload the server. An
    explicit endpoint beats WEAKDAP_ENDPOINT.
    """

    def __init__(self, endpoint: str | None = None, max_parallel: int = 4,
                 max_attempts: int = 3, backoff: float = 0.5, timeout: float = 60.0):
        self.endpoint = endpoint if endpoint is not None else os.environ.get("WEAKDAP_ENDPOINT")
        if not self.endpoint:
            raise BackendError("no endpoint configured (set WEAKDAP_ENDPOINT or pass endpoint)")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout = timeout
        self._slots = threading.Semaphore(max_parallel)

    def complete(self, prompt: RenderedPrompt, params: GenParams) -> list[Completion]:
        payload = {
            "prompt": prompt.text,
            "mode": "beam" if params.mode == "beam" else "top_p",
            "top_p": params.top_p,
            "n": params.num_return,
            "max_new_tokens": params.max_new_tokens,
            "stop": list(params.stop_markers),
            "seed": params.seed,
        }
        last_err = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._slots:
                    resp = requests.post(f"{self.endpoint}/complete", json=payload,
                                         timeout=self.timeout)
                if resp.status_code < 500:
                    resp.raise_for_status()
                    return [Completion(raw=c, parsed=None) for c in resp.json()["completions"]]
                last_err = f"HTTP {resp.status_code}"
            except _TRANSIENT as e:
                last_err = e
            except (requests.RequestException, KeyError, TypeError, ValueError) as e:
                raise BackendError(f"backend request failed: {e}", attempts=attempt) from e
            if attempt < self.max_attempts:
                time.sleep(random.uniform(0, self.backoff * 2 ** (attempt - 1)))
        raise BackendError(f"backend unreachable after {self.max_attempts} attempts: {last_err}",
                           attempts=self.max_attempts)


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
