"""Spans around the calls `weakdap.loop.run_weakdap` makes into each layer.

The benchmark does not change the program to trace it. `instrument` swaps
the names that `weakdap.loop` (and, for prompt rendering, `weakdap.augment`)
looks up at call time for wrappers that record a span, then restores them.
`HashedFeaturizer.transform` and `WeakLabeler.save` are wrapped on their
classes, and backend calls are traced by `PassThroughBackend`, which the
benchmark hands to `run_weakdap` in place of the real backend.

Spans are kept in memory as (id, parent, name, start, end, attrs); the
caller writes them out once, at the end of a run.
"""
from __future__ import annotations

import contextlib
import os
import threading
import time

import weakdap.augment
import weakdap.loop
import weakdap.metrics
from weakdap.genbackend import BackendError
from weakdap.weaklabel import HashedFeaturizer, WeakLabeler

from server import request_key

# Spans that must fire at least once in every traced loop. A refactor that
# renames or bypasses one of these calls would otherwise silently report 0.
EXPECTED_SPANS = (
    "loop", "augment", "prompt.render", "genbackend.complete", "weaklabel.train",
    "weaklabel.featurize", "weaklabel.filter", "loop.evaluate", "metrics.report",
    "loop.write_candidates", "loop.checkpoint",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, start):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """In-memory span recorder. A span's parent is the innermost span open on
    the same thread; a span opened on a worker thread with no open span of
    its own is parented to the innermost span open on the main thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            s = Span(len(self.spans), parent.id if parent else None, name, 0.0)
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.dur - covered
    return out


class PassThroughBackend:
    """Forwards `complete` to the real backend, counting calls and failures,
    and recording a span per call when a tracer is set."""

    def __init__(self, inner, tracer: Tracer | None = None):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0
        self.failed = 0
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
        try:
            if self.tracer is None:
                return self.inner.complete(prompt, params)
            with self.tracer.span("genbackend.complete") as s:
                s.attrs["key"] = request_key(prompt.text, params.seed)
                return self.inner.complete(prompt, params)
        except BackendError:
            with self._lock:
                self.failed += 1
            raise


def _traced(tracer: Tracer, name: str, annotate=None):
    """Wrapper factory: run the wrapped function inside a span named `name`,
    then let `annotate(span, args, result)` record counts on it."""
    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(s, args, result)
                return result
        return wrapper
    return make


def _file_bytes(s, args, result):
    s.attrs["bytes"] = os.path.getsize(args[1])  # (self or candidates, path)


def _prompt_chars(s, args, result):
    s.attrs["chars"] = len(result.text)


def _instances(s, args, result):
    s.attrs["instances"] = len(args[0])


def _augmented(s, args, result):
    s.attrs["candidates"] = len(result)
    s.attrs["dropped_parse"] = sum(1 for c in result if c.verdict == "dropped_parse")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points `run_weakdap` reaches; restore on exit.
    Yields the set of distinct texts featurized while active."""
    distinct: set[str] = set()

    def featurize(fn):
        def transform(self, texts):
            texts = list(texts)
            distinct.update(texts)
            with tracer.span("weaklabel.featurize") as s:
                s.attrs["texts"] = len(texts)
                return fn(self, texts)
        return transform

    def filtered(fn):
        def filter_candidates(candidates, *args, **kwargs):
            pending = [c for c in candidates if c.payload is not None and c.verdict == "pending"]
            with tracer.span("weaklabel.filter") as s:
                result = fn(candidates, *args, **kwargs)
                s.attrs["scored"] = len(pending)
                s.attrs["kept"] = sum(1 for c in pending if c.verdict == "kept")
                return result
        return filter_candidates

    patches = [
        (weakdap.loop, "run_augmentation", _traced(tracer, "augment", _augmented)),
        (weakdap.loop, "cross_lingual_augment", _traced(tracer, "augment", _augmented)),
        (weakdap.augment, "render_dialogue_prompt", _traced(tracer, "prompt.render", _prompt_chars)),
        (weakdap.augment, "render_intent_prompt", _traced(tracer, "prompt.render", _prompt_chars)),
        (weakdap.loop, "train", _traced(tracer, "weaklabel.train", _instances)),
        (weakdap.loop, "filter_candidates", filtered),
        (weakdap.loop, "evaluate_model", _traced(tracer, "loop.evaluate")),
        (weakdap.metrics, "report_from_predictions", _traced(tracer, "metrics.report")),
        (weakdap.loop, "write_candidates", _traced(tracer, "loop.write_candidates", _file_bytes)),
        (HashedFeaturizer, "transform", featurize),
        (WeakLabeler, "save", _traced(tracer, "loop.checkpoint", _file_bytes)),
    ]
    saved = []
    try:
        for owner, name, make in patches:
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield distinct
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def missing_spans(recorded) -> list[str]:
    """Expected span names that never fired."""
    fired = {s.name for s in recorded}
    return [name for name in EXPECTED_SPANS if name not in fired]
