"""Localhost completion server for the benchmark's HTTP workload.

Speaks the `POST /complete` protocol `weakdap.genbackend.HttpBackend` uses.
Each answer is a mock template of the label the prompt's cue asks for, or,
with probability `noise`, of a uniformly chosen other label. The choice is
seeded by (prompt, request seed, completion index), so output is
deterministic and independent of arrival order. Every request sleeps a fixed
delay to stand in for model latency.

The server counts requests, the most requests in flight at once, and its own
handling time per request (`GET /stats`, cleared by `POST /reset`). It speaks
HTTP/1.1 with keep-alive, so a client that reuses connections can show it.

Run as a child process: it prints `PORT <n>` once listening, and shuts down
when its standard input closes, so it never outlives its parent.

    python3 server.py --config cfg.json --delay-ms 10 --noise 0.3 --seed 0
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMOTION_CUE = re.compile(r" in an? (\S+) mood:$")
INTENT_LINE = re.compile(r"=> intent: (\S+)$")


def request_key(prompt: str, seed) -> str:
    """Identifies one request for matching client and server timings."""
    return hashlib.sha1(f"{prompt}\x1f{seed}".encode("utf-8")).hexdigest()[:20]


def cue_label(prompt: str, cue_words: dict[str, str]) -> str | None:
    """Label the prompt asks for: an emotion cue on the last line, or the
    intent of the reference line of an in-context prompt."""
    lines = prompt.split("\n")
    m = EMOTION_CUE.search(lines[-1])
    if m:
        return cue_words.get(m.group(1))
    if len(lines) >= 2:
        m = INTENT_LINE.search(lines[-2])
        if m:
            return m.group(1)
    return None


class Completer:
    """Deterministic template choice plus the request counters."""

    def __init__(self, templates: dict[str, list[str]], cue_words: dict[str, str],
                 noise: float, seed: int, delay_s: float):
        self.templates = templates
        self.labels = sorted(templates)
        self.cue_words = cue_words
        self.noise = noise
        self.seed = seed
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.inflight = 0
            self.max_inflight = 0
            self.handling: dict[str, list[float]] = {}

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "max_inflight": self.max_inflight,
                    "handling_ms": {k: list(v) for k, v in self.handling.items()}}

    def complete(self, body: dict) -> list[str]:
        label = cue_label(body["prompt"], self.cue_words)
        if label not in self.templates:
            raise ValueError(f"no templates for the prompt's cue ({label!r})")
        out = []
        for i in range(int(body["n"])):
            digest = hashlib.sha256(
                f"{body['prompt']}\x1f{body['seed']}\x1f{self.seed}\x1f{i}".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            drawn = label
            if rng.random() < self.noise:
                drawn = rng.choice([l for l in self.labels if l != label])
            out.append(rng.choice(self.templates[drawn]))
        time.sleep(self.delay_s)
        return out


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    completer: Completer

    def _reply(self, status: int, doc: dict) -> None:
        data = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.completer.stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        c = self.completer
        if self.path == "/reset":
            c.reset()
            self._reply(200, {})
            return
        if self.path != "/complete":
            self._reply(404, {"error": "not found"})
            return
        start = time.perf_counter()
        with c.lock:
            c.requests += 1
            c.inflight += 1
            c.max_inflight = max(c.max_inflight, c.inflight)
        try:
            doc = json.loads(body)
            completions = c.complete(doc)
        except (ValueError, KeyError, TypeError) as e:
            self._reply(400, {"error": str(e)})
            return
        finally:
            with c.lock:
                c.inflight -= 1
        ms = (time.perf_counter() - start) * 1000.0
        with c.lock:
            c.handling.setdefault(request_key(doc["prompt"], doc["seed"]), []).append(ms)
        self._reply(200, {"completions": completions})

    def log_message(self, *args):
        pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", required=True,
                    help="JSON file with 'templates' (label -> texts) and 'cue_words' (cue word -> label)")
    ap.add_argument("--delay-ms", type=float, default=10.0)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open(args.config, encoding="utf-8") as f:
        cfg = json.load(f)
    Handler.completer = Completer(cfg["templates"], cfg["cue_words"], args.noise, args.seed,
                                  args.delay_ms / 1000.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_port}", flush=True)
    sys.stdin.read()  # returns at EOF: the parent closed the pipe or exited
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
