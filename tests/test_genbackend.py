import http.client
import json
import os
import random
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

from weakdap import augment, genbackend
from weakdap.augment import AugmentPlan, run_augmentation
from weakdap.corpus import LabelSpace, candidate_to_dict
from weakdap.genbackend import (
    BackendError,
    Completion,
    GenParams,
    HttpBackend,
    MockBackend,
    MockGenConfig,
    generate,
    parse_completion,
)
from weakdap.prompt import PromptSpec, RenderedPrompt

from conftest import TOY_LABELS, mock_backend, toy_conversation, toy_templates


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries wait at most 10 ms here, not genbackend.BACKOFF_S."""
    monkeypatch.setattr(genbackend, "BACKOFF_S", 0.01)


def rp(text="Alice in a happy mood: hi\nBob in a happy mood:", label="happiness"):
    return RenderedPrompt(text=text, prescribed_label=label)


class TestParseCompletion:
    def test_newline_cut(self):
        raw = "That's great news!\nAlice in a sad mood: whatever"
        assert parse_completion(raw) == "That's great news!"

    def test_stop_marker_cut(self):
        raw = "Sure. Bob asks Alice: why?"
        assert parse_completion(raw, stop_markers=["Bob "]) == "Sure."

    def test_whitespace_only_is_absent(self):
        assert parse_completion("   ") is None

    def test_first_marker_wins_char_scan_oracle(self):
        # oracle: earliest occurrence over all markers, scanned char by char
        raw = "one two three four five"
        markers = ["three", "two", "zzz"]
        expected_cut = len(raw)
        for i in range(len(raw)):
            for m in markers:
                if raw.startswith(m, i):
                    expected_cut = min(expected_cut, i)
        assert parse_completion(raw, stop_markers=markers) == raw[:expected_cut].strip()

    def test_never_contains_newline_or_marker(self):
        raws = ["a\nb", "x Bob y", "Bob x", "\n", "plain", "  padded  \n Bob"]
        for raw in raws:
            out = parse_completion(raw, stop_markers=["Bob "])
            if out is not None:
                assert "\n" not in out
                assert "Bob " not in out


class TestMockBackend:
    def test_zero_noise_draws_from_prescribed_templates(self):
        backend = mock_backend(noise_rate=0.0)
        out = generate(rp(), GenParams(seed=3), backend)
        assert len(out) == 1
        assert out[0].raw in toy_templates()["happiness"]
        assert out[0].hidden_label == "happiness"

    def test_full_noise_always_wrong_label(self):
        backend = mock_backend(noise_rate=1.0)
        for seed in range(20):
            out = generate(rp(), GenParams(seed=seed), backend)
            assert out[0].hidden_label != "happiness"
            assert out[0].raw in toy_templates()[out[0].hidden_label]

    def test_bit_deterministic(self):
        backend = mock_backend(noise_rate=0.3)
        a = generate(rp(), GenParams(seed=11), backend)
        b = generate(rp(), GenParams(seed=11), backend)
        assert [(c.raw, c.hidden_label) for c in a] == [(c.raw, c.hidden_label) for c in b]

    def test_deterministic_across_threads(self):
        backend = mock_backend(noise_rate=0.5)
        results = [None] * 8

        def worker(i):
            results[i] = generate(rp(), GenParams(seed=2), backend)[0].raw

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1

    def test_num_return(self):
        backend = mock_backend()
        out = generate(rp(), GenParams(mode="beam", num_return=3, seed=0), backend)
        assert len(out) == 3

    def test_noise_rate_converges(self):
        # N=10,000 generations: observed mismatch fraction within 0.02 of q
        q = 0.3
        backend = mock_backend(noise_rate=q)
        params = GenParams(seed=0)
        mismatched = 0
        n = 10_000
        for i in range(n):
            prompt = rp(text=f"prompt variant {i}\nBob in a happy mood:")
            c = backend.complete(prompt, params)[0]
            if c.hidden_label != "happiness":
                mismatched += 1
        assert abs(mismatched / n - q) < 0.02

    def test_unknown_label_rejected(self):
        backend = mock_backend()
        with pytest.raises(BackendError):
            backend.complete(rp(label="ennui"), GenParams())

    @pytest.mark.parametrize("value", ["ok then", ["ok then", 5], []],
                             ids=["string", "non-string-item", "empty"])
    def test_templates_must_be_lists_of_strings(self, value):
        with pytest.raises(ValueError, match="'neutral'"):
            MockGenConfig(templates={"neutral": value, "anger": ["so angry"]})


class _Handler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_with = (500, b"")  # (status, body) of a failed answer
    fail_headers = {}  # extra headers of a failed answer
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append((self.path, body))
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            status, reply = type(self).fail_with
            self.send_response(status)
            for name, value in type(self).fail_headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(reply)
            return
        payload = json.dumps({"completions": [f"echo: {body['prompt'][-10:]}"] * body["n"]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.fail_times = 0
    _Handler.fail_with = (500, b"")
    _Handler.fail_headers = {}
    _Handler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_forwards_params_verbatim(self, http_server):
        backend = HttpBackend(endpoint=http_server)
        params = GenParams(mode="beam", top_p=0.92, num_return=2, max_new_tokens=17,
                           stop_markers=("Bob ",), seed=9)
        out = backend.complete(rp(), params)
        assert len(out) == 2
        path, body = _Handler.requests_seen[-1]
        assert path == "/complete"
        assert body == {"prompt": rp().text, "mode": "beam", "top_p": 0.92, "n": 2,
                        "max_new_tokens": 17, "stop": ["Bob "], "seed": 9}

    def test_retries_then_succeeds(self, http_server):
        _Handler.fail_times = 2
        backend = HttpBackend(endpoint=http_server)
        out = backend.complete(rp(), GenParams())
        assert len(out) == 1
        assert len(_Handler.requests_seen) == 3

    def test_retry_exhaustion_raises_with_attempts(self, http_server):
        _Handler.fail_times = 10
        backend = HttpBackend(endpoint=http_server)
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.complete(rp(), GenParams())
        assert len(_Handler.requests_seen) == 3

    @pytest.mark.parametrize("status, reply", [(400, b""), (200, b"not json"),
                                               (200, b'{"no": "completions"}'),
                                               (302, b""),  # redirects are not followed
                                               (200, b'{"completions": "one text"}'),
                                               # n is 1: not exactly n completions
                                               (200, b'{"completions": []}'),
                                               (200, b'{"completions": ["a", "b"]}')])
    def test_non_transient_failure_is_not_retried(self, http_server, status, reply):
        _Handler.fail_times = 10
        _Handler.fail_with = (status, reply)
        backend = HttpBackend(endpoint=http_server)
        with pytest.raises(BackendError):
            backend.complete(rp(), GenParams())
        assert len(_Handler.requests_seen) == 1

    def test_endpoint_path_prefix_is_kept(self, http_server):
        backend = HttpBackend(endpoint=f"{http_server}/v1")
        assert backend.complete(rp(), GenParams())
        assert [path for path, _ in _Handler.requests_seen] == ["/v1/complete"]

    def test_body_cut_short_is_retried(self, http_server):
        # the connection closes before the promised Content-Length arrives
        _Handler.fail_times = 1
        _Handler.fail_with = (200, b'{"completions": ["cut')
        _Handler.fail_headers = {"Content-Length": "100"}
        backend = HttpBackend(endpoint=http_server)
        out = backend.complete(rp(), GenParams())
        assert [c.raw for c in out] == [f"echo: {rp().text[-10:]}"]
        assert len(_Handler.requests_seen) == 2

    def test_https_endpoint_opens_https_connection(self, http_server, monkeypatch):
        # the recorder notes where an HTTPS connection would go, then talks
        # plain HTTP to the local server, so no TLS or network is involved
        opened = []
        local_port = int(http_server.rsplit(":", 1)[1])

        class Recorder(http.client.HTTPConnection):
            def __init__(self, host, port=None, timeout=None, **kwargs):
                opened.append((host, port))
                super().__init__("127.0.0.1", local_port, timeout=timeout)

        monkeypatch.setattr(http.client, "HTTPSConnection", Recorder)
        backend = HttpBackend(endpoint="https://localhost/v1")
        assert backend.complete(rp(), GenParams())
        assert opened == [("localhost", 443)]
        assert [path for path, _ in _Handler.requests_seen] == ["/v1/complete"]

    def test_certificate_verification_failure_is_not_retried(self, monkeypatch):
        calls, sleeps = [], []

        def refused(body):
            calls.append(body)
            raise ssl.SSLCertVerificationError("certificate verify failed")

        backend = HttpBackend(endpoint="https://localhost/v1")
        monkeypatch.setattr(backend, "_post", refused)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(BackendError, match="certificate verify failed"):
            backend.complete(rp(), GenParams())
        assert (len(calls), sleeps) == (1, [])

    @pytest.mark.parametrize("kwargs", [{"max_parallel": 0}], ids=["no-slots"])
    def test_arguments_that_hang_or_never_send_rejected(self, kwargs):
        with pytest.raises(ValueError, match="max_parallel >= 1"):
            HttpBackend(endpoint="http://127.0.0.1:8080", **kwargs)

    def test_endpoint_that_is_not_a_string_rejected(self):
        with pytest.raises(ValueError, match="endpoint must be http.*got 5$"):
            HttpBackend(endpoint=5)

    def test_explicit_endpoint_beats_env_var(self, http_server, monkeypatch):
        monkeypatch.setenv("WEAKDAP_ENDPOINT", "http://unreachable.invalid")
        backend = HttpBackend(endpoint=http_server)
        assert backend.endpoint == http_server
        assert backend.complete(rp(), GenParams())
        monkeypatch.setenv("WEAKDAP_ENDPOINT", http_server)
        assert HttpBackend().endpoint == http_server


def test_importing_weakdap_leaves_out_requests():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, weakdap, weakdap.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    assert out.stdout.strip() == "False"


@pytest.fixture
def slow_server():
    """Threaded completion server answering after 20 ms with a text that
    depends only on the request; yields (endpoint, stats) where stats counts
    requests and the peak number in flight. stats["status"] sets the answer's
    status code."""
    delay = 0.02
    stats = {"requests": 0, "inflight": 0, "peak": 0, "status": 200}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                stats["requests"] += 1
                stats["inflight"] += 1
                stats["peak"] = max(stats["peak"], stats["inflight"])
            time.sleep(delay)
            with lock:
                stats["inflight"] -= 1
            if stats["status"] != 200:
                self.send_response(stats["status"])
                self.end_headers()
                return
            text = f"reply {body['seed'] % 997} to {len(body['prompt'])} chars"
            payload = json.dumps({"completions": [text] * body["n"]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", stats
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestConcurrentGeneration:
    SPACE = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)

    def _augment(self, endpoint, strategy, n_gold, turns):
        rng = random.Random(31)
        gold = [toy_conversation(f"g{i}", rng, n=turns) for i in range(n_gold)]
        backend = HttpBackend(endpoint=endpoint, max_parallel=3)
        return run_augmentation(gold, AugmentPlan(strategy=strategy, multiplier=1.0, seed=2),
                                backend, PromptSpec(task="emotion"), self.SPACE, GenParams())

    def test_in_flight_capped_by_max_parallel_and_output_unchanged(self, slow_server,
                                                                   monkeypatch):
        endpoint, stats = slow_server
        monkeypatch.setattr(augment, "MAX_WORKERS", 1)
        serial = [candidate_to_dict(c) for c in self._augment(endpoint, "cta", 12, 4)]
        assert stats["peak"] == 1
        stats["peak"] = 0
        monkeypatch.setattr(augment, "MAX_WORKERS", 8)
        pooled = [candidate_to_dict(c) for c in self._augment(endpoint, "cta", 12, 4)]
        assert 1 < stats["peak"] <= 3
        assert pooled == serial
        assert stats["requests"] == 2 * 12 * 2  # two generated turns per conversation

    def test_failing_backend_stops_queued_jobs(self, slow_server):
        endpoint, stats = slow_server
        stats["status"] = 503
        with pytest.raises(BackendError):
            self._augment(endpoint, "lta", 40, 2)
        # only the jobs running at the first failure ever send requests
        assert 0 < stats["requests"] <= augment.MAX_WORKERS * 3


class TestGenParams:
    def test_defaults(self):
        p = GenParams()
        assert p.top_p == 0.92
        assert p.num_return == 1

    def test_invalid_top_p(self):
        with pytest.raises(ValueError):
            GenParams(top_p=0.0)

    def test_invalid_num_return(self):
        with pytest.raises(ValueError):
            GenParams(num_return=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            GenParams(mode="bogus", top_p=7.0)
        assert GenParams(mode="beam", top_p=7.0).mode == "beam"
