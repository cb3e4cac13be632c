"""Tests of the benchmark itself: tiny-scale smoke runs of every workload,
span arithmetic, the output checks, the completion server and the data
generator.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import http.client
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import datagen
import run
import spans
from server import Completer, cue_label

BENCH_DIR = Path(__file__).resolve().parent
SCALE = 0.25


@pytest.fixture
def quick(monkeypatch):
    """Fewer repeats than a measured run; the same code paths."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "PARTS", 2)
    monkeypatch.setattr(run, "MIN_TRACED", 1)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_untraced(workload, capsys, quick):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--scale", str(SCALE)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0 and result["correct"], out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["failed"] == 0 and result["attempted"] > run.PARTS
    assert json.loads(out[-2])["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_traced(workload, capsys, quick):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                     "--scale", str(SCALE)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["loop.iterations"] == run.ITERATIONS
    assert metrics["weaklabel.train_calls"] == run.ITERATIONS
    assert metrics["genbackend.failed"] == 0
    if workload == "cta-http":
        assert metrics["genbackend.server_requests"] == metrics["genbackend.calls"]
        assert metrics["genbackend.max_inflight"] >= 1


def test_self_and_child_times_add_up_to_span_time(tmp_path):
    setup = run.build("lta-mock", 5, tmp_path, scale=SCALE)
    try:
        loop = run.run_loop(setup, 0, tmp_path / "run", traced=True)
    finally:
        setup.close()
    assert loop.error is None and not spans.missing_spans(loop.spans)
    self_t = spans.self_times(loop.spans)
    by_id = {s.id: s for s in loop.spans}
    child_time = {s.id: 0.0 for s in loop.spans}
    for s in loop.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            child_time[s.parent] += s.dur
    for s in loop.spans:
        assert self_t[s.id] + child_time[s.id] == pytest.approx(s.dur, rel=1e-9, abs=1e-9)
    roots = [s for s in loop.spans if s.parent is None]
    assert [s.name for s in roots] == ["loop"]


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(0, None, "p", 0.0)
    parent.end = 10.0
    a, b = spans.Span(1, 0, "c", 1.0), spans.Span(2, 0, "c", 3.0)
    a.end, b.end = 5.0, 6.0  # concurrent children cover 1..6
    assert spans.self_times([parent, a, b])[0] == pytest.approx(5.0)


def test_checks_name_the_failure():
    good = run.LoopRun(part=0, seconds=1.0, calls=1, failed_calls=0, digest="x",
                       scores=[0.5, 0.6, 0.55], best_score=0.6, kept=10, kept_noisy=1,
                       scored=20, scored_noisy=6)
    assert run.check([good, good], noise_checked=True) == []
    other = run.LoopRun(**{**good.__dict__, "digest": "y"})
    assert "differ across repeats" in run.check([good, other], noise_checked=True)[0]
    noisy = run.LoopRun(**{**good.__dict__, "kept_noisy": 5})
    assert "kept_noise_rate" in run.check([noisy], noise_checked=True)[0]
    assert run.check([noisy], noise_checked=False) == []
    traced = run.LoopRun(**{**good.__dict__, "spans": [spans.Span(0, None, "loop", 0.0)]})
    problem = run.check([traced], noise_checked=True)[0]
    assert "never fired" in problem and "weaklabel.train" in problem


def test_server_keep_alive_counts_and_determinism(tmp_path):
    templates = {"anger": ["grr one", "grr two"], "neutral": ["ok one", "ok two"]}
    config = tmp_path / "server.json"
    config.write_text(json.dumps({"templates": templates, "cue_words": {"angry": "anger"}}))
    server = run.ServerProcess(config, noise=0.0, seed=0, delay_ms=1.0)
    try:
        host, port = server.endpoint.rsplit("/", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        body = json.dumps({"prompt": "Alice in an angry mood:", "n": 2, "seed": 4})
        answers = []
        for _ in range(2):  # both requests on one connection
            conn.request("POST", "/complete", body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200 and resp.getheader("Connection") != "close"
            answers.append(json.loads(resp.read())["completions"])
        conn.close()
        assert answers[0] == answers[1] and all(a in templates["anger"] for a in answers[0])
        stats = server.stats()
        assert stats["requests"] == 2 and stats["max_inflight"] == 1
        assert sum(len(v) for v in stats["handling_ms"].values()) == 2
        server.reset()
        assert server.stats()["requests"] == 0
    finally:
        server.close()
    assert server.proc.returncode == 0


def test_server_reads_both_cue_kinds():
    words = {"happy": "happiness"}
    assert cue_label("Alice in a neutral mood: hi\nBob in a happy mood:", words) == "happiness"
    intent = "English: a b => intent: set_alarm\nSpanish: c d => intent: set_alarm\nSpanish (new, same intent):"
    assert cue_label(intent, words) == "set_alarm"
    completer = Completer({"x": ["one"], "y": ["two"]}, {}, noise=1.0, seed=0, delay_s=0.0)
    assert completer.complete({"prompt": "Spanish: q => intent: x\nSpanish (new, same intent):",
                               "n": 3, "seed": 1}) == ["two"] * 3


def test_datagen_is_seeded_and_templates_identify_labels():
    a, tpl_a = datagen.emotion_task(1, 2, 10, 10)
    b, tpl_b = datagen.emotion_task(1, 2, 10, 10)
    c, _ = datagen.emotion_task(2, 2, 10, 10)
    assert a[0].train == b[0].train and tpl_a == tpl_b
    assert a[0].train != c[0].train and a[0].train != a[1].train
    planted = datagen.template_labels(tpl_a)
    assert len(planted) == sum(len(v) for v in tpl_a.values())  # no text under two labels
    gold = {t.text for d in a for conv in d.train for t in conv.turns}
    assert not gold & set(planted)
    parts, en_pool, tpl = datagen.intent_task(1, 2, 3, 4)
    assert len(parts[0].train) == 3 * len(datagen.INTENT_LABELS)
    assert {u.lang for u in en_pool} == {"en"} and {u.lang for u in parts[0].train} == {"es"}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lta-mock",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
