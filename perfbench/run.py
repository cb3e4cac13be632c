"""Benchmark of `weakdap.loop.run_weakdap`, the augment -> filter -> train ->
evaluate loop users run.

    python3 perfbench/run.py --workload lta-mock --seed 1 --seconds 15 --trace 0

Workloads (inputs are generated from --seed; sizes do not depend on it):

  lta-mock         4-label emotion dialogues, mock backend, last-turn
                   augmentation. Train-bound: trainer, featurizer and
                   checkpoint changes show here; generation changes must not.
  cta-http         the same task, trajectory augmentation against a localhost
                   completion server in a child process with a fixed delay per
                   request. Generation-bound, sequential within a
                   conversation: the only workload where backend and augment
                   changes (concurrency, connection reuse, retries) show.
  intent-refilter  12-intent single-turn utterances, in-context cross-lingual
                   augmentation with three returns per prompt, generated once
                   and re-filtered. Three times the classes of the others, so
                   the dense trainer and the checkpoint size scale with it.

Every workload runs exactly ITERATIONS loop iterations and trains for a fixed
number of epochs, so a change that moves a validation score cannot change
how much work a run does. The seed makes PARTS datasets of the same size.

With --trace 0 it times loops over all PARTS datasets, untraced, and prints
the end-to-end metrics. With --trace 1 it alternates untraced and traced
loops on the first dataset and prints the per-layer metrics from the spans
of `spans.py`, writing the spans to `.perfbench_out/`. Either way it checks
the outputs; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # a setup probe's set-up time starts here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import urllib.request  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The benchmark measures the program in its own checkout, never an
# installed copy: without the sources it must fail.
if not (SRC / "weakdap" / "__init__.py").is_file():
    sys.exit(f"perfbench: no weakdap sources under {SRC}")
for _p in (str(BENCH_DIR), str(SRC)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np  # noqa: E402

import weakdap  # noqa: E402
from weakdap.augment import AugmentPlan  # noqa: E402
from weakdap.corpus import Dataset, load_jsonl, write_jsonl  # noqa: E402
from weakdap.genbackend import GenParams, HttpBackend, MockBackend, MockGenConfig  # noqa: E402
from weakdap.loop import LoopConfig, run_weakdap  # noqa: E402
from weakdap.prompt import EMOTION_ADJECTIVES, PromptSpec  # noqa: E402
from weakdap.weaklabel import FilterConfig, TrainConfig  # noqa: E402

import datagen  # noqa: E402
import spans  # noqa: E402

if Path(weakdap.__file__).resolve().parent != SRC / "weakdap":
    sys.exit(f"perfbench: imported weakdap from {weakdap.__file__}, not from {SRC}")

# Per workload: gold sizes (dialogues, or utterances per intent) of each of
# the PARTS datasets, and the loop's augmentation settings.
WORKLOADS = {
    "lta-mock": dict(train=150, val=150, strategy="lta", multiplier=2.0, regen="fresh"),
    # Few candidates per gold dialogue: enough gold for a steady score while
    # generation, four requests per candidate, stays the largest share.
    "cta-http": dict(train=96, val=150, strategy="cta", multiplier=0.25, regen="fresh"),
    # Multiplier 3.0 is the work the in-context path does today (one call per
    # reference, three returns), so a budget scheduler for it keeps the work.
    "intent-refilter": dict(train=12, val=20, strategy="incontext", multiplier=3.0,
                            regen="refilter"),
}
# A run's end-to-end quality metrics pool PARTS independent datasets made
# from its seed: one dataset is too small a sample for steady figures.
PARTS = 4
ITERATIONS = 3
EPOCHS = 20
NOISE = 0.3
DELAY_MS = 10.0
SETUP_PROBES = 5
MIN_TRACED = 2
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


class ServerProcess:
    """The completion server (`server.py`) as a child process."""

    def __init__(self, config_path: Path, noise: float, seed: int, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), "--config", str(config_path),
             "--delay-ms", str(delay_ms), "--noise", str(noise), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"completion server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.endpoint + path, data=data, timeout=30) as resp:
            return json.load(resp)

    def stats(self) -> dict:
        return self._call("/stats")

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # the server exits at end of input
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


@dataclass
class Setup:
    """Everything one workload's loops need, loaded from disk."""
    datasets: list
    templates: dict
    backend: object
    plan: AugmentPlan
    spec: PromptSpec
    gen_params: GenParams
    loop_cfg: LoopConfig
    train_cfg: TrainConfig
    en_pool: list | None = None
    server: ServerProcess | None = None
    corpus_load_s: float = 0.0
    corpus_records: int = 0

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def build(name: str, seed: int, work: Path, scale: float = 1.0) -> Setup:
    """Generate the workload's PARTS datasets from the seed, round-trip them
    through JSONL, and start its backend."""
    def n(x):
        return max(2, round(x * scale))

    size = WORKLOADS[name]
    en_pool = None
    if name == "intent-refilter":
        gold, en_pool, templates = datagen.intent_task(seed, PARTS, n(size["train"]), n(size["val"]))
        schema = "utterance"
    else:
        gold, templates = datagen.emotion_task(seed, PARTS, n(size["train"]), n(size["val"]))
        schema = "dialogue"

    load_s, records = 0.0, 0

    def round_trip(recs, path: Path):
        nonlocal load_s, records
        path.parent.mkdir(parents=True, exist_ok=True)
        write_jsonl(recs, path)
        t = time.perf_counter()
        loaded = load_jsonl(path, schema)
        load_s += time.perf_counter() - t
        records += len(loaded)
        return loaded

    datasets = [Dataset(label_space=d.label_space,
                        train=round_trip(d.train, work / f"data{k}" / "train.jsonl"),
                        validation=round_trip(d.validation, work / f"data{k}" / "validation.jsonl"))
                for k, d in enumerate(gold)]
    if en_pool is not None:
        en_pool = round_trip(en_pool, work / "en.jsonl")

    loop_cfg = LoopConfig(epsilon=0.005, patience=ITERATIONS, max_iterations=ITERATIONS,
                          metric="macro_f1", regen=size["regen"])
    # Early stopping off: the trainer does the same work whatever the data.
    train_cfg = TrainConfig(epochs=EPOCHS, patience=EPOCHS, seed=seed)
    plan = AugmentPlan(size["strategy"], size["multiplier"], seed=seed)
    server = None
    if name == "cta-http":
        spec, params = PromptSpec("emotion", strategy="cta"), GenParams()
        config = work / "server.json"
        cue_words = {adj: label for label, adj in EMOTION_ADJECTIVES.items()}
        config.write_text(json.dumps({"templates": templates, "cue_words": cue_words}))
        server = ServerProcess(config, NOISE, seed, DELAY_MS)
        backend = HttpBackend(endpoint=server.endpoint, max_parallel=min(4, os.cpu_count() or 1))
    else:
        if name == "lta-mock":
            spec, params = PromptSpec("emotion"), GenParams()
        else:
            spec, params = PromptSpec("intent", strategy="incontext"), GenParams(mode="beam", num_return=3)
        backend = MockBackend(MockGenConfig(templates, noise_rate=NOISE, seed=seed))
    return Setup(datasets=datasets, templates=templates, backend=backend, plan=plan,
                 spec=spec, gen_params=params, loop_cfg=loop_cfg, train_cfg=train_cfg,
                 en_pool=en_pool, server=server, corpus_load_s=load_s, corpus_records=records)


@dataclass
class LoopRun:
    """What one `run_weakdap` call did, read back from its run directory."""
    part: int
    seconds: float
    calls: int
    failed_calls: int
    error: str | None = None
    digest: str = ""
    run_bytes: int = 0
    produced: int = 0
    scores: list = field(default_factory=list)
    best_score: float = math.nan
    kept: int = 0
    kept_noisy: int = 0
    scored: int = 0
    scored_noisy: int = 0
    unmapped: int = 0
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def kept_noise_rate(self) -> float:
        return self.kept_noisy / self.kept if self.kept else math.nan

    @property
    def planted_rate(self) -> float:
        return self.scored_noisy / self.scored if self.scored else math.nan


def _dir_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        total += len(data)
        h.update(str(f.relative_to(path)).encode() + b"\0" + data)
    return h.hexdigest(), total


def _silver(cand: dict):
    """(text, prescribed label) of each generated training instance."""
    payload = cand["payload"]
    if "turns" not in payload:
        return [(payload["text"], payload["intent"])]
    turns = payload["turns"]
    return [(turns[i]["text"], turns[i]["emotion"]) for i in cand["generated_turns"]]


def read_run(run: LoopRun, out_dir: Path, templates: dict) -> None:
    """Fill `run` from the run directory: digest, size, scores, and planted
    noise among the generated instances of every filtered iteration."""
    run.digest, run.run_bytes = _dir_digest(out_dir)
    doc = json.loads((out_dir / "run.json").read_text())
    run.scores = doc["state"]["score_history"]
    run.best_score = doc["state"]["best_score"]
    run.produced = sum(it["counts"]["produced"] for it in doc["iterations"])
    planted = datagen.template_labels(templates)
    for it in doc["iterations"][1:]:  # iteration 0 keeps everything unfiltered
        with open(out_dir / it["candidates"], encoding="utf-8") as f:
            for line in f:
                cand = json.loads(line)
                if cand["payload"] is None:
                    continue
                for text, prescribed in _silver(cand):
                    label = planted.get(text)
                    if label is None:
                        run.unmapped += 1
                        continue
                    noisy = label != prescribed
                    run.scored += 1
                    run.scored_noisy += noisy
                    if cand["verdict"] == "kept":
                        run.kept += 1
                        run.kept_noisy += noisy


def run_loop(setup: Setup, part: int, out_dir: Path, traced: bool = False) -> LoopRun:
    """One `run_weakdap` call on dataset `part` into a fresh out_dir, timed;
    traced on request."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    if setup.server is not None:
        setup.server.reset()
    tracer = spans.Tracer() if traced else None
    backend = spans.PassThroughBackend(setup.backend, tracer)
    args = (setup.datasets[part], setup.plan, FilterConfig(percentile=80.0), setup.loop_cfg,
            backend, setup.spec)
    kwargs = dict(gen_params=setup.gen_params, train_cfg=setup.train_cfg,
                  out_dir=str(out_dir), en_pool=setup.en_pool)
    error = None
    model = None
    start = time.perf_counter()
    try:
        if tracer is None:
            model, _, _ = run_weakdap(*args, **kwargs)
        else:
            with spans.instrument(tracer) as distinct, tracer.span("loop"):
                model, _, _ = run_weakdap(*args, **kwargs)
    except Exception as e:  # a failed loop is counted, not fatal
        error = f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    run = LoopRun(part=part, seconds=seconds, calls=backend.calls, failed_calls=backend.failed,
                  error=error)
    if error is None:
        read_run(run, out_dir, setup.templates)
        if tracer is not None:
            stats = setup.server.stats() if setup.server is not None else None
            run.spans = tracer.spans
            run.layers = layer_metrics(tracer.spans, distinct, stats, backend, model)
    return run


def _pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)] if s else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(recorded, distinct: set, stats: dict | None, backend, model) -> dict:
    """Per-layer metrics of one traced loop."""
    self_t = spans.self_times(recorded)
    by: dict[str, list] = {}
    for s in recorded:
        by.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.dur for s in by.get(name, ()))

    def self_s(name):
        return sum(self_t[s.id] for s in by.get(name, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by.get(name, ()))

    gen = by.get("genbackend.complete", [])
    call_ms = [s.dur * 1000.0 for s in gen]
    handling = stats["handling_ms"] if stats else {}
    # Without a server (mock backend) no handling time is reported: the
    # whole call counts as transport.
    transport_ms = [s.dur * 1000.0 - (handling[s.attrs["key"]].pop(0)
                                      if handling.get(s.attrs["key"]) else 0.0)
                    for s in gen]
    requests = stats["requests"] if stats else 0
    texts = attr("weaklabel.featurize", "texts")
    W = model.weights
    return {
        "prompt.calls": (len(by.get("prompt.render", ())), "count"),
        "prompt.render_s": (busy("prompt.render"), "s"),
        "prompt.chars": (attr("prompt.render", "chars"), "chars"),
        "genbackend.calls": (len(gen), "count"),
        "genbackend.busy_s": (busy("genbackend.complete"), "s"),
        "genbackend.call_ms_p50": (_pct(call_ms, 50), "ms"),
        "genbackend.call_ms_p99": (_pct(call_ms, 99), "ms"),
        "genbackend.transport_ms_p50": (_pct(transport_ms, 50), "ms"),
        "genbackend.server_requests": (requests, "count"),
        "genbackend.retries": (max(0, requests - len(gen)) if stats else 0, "count"),
        "genbackend.failed": (backend.failed, "count"),
        "genbackend.max_inflight": (stats["max_inflight"] if stats else 0, "count"),
        "genbackend.concurrency": (_ratio(busy("genbackend.complete"), busy("augment")), "ratio"),
        "augment.calls": (len(by.get("augment", ())), "count"),
        "augment.busy_s": (busy("augment"), "s"),
        "augment.self_s": (self_s("augment"), "s"),
        "augment.candidates": (attr("augment", "candidates"), "count"),
        "augment.parse_drop_ratio": (_ratio(attr("augment", "dropped_parse"),
                                            attr("augment", "candidates")), "ratio"),
        "weaklabel.train_calls": (len(by.get("weaklabel.train", ())), "count"),
        "weaklabel.train_s": (busy("weaklabel.train"), "s"),
        "weaklabel.train_self_s": (self_s("weaklabel.train"), "s"),
        "weaklabel.train_instances_per_s": (_ratio(attr("weaklabel.train", "instances"),
                                                   busy("weaklabel.train")), "1/s"),
        "weaklabel.featurize_texts": (texts, "count"),
        "weaklabel.featurize_s": (busy("weaklabel.featurize"), "s"),
        "weaklabel.featurize_texts_per_s": (_ratio(texts, busy("weaklabel.featurize")), "1/s"),
        "weaklabel.featurize_repeat_ratio": (_ratio(texts, len(distinct)), "ratio"),
        "weaklabel.filter_s": (busy("weaklabel.filter"), "s"),
        "weaklabel.kept_ratio": (_ratio(attr("weaklabel.filter", "kept"),
                                        attr("weaklabel.filter", "scored")), "ratio"),
        "weaklabel.model_nnz_cols": (int(np.count_nonzero(np.any(W != 0, axis=0))), "count"),
        "loop.iterations": (len(by.get("weaklabel.train", ())), "count"),
        "loop.self_s": (self_s("loop"), "s"),
        "loop.evaluate_s": (busy("loop.evaluate"), "s"),
        "loop.checkpoint_s": (busy("loop.checkpoint"), "s"),
        "loop.checkpoint_bytes": (attr("loop.checkpoint", "bytes"), "bytes"),
        "loop.candidates_write_s": (busy("loop.write_candidates"), "s"),
        "loop.candidates_bytes": (attr("loop.write_candidates", "bytes"), "bytes"),
        "metrics.report_s": (busy("metrics.report"), "s"),
    }


def probe_setup(name: str, seed: int, scale: float) -> float:
    """Set up once in this fresh process; seconds from interpreter start
    of this script (imports included) until the loop could run."""
    work = WORK_DIR / f"probe-{os.getpid()}"
    setup = build(name, seed, work, scale)
    try:
        if setup.server is not None:
            setup.server.stats()  # answering requests
        return time.perf_counter() - _T0
    finally:
        setup.close()
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int, scale: float) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--scale", str(scale)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment() -> dict:
    """Versions, machine and load at start, and which program was measured:
    the git commit when the checkout is a repository, and always a digest of
    the program's sources."""
    import requests
    import scipy
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for f in sorted((SRC / "weakdap").rglob("*.py")):
        digest.update(f.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "requests": requests.__version__,
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(), "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check(runs: list[LoopRun], noise_checked: bool) -> list[str]:
    """Output checks; each problem is one message."""
    problems = []
    digests: dict[int, set] = {}
    for i, r in enumerate(runs):
        if r.error is not None:
            problems.append(f"loop {i} failed: {r.error}")
            continue
        digests.setdefault(r.part, set()).add(r.digest)
        if len(r.scores) != ITERATIONS:
            problems.append(f"loop {i} ran {len(r.scores)} iterations, not {ITERATIONS}")
        if not r.best_score >= r.scores[0]:
            problems.append(f"loop {i}: best_score {r.best_score} below iteration 0 {r.scores[0]}")
        if r.unmapped:
            problems.append(f"loop {i}: {r.unmapped} generated texts match no template")
        if noise_checked and not r.kept_noise_rate < r.planted_rate:
            problems.append(f"loop {i}: kept_noise_rate {r.kept_noise_rate:.4f} not below "
                            f"planted rate {r.planted_rate:.4f}")
        if r.spans:
            missing = spans.missing_spans(r.spans)
            if missing:
                problems.append(f"loop {i}: expected spans never fired: {', '.join(missing)}")
    for part, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"dataset {part}: run directories differ across repeats")
    return problems


def measure(setup: Setup, seconds: float, traced: bool, work: Path) -> tuple[list, list]:
    """Loops until `seconds` have passed, after an untimed warm-up on dataset 0.

    Untraced, the loops cycle through datasets 1, ..., PARTS-1, 0, 1, ... and
    visit each at least once, so dataset 0 always runs twice. Traced, they
    alternate untraced and traced loops on dataset 0, MIN_TRACED of each at
    least. Returns (untraced loops with the warm-up first, traced loops)."""
    out_dir = work / "run"
    plain = [run_loop(setup, 0, out_dir)]
    traced_runs = []
    start = time.perf_counter()
    while True:
        if traced:
            plain.append(run_loop(setup, 0, out_dir))
            traced_runs.append(run_loop(setup, 0, out_dir, traced=True))
            enough = len(traced_runs) >= MIN_TRACED
        else:
            plain.append(run_loop(setup, len(plain) % PARTS, out_dir))
            enough = len(plain) > PARTS
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced_runs


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(setup_s, runs: list[LoopRun], attempted: int, failed: int) -> dict:
    """Timings are medians over the timed loops (all but the warm-up);
    quality and size pool the PARTS datasets."""
    timed = [r for r in runs[1:] if r.error is None]
    parts = {}
    for r in runs:
        if r.error is None:
            parts.setdefault(r.part, r)
    pooled = list(parts.values()) if len(parts) == PARTS else []
    kept = sum(r.kept for r in pooled)
    return {
        "loop_s": (_median([r.seconds for r in timed]), "s"),
        "candidates_per_s": (_median([r.produced / r.seconds for r in timed]), "1/s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "run_dir_mb": (statistics.fmean(r.run_bytes for r in pooled) / 1e6 if pooled else math.nan, "MB"),
        "success_frac": (1.0 - failed / attempted, "frac"),
        "best_score": (statistics.fmean(r.best_score for r in pooled) if pooled else math.nan, "macro_f1"),
        "kept_noise_rate": (sum(r.kept_noisy for r in pooled) / kept if kept else math.nan, "frac"),
    }


def per_layer(setup: Setup, plain: list[LoopRun], traced: list[LoopRun]) -> dict:
    """Medians over the traced loops; overhead against the timed untraced ones."""
    ok = [r for r in traced if r.error is None]
    out = {}
    if ok:
        for name, (_, unit) in ok[0].layers.items():
            out[name] = (_median([r.layers[name][0] for r in ok]), unit)
    out["corpus.load_s"] = (setup.corpus_load_s, "s")
    out["corpus.records"] = (setup.corpus_records, "count")
    untraced = _median([r.seconds for r in plain[1:] if r.error is None])
    out["trace_overhead_frac"] = (_median([r.seconds for r in ok]) / untraced - 1.0, "frac")
    return out


def write_trace(path: Path, runs: list[LoopRun]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for k, r in enumerate(runs):
            for s in r.spans:
                f.write(json.dumps({"loop": k, **s.to_dict()}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="weakdap loop benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="data size factor; below 1 only for the benchmark's own smoke tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # An endpoint in the environment would override the server's (HttpBackend).
    os.environ.pop("WEAKDAP_ENDPOINT", None)

    if args.setup_probe:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed, args.scale)}))
        return 0

    env = environment()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup = None
    try:
        setup = build(args.workload, args.seed, work, args.scale)
        setup_s = measure_setup(args.workload, args.seed, args.scale)
        plain, traced = measure(setup, args.seconds, bool(args.trace), work)
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass

    runs = plain + traced
    # Filtering must cut planted noise below its rate on the mock-backend
    # workloads. The HTTP workload trains on every generated turn of a
    # trajectory but filters only the last, so its rate is reported only.
    problems = check(runs, noise_checked=args.workload != "cta-http")
    attempted = sum(r.calls for r in runs) + len(runs)
    failed = sum(r.failed_calls for r in runs) + sum(r.error is not None for r in runs)
    if args.trace:
        metrics = per_layer(setup, plain, traced)
        write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl", traced)
    else:
        metrics = end_to_end(setup_s, plain, attempted, failed)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(plain) - 1} untraced"
          + (f" and {len(traced)} traced" if args.trace else "") + " loops measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
