"""Acceptance suite: one test per criterion, each printing a single
"ACCEPTANCE <n> ...: PASS|FAIL" line with its runtime. Every criterion is
checked against an oracle implemented independently in this file."""
import json
import math
import random
import time

import numpy as np
import pytest

from weakdap.augment import AugmentPlan, run_augmentation
from weakdap.baselines import PUNCTUATION, AedaConfig, EdaConfig, aeda_augment, eda_augment
from weakdap.corpus import Candidate, Dataset, LabelSpace, LabeledUtterance, instances_of
from weakdap.genbackend import GenParams
from weakdap.loop import LoopConfig, run_weakdap
from weakdap.metrics import accuracy, confusion_matrix, macro_f1, micro_f1_no_majority
from weakdap.prompt import PromptSpec
from weakdap.weaklabel import (
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    entropy_bits,
    filter_candidates,
    planted_noise_retention,
    train,
)

from conftest import TOY_LABELS, mock_backend, run_scripted, toy_conversation, toy_templates

RUNTIMES = {}

TRAIN = TrainConfig(seed=3, epochs=30)
E2E_SEED = 5

pytestmark = pytest.mark.usefixtures("dim_1_14")


def _finish(num, name, start, limit, failures, runtime_key=None):
    elapsed = time.perf_counter() - start
    if runtime_key is not None:
        RUNTIMES[runtime_key] = elapsed
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.2f}s]")
    assert not failures, failures


def test_criterion_1_entropy_oracle():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(0)
    for C in (2, 4, 7, 12):
        for _ in range(1000):
            v = rng.random(C) + 1e-9
            v /= v.sum()
            oracle = math.fsum(-p * math.log2(p) for p in v if p > 0)
            if abs(entropy_bits(v) - oracle) > 1e-9:
                failures.append(f"C={C}: {entropy_bits(v)} vs oracle {oracle}")
        uniform = [1.0 / C] * C
        if abs(entropy_bits(uniform) - math.log2(C)) > 1e-12:
            failures.append(f"uniform C={C}: {entropy_bits(uniform)} != log2({C})")
        one_hot = [0.0] * C
        one_hot[0] = 1.0
        if entropy_bits(one_hot) != 0.0:
            failures.append(f"one-hot C={C}: {entropy_bits(one_hot)} != 0")
    _finish(1, "entropy oracle", start, 1.0, failures)


class _StubModel:
    """predict_proba from a fixed text -> probability-row table."""

    def __init__(self, label_space, rows):
        self.label_space = label_space
        self._rows = rows

    def predict_proba(self, texts):
        return np.array([self._rows[t] for t in texts])


def _oracle_filter(entries, percentile):
    """Independent keep-set computation: entries are (id, matched, entropy)."""
    kept = {cid for cid, matched, _ in entries if matched}
    mism = sorted((h, cid) for cid, matched, h in entries if not matched)
    if mism:
        m = len(mism)
        tau = mism[min(math.ceil(percentile / 100.0 * m), m - 1)][0]
        kept |= {cid for h, cid in mism if h >= tau}
    return kept


def test_criterion_2_filter_oracle():
    start = time.perf_counter()
    failures = []
    space = LabelSpace(task="intent", labels=("a", "b", "c", "d"))
    rng = np.random.default_rng(1)
    py_rng = random.Random(1)
    for batch in range(200):
        size = py_rng.randint(1, 200)
        rows, cands, entries = {}, [], []
        for i in range(size):
            p = rng.random(4) + 1e-9
            p /= p.sum()
            top = space.labels[int(p.argmax())]
            matched = py_rng.random() < 0.5
            prescribed = top if matched else py_rng.choice(
                [l for l in space.labels if l != top])
            text = f"b{batch}i{i}"
            rows[text] = p
            cands.append(Candidate(
                id=text, prescribed_label=prescribed, strategy="incontext",
                source_id="s",
                payload=LabeledUtterance(id=text, text=text, intent=prescribed,
                                         lang="en", provenance="silver",
                                         source_id="s")))
            entries.append((text, matched,
                            math.fsum(-q * math.log2(q) for q in p if q > 0)))
        P = (0, 50, 80, 100)[batch % 4]
        for c in cands:
            c.verdict = "pending"
        filter_candidates(cands, _StubModel(space, rows), FilterConfig(percentile=P))
        kept = {c.id for c in cands if c.verdict == "kept"}
        expected = _oracle_filter(entries, P)
        if kept != expected:
            failures.append(f"batch {batch} P={P}: kept set mismatch "
                            f"({len(kept)} vs {len(expected)})")
    _finish(2, "filter oracle", start, 5.0, failures)


def test_criterion_3_strategy_counts():
    start = time.perf_counter()
    failures = []
    backend = mock_backend()
    spec = PromptSpec(task="emotion")
    space = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)
    params = GenParams()
    templates = {t for bank in toy_templates().values() for t in bank}
    rng = random.Random(0)
    for n in range(2, 13):
        conv = toy_conversation(f"c{n}", rng, n=n)
        gold_texts = [t.text for t in conv.turns]

        ata = run_augmentation([conv], AugmentPlan("ata", n - 1, seed=1), backend, spec, space,
                               params)
        if len(ata) != n - 1:
            failures.append(f"ATA n={n}: {len(ata)} candidates")
        if sorted(len(c.payload.turns) for c in ata) != list(range(2, n + 1)):
            failures.append(f"ATA n={n}: wrong candidate lengths")
        for c in ata:
            L = len(c.payload.turns)
            if [t.text for t in c.payload.turns[:L - 1]] != gold_texts[:L - 1]:
                failures.append(f"ATA n={n}: context not all-gold")

        (lta,) = run_augmentation([conv], AugmentPlan("lta", 1.0, seed=1), backend, spec, space,
                                  params)
        if lta.payload is None or len(lta.payload.turns) != n:
            failures.append(f"LTA n={n}: not exactly one full-length candidate")

        cta_plan = AugmentPlan(strategy="cta", multiplier=1.0 / 1, seed=0)
        cta_all = run_augmentation([conv], cta_plan, backend, spec, space, params)
        if len(cta_all) != 1:
            failures.append(f"CTA n={n}: scheduler emitted {len(cta_all)}")
        if n >= 3:
            cta = cta_all[0]
            if cta.generated_turns != tuple(range(2, n)):
                failures.append(f"CTA n={n}: generated turns {cta.generated_turns}")
            if [t.text for t in cta.payload.turns[:2]] != gold_texts[:2]:
                failures.append(f"CTA n={n}: first two turns not gold")
            gen_texts = [cta.payload.turns[i].text for i in range(2, n)]
            if not all(t in templates for t in gen_texts):
                failures.append(f"CTA n={n}: turn-3+ not generated")
            if any(t == g for t, g in zip(gen_texts, gold_texts[2:])):
                failures.append(f"CTA n={n}: turn-3+ context still gold")
    _finish(3, "strategy counts", start, 1.0, failures)


def _reference_automaton(scores, eps, k, cap):
    """Independent (epsilon, k) trace: returns (history, best_iter, best)."""
    history, reference, stalls = [], None, 0
    for s in scores:
        history.append(s)
        if reference is None or s > reference + eps:
            reference, stalls = s, 0
        else:
            stalls += 1
        if stalls >= k or len(history) >= cap:
            break
    best = max(history)
    return history, history.index(best), best


def test_criterion_4_loop_automaton():
    start = time.perf_counter()
    failures = []
    cfg = LoopConfig(epsilon=0.005, patience=3, max_iterations=15)

    state = run_scripted([0.50, 0.51, 0.512, 0.513, 0.514, 0.99], cfg)
    if state.score_history != [0.50, 0.51, 0.512, 0.513, 0.514]:
        failures.append(f"hand trace: stopped with {state.score_history}")
    if state.best_score != max(state.score_history):
        failures.append(f"hand trace: best {state.best_score}")

    rng = random.Random(4)
    for case in range(20):
        n = rng.randint(1, 30)
        scores = [round(rng.random(), 3) for _ in range(n)]
        if case % 3 == 0 and n > 4:
            scores[2:] = [scores[2]] * (n - 2)  # force a plateau
        state = run_scripted(scores, cfg)
        history, best_iter, best = _reference_automaton(
            scores, cfg.epsilon, cfg.patience, cfg.max_iterations)
        if state.score_history != history:
            failures.append(f"case {case}: history diverges")
        if (state.best_iteration, state.best_score) != (best_iter, best):
            failures.append(f"case {case}: best ({state.best_iteration}, "
                            f"{state.best_score}) vs ({best_iter}, {best})")
    _finish(4, "loop automaton", start, 1.0, failures)


def _e2e_dataset() -> Dataset:
    rng = random.Random(7)
    space = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)
    return Dataset(
        label_space=space,
        train=[toy_conversation(f"tr{i}", rng) for i in range(200)],
        validation=[toy_conversation(f"va{i}", rng) for i in range(200)],
    )


def _e2e_run(out_dir=None):
    dataset = _e2e_dataset()
    plan = AugmentPlan(strategy="lta", multiplier=2.0, seed=E2E_SEED)
    return run_weakdap(
        dataset, plan, FilterConfig(), LoopConfig(metric="macro_f1"),
        mock_backend(noise_rate=0.4), PromptSpec(task="emotion"),
        gen_params=GenParams(), train_cfg=TRAIN, out_dir=out_dir)


def test_criterion_5_end_to_end_denoising(tmp_path):
    start = time.perf_counter()
    failures = []
    dataset = _e2e_dataset()
    space = dataset.label_space

    texts, labels = instances_of(dataset.train, space)
    gold_model = train(texts, labels, space, HashedFeaturizer(), TRAIN)
    val_texts, val_gold = instances_of(dataset.validation, space)
    acc = sum(p == g for p, g in zip(gold_model.predict(val_texts), val_gold)) \
        / len(val_gold)
    if not acc > 0.9:
        failures.append(f"(a) gold-model validation accuracy {acc:.4f} <= 0.9")

    plan = AugmentPlan(strategy="lta", multiplier=2.0, seed=E2E_SEED)
    backend = mock_backend(noise_rate=0.4)
    cands = run_augmentation(dataset.train, plan, backend,
                             PromptSpec(task="emotion"), space, GenParams())
    filter_candidates(cands, gold_model, FilterConfig())
    noise = planted_noise_retention(cands)
    if not noise["kept_noise_rate"] < 0.4:
        failures.append(f"(b) kept noise {noise['kept_noise_rate']:.3f} >= 0.4")
    if abs(noise["overall_noise_rate"] - 0.4) > 0.1:
        failures.append(f"(b) planted noise off target: {noise['overall_noise_rate']:.3f}")

    # persisted like the criterion-8 runs so the runtimes are comparable
    model, _, state = _e2e_run(out_dir=tmp_path / "run")
    if model is None:
        failures.append("(c) loop returned no model")
    elif not state.best_score >= state.score_history[0]:
        failures.append(f"(c) final macro-F1 {state.best_score:.4f} < unfiltered "
                        f"{state.score_history[0]:.4f}")
    _finish(5, "end-to-end denoising", start, 60.0, failures, runtime_key=5)


def test_criterion_6_metrics_oracle():
    start = time.perf_counter()
    failures = []

    def instance_scores(gold, pred, n_classes, majority):
        acc = sum(g == p for g, p in zip(gold, pred)) / len(gold)
        f1s = []
        for c in range(n_classes):
            tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
            fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
            fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
            f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        pairs = [(g, p) for g, p in zip(gold, pred) if g != majority]
        tp = sum(1 for g, p in pairs if g == p)
        fn = sum(1 for g, p in pairs if g != p)
        fp = sum(1 for g, p in pairs if g != p and p != majority)
        micro = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        return acc, sum(f1s) / len(f1s), micro

    rng = np.random.default_rng(6)
    for case in range(100):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 60))
        gold = rng.integers(0, n_classes, n)
        pred = rng.integers(0, n_classes, n)
        majority = int(rng.integers(0, n_classes))
        cm = confusion_matrix(gold, pred, n_classes)
        acc, mac, mic = instance_scores(gold, pred, n_classes, majority)
        if abs(accuracy(cm) - acc) > 1e-12 or abs(macro_f1(cm) - mac) > 1e-12 \
                or abs(micro_f1_no_majority(cm, majority) - mic) > 1e-12:
            failures.append(f"case {case}: metric disagrees with instance scorer")

    cm = np.array([[5, 0, 0], [1, 3, 0], [0, 1, 2]])
    if abs(micro_f1_no_majority(cm, 0) - 10 / 13) > 1e-9:
        failures.append(f"worked micro-F1 {micro_f1_no_majority(cm, 0)} != 10/13")
    if abs(accuracy(cm) - 10 / 12) > 1e-9:
        failures.append(f"worked accuracy {accuracy(cm)} != 10/12")
    _finish(6, "metrics oracle", start, 1.0, failures)


def test_criterion_7_baseline_properties():
    start = time.perf_counter()
    failures = []
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(50)]
    for i in range(1000):
        n = rng.randint(1, 20)
        text = " ".join(rng.choice(vocab) for _ in range(n))
        cfg = AedaConfig(alpha=0.3, seed=i)
        out = aeda_augment(text, cfg)
        tokens = out.split()
        marks = sum(1 for t in tokens if t in PUNCTUATION)
        if not 1 <= marks <= max(1, math.floor(0.3 * n)):
            failures.append(f"AEDA {i}: {marks} marks for n={n}")
        if [t for t in tokens if t not in PUNCTUATION] != text.split():
            failures.append(f"AEDA {i}: token sequence changed")
        if out != aeda_augment(text, AedaConfig(alpha=0.3, seed=i)):
            failures.append(f"AEDA {i}: not deterministic")

        eda_cfg = EdaConfig(alpha_sr=0, alpha_ri=0, alpha_rs=0, alpha_rd=0,
                            n_aug=2, seed=i)
        if eda_augment(text, eda_cfg) != [text, text]:
            failures.append(f"EDA {i}: zero alphas not identity")
        if i < 100:
            mixed = EdaConfig(alpha_sr=0.2, alpha_ri=0.2, alpha_rs=0.2,
                              alpha_rd=0.2, seed=i)
            if eda_augment(text, mixed) != eda_augment(text, mixed):
                failures.append(f"EDA {i}: not deterministic")
    _finish(7, "baseline properties", start, 5.0, failures)


def test_criterion_8_reproducibility(tmp_path):
    start = time.perf_counter()
    failures = []
    a, b = tmp_path / "a", tmp_path / "b"
    _e2e_run(out_dir=a)
    _e2e_run(out_dir=b)
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if rel_a != rel_b:
        failures.append("run directories have different file sets")
    else:
        for rel in rel_a:
            if (a / rel).read_bytes() != (b / rel).read_bytes():
                failures.append(f"{rel} differs between runs")
    limit = 2 * RUNTIMES.get(5, 60.0)
    _finish(8, "reproducibility", start, limit, failures)
