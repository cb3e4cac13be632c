import hashlib
import json
import math
import random
from dataclasses import asdict

import pytest

from weakdap import augment, corpus
from weakdap.augment import AugmentPlan
from weakdap.corpus import Dataset, LabelSpace, LabeledUtterance, instances_of, majority_index
from weakdap.genbackend import GenParams
from weakdap.loop import LoopConfig, LoopError, LoopState, evaluate_model, run_weakdap
from weakdap.prompt import PromptSpec
from weakdap.weaklabel import (
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    WeakLabeler,
)

from conftest import TOY_LABELS, mock_backend, run_scripted, toy_conversation, toy_sentence

TRAIN = TrainConfig(seed=3, epochs=30)

pytestmark = pytest.mark.usefixtures("dim_1_14")


def load_run(out_dir) -> dict:
    return json.loads((out_dir / "run.json").read_text(encoding="utf-8"))


class TestConvergenceAutomaton:
    def test_hand_traced_example(self):
        cfg = LoopConfig(epsilon=0.005, patience=3)
        state = run_scripted([0.50, 0.51, 0.512, 0.513, 0.514, 0.99], cfg)
        assert len(state.score_history) == 5  # the 0.99 score is never reached
        assert state.score_history == [0.50, 0.51, 0.512, 0.513, 0.514]
        # sub-epsilon gains still count toward the retained checkpoint
        assert state.best_iteration == 4
        assert state.best_score == 0.514

    def test_monotone_improvement_runs_to_cap(self):
        cfg = LoopConfig(epsilon=0.005, patience=3, max_iterations=10)
        scores = [0.5 + 0.01 * t for t in range(100)]
        state = run_scripted(scores, cfg)
        assert len(state.score_history) == 10

    def test_minimal_patience_flat_scores(self):
        cfg = LoopConfig(epsilon=0.005, patience=1)
        state = run_scripted([0.6, 0.6, 0.6], cfg)
        assert len(state.score_history) == 2
        assert state.best_iteration == 0

    def test_best_is_max_of_history(self):
        import random
        rng = random.Random(0)
        cfg = LoopConfig(epsilon=0.005, patience=3, max_iterations=15)
        for _ in range(20):
            scores = [rng.random() for _ in range(15)]
            state = run_scripted(scores, cfg)
            assert state.best_score == max(state.score_history)
            # earliest iteration wins ties
            assert state.score_history.index(state.best_score) == state.best_iteration

    def test_reference_is_the_score_at_the_last_reset(self):
        # each score gains less than epsilon on the one before it, but 0.508
        # beats the reference 0.50 by more than epsilon and resets patience
        cfg = LoopConfig(epsilon=0.005, patience=3)
        scores = [0.50, 0.504, 0.508, 0.512, 0.5125]
        state = run_scripted(scores, cfg)
        assert state.score_history == scores
        assert state.no_improve_count == 2

    def test_no_improve_count_bounded_by_patience(self):
        cfg = LoopConfig(epsilon=0.005, patience=3)
        state = LoopState()
        for s in [0.5, 0.5, 0.5, 0.5, 0.5]:
            stop = state.update(s, cfg)
            assert state.no_improve_count <= cfg.patience
            if stop:
                break

    @pytest.mark.parametrize("epsilon,patience,max_iterations",
                             [(0.005, 1, 6), (0.005, 3, 20), (0.02, 2, 12), (0.1, 5, 30)])
    def test_recorded_state_resumes(self, epsilon, patience, max_iterations):
        """A state rebuilt mid-sequence from the JSON of its fields continues
        exactly like the uninterrupted run: same stop, every field equal."""
        cfg = LoopConfig(epsilon=epsilon, patience=patience, max_iterations=max_iterations)
        rng = random.Random(max_iterations)
        for _ in range(100):
            # a random walk in steps of up to 2 epsilon: gains and stalls both occur
            scores = [0.5]
            while len(scores) < max_iterations:
                scores.append(scores[-1] + rng.uniform(-2 * epsilon, 2 * epsilon))
            whole = run_scripted(scores, cfg)
            cut = rng.randrange(len(whole.score_history))
            state = LoopState()
            for t, score in enumerate(scores):
                if t == cut:
                    state = LoopState(**json.loads(json.dumps(asdict(state))))
                if state.update(score, cfg):
                    break
            assert state == whole

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(epsilon=0)
        with pytest.raises(ValueError):
            LoopConfig(patience=0)

    @pytest.mark.parametrize("field,value", [("metric", "f1"), ("metric", "MACRO_F1"),
                                             ("regen", "bogus"), ("regen", "")])
    def test_unknown_metric_or_regen_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            LoopConfig(**{field: value})


class TestRunWeakdap:
    def _run(self, toy_dataset, out_dir, regen="fresh", q=0.4):
        plan = AugmentPlan(strategy="lta", multiplier=2.0, seed=5)
        spec = PromptSpec(task="emotion")
        return run_weakdap(
            toy_dataset, plan, FilterConfig(), LoopConfig(metric="macro_f1", regen=regen),
            mock_backend(noise_rate=q), spec, gen_params=GenParams(),
            train_cfg=TRAIN, out_dir=out_dir)

    def test_returns_best_model_and_state(self, toy_dataset, tmp_path):
        model, silver, state = self._run(toy_dataset, tmp_path)
        assert model is not None
        assert state.best_score == max(state.score_history)
        assert all(c.verdict == "kept" for c in silver)

    def test_iteration_zero_is_unfiltered(self, toy_dataset, tmp_path):
        self._run(toy_dataset, out_dir=tmp_path)
        run = load_run(tmp_path)
        it0 = run["iterations"][0]
        assert it0["counts"]["dropped_mismatch"] == 0
        assert it0["counts"]["kept"] + it0["counts"]["dropped_parse"] \
            == it0["counts"]["produced"]

    def test_later_iterations_filter(self, toy_dataset, tmp_path):
        self._run(toy_dataset, out_dir=tmp_path)
        run = load_run(tmp_path)
        assert len(run["iterations"]) >= 2
        assert any(it["counts"]["dropped_mismatch"] > 0 for it in run["iterations"][1:])

    def test_effective_multiplier_shrinks_under_filtering(self, toy_dataset, tmp_path):
        self._run(toy_dataset, out_dir=tmp_path)
        run = load_run(tmp_path)
        it0 = run["iterations"][0]
        assert it0["effective_multiplier"] == pytest.approx(2.0)
        for it in run["iterations"][1:]:
            assert it["effective_multiplier"] < 2.0

    def test_run_record_round_trip(self, toy_dataset, tmp_path):
        _, _, state = self._run(toy_dataset, out_dir=tmp_path)
        run = load_run(tmp_path)
        assert LoopState(**run["state"]) == state
        candidates = [f"iter_{t}/candidates.jsonl" for t in range(len(state.score_history))]
        assert [it["candidates"] for it in run["iterations"]] == candidates
        assert sorted(_dir_bytes(tmp_path)) == sorted(["run.json", "model.ckpt", *candidates])
        # the one checkpoint is the best iteration's model: it scores the
        # validation split as the loop scored it
        model = WeakLabeler.load(tmp_path / "model.ckpt")
        space = toy_dataset.label_space
        texts, gold = instances_of(toy_dataset.validation, space)
        report = evaluate_model(model, texts, gold, majority_index(toy_dataset.train, space))
        assert report.score("macro_f1") == state.best_score

    def test_refilter_mode_reuses_iteration_zero_pool(self, toy_dataset, tmp_path):
        self._run(toy_dataset, out_dir=tmp_path, regen="refilter")
        run = load_run(tmp_path)
        ids0 = {json.loads(l)["id"] for l in
                (tmp_path / "iter_0/candidates.jsonl").read_text().splitlines()}
        for it in run["iterations"][1:]:
            ids = {json.loads(l)["id"] for l in
                   (tmp_path / it["candidates"]).read_text().splitlines()}
            assert ids == ids0

    def test_refilter_leaves_iteration_zero_candidates_alone(self, toy_dataset, tmp_path,
                                                              monkeypatch):
        """No generated candidate is ever judged: every iteration sets its
        verdicts, silver labels and entropies on copies of the pool."""
        for regen in ("refilter", "fresh"):
            pools = []

            def recording(*args, **kwargs):
                pool = augment.run_augmentation(*args, **kwargs)
                pools.append((pool, [(c.verdict, c.silver_label, c.entropy) for c in pool]))
                return pool

            monkeypatch.setattr("weakdap.loop.run_augmentation", recording)
            out = tmp_path / regen
            self._run(toy_dataset, out_dir=out, regen=regen)
            run = load_run(out)
            assert len(run["iterations"]) >= 2
            assert len(pools) == (1 if regen == "refilter" else len(run["iterations"]))
            assert any(it["counts"]["dropped_mismatch"] > 0 for it in run["iterations"][1:])
            for pool, generated in pools:
                assert [(c.verdict, c.silver_label, c.entropy) for c in pool] == generated
                assert all(c.silver_label is None and c.entropy is None for c in pool)

    def test_fresh_mode_regenerates(self, toy_dataset, tmp_path):
        self._run(toy_dataset, out_dir=tmp_path, regen="fresh")
        run = load_run(tmp_path)
        texts0 = (tmp_path / "iter_0/candidates.jsonl").read_text()
        texts1 = (tmp_path / run["iterations"][1]["candidates"]).read_text()
        assert texts0 != texts1

    def test_deterministic_repeat(self, toy_dataset, tmp_path):
        _, _, s1 = self._run(toy_dataset, tmp_path / "a")
        _, _, s2 = self._run(toy_dataset, tmp_path / "b")
        assert s1.score_history == s2.score_history
        assert s1.best_iteration == s2.best_iteration

    def test_missing_partitions_rejected(self, toy_dataset, tmp_path):
        toy_dataset.validation = []
        with pytest.raises(LoopError):
            self._run(toy_dataset, tmp_path)


def _dir_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _dir_sha256(root):
    """sha256 over each file's path under `root`, a NUL and its bytes, in
    sorted path order: the digest `perfbench/run.py` gives a run directory."""
    h = hashlib.sha256()
    for rel, data in _dir_bytes(root).items():
        h.update(rel.encode() + b"\0" + data)
    return h.hexdigest()


def _dialogues():
    rng = random.Random(21)
    space = LabelSpace(task="emotion", labels=TOY_LABELS, majority=0)
    return Dataset(label_space=space,
                   train=[toy_conversation(f"tr{i}", rng, n=4) for i in range(10)],
                   validation=[toy_conversation(f"va{i}", rng, n=4) for i in range(10)])


def _utterances():
    rng = random.Random(22)

    def utts(prefix, lang, per_label):
        return [LabeledUtterance(id=f"{prefix}{i}", text=toy_sentence(label, rng),
                                 intent=label, lang=lang)
                for i, label in enumerate(TOY_LABELS * per_label)]

    space = LabelSpace(task="intent", labels=TOY_LABELS)
    return (Dataset(label_space=space, train=utts("tr", "es", 3),
                    validation=utts("va", "es", 3)), utts("en", "en", 4))


def _small_run(strategy, out_dir, iterations=2, regen="fresh"):
    """A short `run_weakdap` over `_dialogues` (or `_utterances` in context)."""
    en_pool = None
    params = GenParams()
    if strategy == "incontext":
        dataset, en_pool = _utterances()
        plan = AugmentPlan(strategy="incontext", seed=4)
        spec = PromptSpec(task="intent")
        params = GenParams(mode="beam", num_return=3)
    else:
        dataset = _dialogues()
        # ATA at 1.7: 17 candidates, so the 6th conversation visited keeps 2 of its 3
        plan = AugmentPlan(strategy=strategy, multiplier=1.7, seed=4)
        spec = PromptSpec(task="emotion")
    run_weakdap(dataset, plan, FilterConfig(),
                LoopConfig(metric="macro_f1", max_iterations=iterations,
                           patience=iterations, regen=regen),
                mock_backend(noise_rate=0.3), spec, gen_params=params,
                train_cfg=TrainConfig(seed=3, epochs=5), out_dir=str(out_dir),
                en_pool=en_pool)


class TestWorkerCountIndependence:
    """The run directory is the same byte for byte whatever the number of
    generation threads."""

    def _run(self, workload, workers, out_dir, monkeypatch):
        monkeypatch.setattr(augment, "MAX_WORKERS", workers)
        _small_run(workload, out_dir)
        return _dir_bytes(out_dir)

    @pytest.mark.parametrize("workload", ["cta", "ata", "incontext", "random"])
    def test_one_and_eight_workers_write_identical_runs(self, workload, tmp_path,
                                                        monkeypatch):
        serial = self._run(workload, 1, tmp_path / "w1", monkeypatch)
        pooled = self._run(workload, 8, tmp_path / "w8", monkeypatch)
        assert serial.keys() == pooled.keys()
        for rel in serial:
            assert serial[rel] == pooled[rel], rel
        iterations = load_run(tmp_path / "w8")["iterations"]
        produced = iterations[0]["counts"]["produced"]
        if workload in ("ata", "random"):
            assert produced == 17
        else:
            assert produced > 0
        if workload == "random":
            # the weak filter judges context-free candidates too
            assert iterations[1]["counts"]["kept"] > 0
            assert iterations[1]["counts"]["dropped_mismatch"] > 0


class TestFeaturizeOnce:
    """One featurizer serves the whole run, so every distinct text is hashed
    once however often training, filtering and evaluation ask for it."""

    @pytest.mark.parametrize("strategy,regen", [("lta", "fresh"), ("incontext", "refilter")])
    def test_each_distinct_text_is_hashed_once(self, strategy, regen, tmp_path, monkeypatch):
        hashed, requested = [], []
        indices, transform = HashedFeaturizer._indices, HashedFeaturizer.transform

        def counting_indices(self, text):
            hashed.append(text)
            return indices(self, text)

        def counting_transform(self, texts):
            texts = list(texts)
            requested.extend(texts)
            return transform(self, texts)

        monkeypatch.setattr(HashedFeaturizer, "_indices", counting_indices)
        monkeypatch.setattr(HashedFeaturizer, "transform", counting_transform)
        _small_run(strategy, tmp_path, iterations=3, regen=regen)
        assert len(load_run(tmp_path)["iterations"]) == 3
        assert len(hashed) == len(set(hashed))
        assert set(hashed) == set(requested)
        assert len(requested) > len(hashed)  # texts are asked for again


class TestGoldInstancesOnce:
    def test_each_gold_turn_is_built_once_per_run(self, tmp_path, monkeypatch):
        """Gold-train and validation instance texts are built once per run;
        only the kept candidates' turns (for training) and the filtered ones
        (for scoring) are built in every iteration."""
        built = []
        build = corpus.dialogue_instance_text

        def counting(conv, turn_idx):
            built.append((conv.id, turn_idx))
            return build(conv, turn_idx)

        monkeypatch.setattr(corpus, "dialogue_instance_text", counting)
        _small_run("lta", tmp_path, iterations=3)
        iterations = load_run(tmp_path)["iterations"]
        assert len(iterations) == 3
        dataset = _dialogues()
        gold = {(conv.id, i) for conv in dataset.train + dataset.validation
                for i in range(conv.n)}
        assert sorted(key for key in built if key in gold) == sorted(gold)
        counts = [it["counts"] for it in iterations]
        scored = sum(c["kept"] + c["dropped_mismatch"] for c in counts[1:])
        assert len(built) - len(gold) == sum(c["kept"] for c in counts) + scored


class TestGoldenRunDirectories:
    """Five tiny mock-backend runs, pinned by the digest of their run
    directories. A change that claims to leave every output byte-identical
    must keep these digests; one that changes outputs on purpose gives new
    digests and says why."""

    @pytest.mark.parametrize("strategy,regen,digest", [
        # lta, cta and random computed when the checkpoint became version 5:
        # only the model file changed, from model.json to model.ckpt, a JSON
        # header line and raw columns and weights; it loads to the columns,
        # block and bias of version 4, and every candidates file and run.json
        # is byte-identical. ata and incontext recomputed when a first pass the
        # budget ends early began to visit a seeded shuffle of gold instead of
        # its first records in file order: their first candidates come from other
        # sources (ata tr0 tr3..tr7 for tr0..tr5; incontext adds tr8, drops tr2)
        ("lta", "fresh", "640164177f98d96530ac952829010d8a3ffcc9702bf03482caec2c49dd54fe18"),
        ("cta", "fresh", "0819116c375c7b9c9b65aba26cbd1a55b421c4a0c856f2862f58990a01ff2feb"),
        ("ata", "fresh", "2e98582f21442da0ee2b18cef5fd954c587349f195863c9ff971f6f8e401d2ef"),
        ("incontext", "refilter", "33c513164ba2b2d3171e83bccbc2364720126369d4a5a5f0181e0693cc88c662"),
        ("random", "fresh", "c3b4cc922534466a61884bf67437a6bfa752a8020be8d19f867cbce617f6fb0d"),
    ], ids=["lta-fresh", "cta-fresh", "ata-fresh", "incontext-refilter", "random-fresh"])
    def test_run_directory_digest(self, strategy, regen, digest, tmp_path):
        _small_run(strategy, tmp_path, iterations=3, regen=regen)
        assert len(load_run(tmp_path)["iterations"]) == 3
        assert _dir_sha256(tmp_path) == digest
