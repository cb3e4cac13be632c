"""The iterative augment -> filter -> train -> evaluate controller.

Iteration 0 augments without filtering and trains the first classifier on
gold + silver. Every later iteration filters fresh (or re-filtered) candidates
with the previous iteration's classifier, trains from scratch, and scores on
the validation split. The loop stops once the score has failed to beat the
best by at least epsilon for k consecutive iterations, or at the safety cap.
The best checkpoint and its silver set are retained throughout.
"""
from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

from . import metrics
# cross_lingual_augment is not called here: the benchmark tracer
# (perfbench/spans.py) patches this module's name for it, so it stays until
# that patch is dropped.
from .augment import (  # noqa: F401
    AugmentPlan,
    Candidate,
    cross_lingual_augment,
    run_augmentation,
    write_candidates,
)
from .corpus import Conversation, Dataset, LabelSpace, majority_label
from .genbackend import GenParams
from .prompt import PromptSpec
from .weaklabel import (
    FeaturizerConfig,
    FilterConfig,
    TrainConfig,
    WeakLabeler,
    candidate_training_instances,
    dialogue_instances,
    filter_candidates,
    train,
)


class LoopError(RuntimeError):
    pass


@dataclass
class LoopConfig:
    epsilon: float = 0.005
    patience: int = 3
    max_iterations: int = 20
    metric: str = "micro_f1_no_majority"  # | macro_f1 | accuracy
    regen: str = "fresh"  # fresh | refilter

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.patience < 1 or self.max_iterations < 1:
            raise ValueError("patience and max_iterations must be >= 1")


@dataclass
class LoopState:
    iteration: int = 0
    score_history: list[float] = field(default_factory=list)
    best_score: float = -math.inf
    best_iteration: int = -1
    no_improve_count: int = 0


class ConvergenceTracker:
    """The (epsilon, k) patience automaton over validation scores.

    Patience is measured against a reference that only advances when a score
    beats it by at least epsilon; k consecutive sub-epsilon rounds stop the
    loop. Best-model selection is independent of the reference: the retained
    checkpoint is the plain running maximum of the score history, earliest
    iteration on ties.
    """

    def __init__(self, config: LoopConfig):
        self.config = config
        self.state = LoopState()
        self._reference = -math.inf

    def update(self, score: float) -> bool:
        """Record one iteration's score; returns True when the loop should stop."""
        st = self.state
        iteration = len(st.score_history)
        st.score_history.append(score)
        st.iteration = iteration
        if st.best_iteration < 0 or score > st.best_score:
            st.best_score = score
            st.best_iteration = iteration
        if iteration == 0 or score > self._reference + self.config.epsilon:
            self._reference = score
            st.no_improve_count = 0
        else:
            st.no_improve_count += 1
        if st.no_improve_count >= self.config.patience:
            return True
        return iteration + 1 >= self.config.max_iterations


def run_scripted(scores, config: LoopConfig) -> LoopState:
    """Drive the automaton with a precomputed score sequence (for testing and
    dry runs); stops exactly where a live loop would."""
    tracker = ConvergenceTracker(config)
    for score in scores:
        if tracker.update(score):
            break
    return tracker.state


def instances_of(records, label_space: LabelSpace, window: int):
    """(texts, labels) for a list of gold records."""
    texts, labels = [], []
    for rec in records:
        if isinstance(rec, Conversation):
            for text, label in dialogue_instances(rec, label_space.task, window):
                texts.append(text)
                labels.append(label)
        else:
            texts.append(rec.text)
            labels.append(rec.intent)
    return texts, labels


def evaluate_model(model: WeakLabeler, records, label_space: LabelSpace,
                   majority: int) -> metrics.MetricReport:
    window = model.featurizer.config.context_window
    texts, gold = instances_of(records, label_space, window)
    pred = model.predict(texts)
    return metrics.report_from_predictions(gold, pred, label_space, majority)


def _train_on(dataset: Dataset, silver: list[Candidate], feat_cfg, train_cfg,
              label_space: LabelSpace) -> WeakLabeler:
    texts, labels = instances_of(dataset.train, label_space, feat_cfg.context_window)
    for cand in silver:
        if cand.verdict == "kept" and cand.payload is not None:
            for text, label in candidate_training_instances(
                    cand, label_space.task, feat_cfg.context_window):
                texts.append(text)
                labels.append(label)
    return train(texts, labels, label_space, feat_cfg, train_cfg)


def _verdict_counts(candidates) -> dict:
    counts = {"produced": len(candidates)}
    for v in ("kept", "dropped_mismatch", "dropped_parse", "pending"):
        counts[v] = sum(1 for c in candidates if c.verdict == v)
    return counts


def run_weakdap(dataset: Dataset, plan: AugmentPlan, filter_cfg: FilterConfig,
                loop_cfg: LoopConfig, backend, prompt_spec: PromptSpec,
                gen_params: GenParams | None = None,
                feat_cfg: FeaturizerConfig | None = None,
                train_cfg: TrainConfig | None = None,
                out_dir: str | None = None,
                en_pool=None):
    """Run the full loop; returns (best model, best kept silver, LoopState).

    When out_dir is set, every iteration persists its candidates and model
    checkpoint plus a run.json record; two runs with identical configuration
    and the mock backend produce byte-identical directories. en_pool holds
    the in-context strategy's English examples (see augment.run_augmentation).
    """
    if not dataset.train or not dataset.validation:
        raise LoopError("gold dataset needs train and validation partitions")
    gen_params = gen_params or GenParams()
    feat_cfg = feat_cfg or FeaturizerConfig()
    train_cfg = train_cfg or TrainConfig()
    label_space = dataset.label_space
    majority = label_space.majority if label_space.majority is not None \
        else label_space.index(majority_label(dataset.train, label_space))

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    tracker = ConvergenceTracker(loop_cfg)
    records = []
    best_model = None
    best_silver: list[Candidate] = []
    pool0: list[Candidate] = []
    model = None

    for t in range(loop_cfg.max_iterations):
        if t == 0 or loop_cfg.regen == "fresh":
            plan_t = replace(plan, seed=plan.seed + 1000 * t)
            candidates = run_augmentation(dataset.train, plan_t, backend, prompt_spec,
                                          label_space, gen_params, en_pool)
            if t == 0:
                pool0 = candidates
        else:
            candidates = copy.deepcopy(pool0)
            for c in candidates:
                if c.verdict in ("kept", "dropped_mismatch"):
                    c.verdict = "pending"
        if t == 0:
            # first generation trains on unfiltered silver
            for c in candidates:
                if c.payload is not None and c.verdict == "pending":
                    c.verdict = "kept"
        else:
            filter_candidates(candidates, model, filter_cfg)

        kept = [c for c in candidates if c.verdict == "kept"]
        model = _train_on(dataset, kept, feat_cfg, train_cfg, label_space)
        report = evaluate_model(model, dataset.validation, label_space, majority)
        score = report.score(loop_cfg.metric)

        counts = _verdict_counts(candidates)
        record = {
            "iteration": t,
            "counts": counts,
            "effective_multiplier": counts["kept"] / len(dataset.train),
            "score": score,
            "model": f"iter_{t}/model.json",
            "candidates": f"iter_{t}/candidates.jsonl",
        }
        records.append(record)
        if out_dir:
            iter_dir = os.path.join(out_dir, f"iter_{t}")
            os.makedirs(iter_dir, exist_ok=True)
            write_candidates(candidates, os.path.join(iter_dir, "candidates.jsonl"))
            model.save(os.path.join(iter_dir, "model.json"))

        stop = tracker.update(score)
        if tracker.state.best_iteration == t:
            best_model = model
            best_silver = kept
        if stop:
            break

    if out_dir:
        snapshot(tracker.state, records, plan, filter_cfg, loop_cfg, out_dir)
    return best_model, best_silver, tracker.state


def snapshot(state: LoopState, records, plan: AugmentPlan, filter_cfg: FilterConfig,
             loop_cfg: LoopConfig, out_dir) -> None:
    """Persist the complete run record (effective config, per-iteration
    counts/scores/checkpoint references, best pointer) as run.json."""
    doc = {
        "config": {
            "plan": asdict(plan),
            "filter": asdict(filter_cfg),
            "loop": asdict(loop_cfg),
        },
        "iterations": records,
        "state": {
            "iteration": state.iteration,
            "score_history": state.score_history,
            "best_score": None if state.best_iteration < 0 else state.best_score,
            "best_iteration": state.best_iteration,
            "no_improve_count": state.no_improve_count,
        },
        "best": None if state.best_iteration < 0 else {
            "iteration": state.best_iteration,
            "model": f"iter_{state.best_iteration}/model.json",
        },
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)


def load_run(out_dir) -> dict:
    with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as f:
        return json.load(f)
