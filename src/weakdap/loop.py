"""The iterative augment -> filter -> train -> evaluate controller.

Iteration 0 augments without filtering and trains the first classifier on
gold + silver. Every later iteration filters fresh (or re-filtered) candidates
with the previous iteration's classifier, trains from scratch, and scores on
the validation split. The loop stops once the score has failed to beat the
best by at least epsilon for k consecutive iterations, or at the safety cap.
The best classifier and its silver set are retained throughout.

A run directory holds only what is read: the candidates of each iteration,
the best classifier (once) and the run record; see run_weakdap.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

from . import metrics
# cross_lingual_augment is not called here: the benchmark tracer
# (perfbench/spans.py) patches this module's name for it, so it stays until
# that patch is dropped.
from .augment import (
    AugmentPlan,
    Candidate,
    cross_lingual_augment,  # noqa: F401
    run_augmentation,
    write_candidates,
)
from .corpus import Dataset, majority_index
from .genbackend import GenParams
from .prompt import PromptSpec
from .weaklabel import (
    FilterConfig,
    HashedFeaturizer,
    TrainConfig,
    WeakLabeler,
    filter_candidates,
    instances_of,
    train,
)


REGENS = ("fresh", "refilter")


class LoopError(ValueError):
    pass


@dataclass
class LoopConfig:
    epsilon: float = 0.005
    patience: int = 3
    max_iterations: int = 20
    metric: str = "micro_f1_no_majority"  # one of metrics.METRICS
    regen: str = "fresh"  # one of REGENS

    def __post_init__(self):
        # every metric lies in [0, 1], so no gain reaches an epsilon of 1 or
        # more: each larger epsilon would stop the loop exactly as 1 does
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.patience < 1 or self.max_iterations < 1:
            raise ValueError("patience and max_iterations must be >= 1")
        if self.metric not in metrics.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.regen not in REGENS:
            raise ValueError(f"unknown regen mode {self.regen!r}")


@dataclass
class LoopState:
    """The (epsilon, k) patience automaton over validation scores; run.json
    records all of it, so a recorded state continues like the live one.

    Patience is measured against the score at the last reset, which only
    advances when a score beats it by at least epsilon; k consecutive
    sub-epsilon rounds stop the loop. Best-model selection is independent of
    the reference: the retained model is the plain running maximum of the
    score history, earliest iteration on ties.
    """
    score_history: list[float] = field(default_factory=list)
    best_score: float = -math.inf
    best_iteration: int = -1
    no_improve_count: int = 0

    def update(self, score: float, config: LoopConfig) -> bool:
        """Record one iteration's score; returns True when the loop should stop."""
        history = self.score_history
        first = not history
        # the reference is the score at the last reset, no_improve_count rounds back
        if first or score > history[-1 - self.no_improve_count] + config.epsilon:
            self.no_improve_count = 0
        else:
            self.no_improve_count += 1
        if first or score > self.best_score:
            self.best_score, self.best_iteration = score, len(history)
        history.append(score)
        return (self.no_improve_count >= config.patience
                or len(history) >= config.max_iterations)


def evaluate_model(model: WeakLabeler, texts, gold, majority: int) -> metrics.MetricReport:
    """The metric report of `model`'s predictions on the instance `texts`
    against their `gold` labels (`weaklabel.instances_of` of the evaluation
    records), over the model's label space."""
    pred = model.predict(texts)
    return metrics.report_from_predictions(gold, pred, model.label_space, majority)


def _verdict_counts(candidates) -> dict:
    counts = {"produced": len(candidates)}
    for v in ("kept", "dropped_mismatch", "dropped_parse"):
        counts[v] = sum(1 for c in candidates if c.verdict == v)
    return counts


def run_weakdap(dataset: Dataset, plan: AugmentPlan, filter_cfg: FilterConfig,
                loop_cfg: LoopConfig, backend, prompt_spec: PromptSpec,
                gen_params: GenParams, train_cfg: TrainConfig, out_dir: str,
                en_pool=None):
    """Run the full loop; returns (best model, best kept silver, LoopState).

    out_dir is the run directory: each iteration t writes
    `iter_<t>/candidates.jsonl`, and the loop's end saves the best model once
    as `model.ckpt` (a v5 checkpoint: a JSON header line, then raw columns
    and weights), then `run.json` (the plan, filter and loop configs, each
    iteration's counts, score and candidates file, and the loop state). A run
    that is interrupted leaves only its candidates files. Two runs with
    identical configuration and the mock backend produce byte-identical
    directories. en_pool holds the in-context strategy's English examples
    (see augment.run_augmentation).
    """
    if not dataset.train or not dataset.validation:
        raise LoopError("gold dataset needs train and validation partitions")
    # one featurizer for the whole run: every text is hashed once
    featurizer = HashedFeaturizer()
    label_space = dataset.label_space
    majority = majority_index(dataset.train, label_space)

    # gold instances do not change between iterations: build them once
    gold_texts, gold_labels = instances_of(dataset.train, label_space)
    val_texts, val_gold = instances_of(dataset.validation, label_space)

    state = LoopState()
    records = []
    best_model = None
    best_silver: list[Candidate] = []
    model = None

    for t in range(loop_cfg.max_iterations):
        if t == 0 or loop_cfg.regen == "fresh":
            plan_t = replace(plan, seed=plan.seed + 1000 * t)
            pool = run_augmentation(dataset.train, plan_t, backend, prompt_spec,
                                    label_space, gen_params, en_pool)
        # the pool is never judged: payloads are frozen, and each iteration
        # sets verdicts, silver labels and entropies on its own copies
        candidates = [replace(c) for c in pool]
        if t == 0:
            # first generation trains on unfiltered silver
            for c in candidates:
                if c.payload is not None and c.verdict == "pending":
                    c.verdict = "kept"
        else:
            filter_candidates(candidates, model, filter_cfg)

        kept = [c for c in candidates if c.verdict == "kept"]
        kept_texts, kept_labels = instances_of(kept, label_space)
        model = train(gold_texts + kept_texts, gold_labels + kept_labels,
                      label_space, featurizer, train_cfg)
        report = evaluate_model(model, val_texts, val_gold, majority)
        score = report.score(loop_cfg.metric)

        counts = _verdict_counts(candidates)
        records.append({
            "iteration": t,
            "counts": counts,
            "effective_multiplier": counts["kept"] / len(dataset.train),
            "score": score,
            "candidates": f"iter_{t}/candidates.jsonl",
        })
        iter_dir = os.path.join(out_dir, f"iter_{t}")
        os.makedirs(iter_dir, exist_ok=True)
        write_candidates(candidates, os.path.join(iter_dir, "candidates.jsonl"))

        stop = state.update(score, loop_cfg)
        if state.best_iteration == t:
            best_model = model
            best_silver = kept
        if stop:
            break

    best_model.save(os.path.join(out_dir, "model.ckpt"))
    config = {"plan": asdict(plan), "filter": asdict(filter_cfg), "loop": asdict(loop_cfg)}
    doc = {"config": config, "iterations": records, "state": asdict(state)}
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
    return best_model, best_silver, state
