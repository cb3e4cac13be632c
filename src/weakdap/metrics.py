"""Confusion-matrix task metrics.

The headline dialogue metric is micro F1 ignoring the majority label:
instances whose gold label is the majority class are excluded entirely, and
predictions into the majority class earn no pooled true/false positives.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import LabelSpace


METRICS = ("micro_f1_no_majority", "macro_f1", "accuracy")


class MetricsError(ValueError):
    pass


def confusion_matrix(gold, pred, n_classes: int) -> np.ndarray:
    """C x C counts, rows = gold label index, cols = predicted."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for g, p in zip(gold, pred, strict=True):
        cm[g, p] += 1
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = int(cm.sum())
    if total == 0:
        raise MetricsError("empty confusion matrix")
    return float(np.trace(cm)) / total


def _f1(tp: float, fp: float, fn: float) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def per_class_prf(cm: np.ndarray) -> list[dict]:
    out = []
    for c in range(cm.shape[0]):
        tp = float(cm[c, c])
        fp = float(cm[:, c].sum() - cm[c, c])
        fn = float(cm[c, :].sum() - cm[c, c])
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        out.append({"precision": precision, "recall": recall, "f1": _f1(tp, fp, fn)})
    return out


def macro_f1(cm: np.ndarray) -> float:
    """Unweighted mean of per-class F1; undefined per-class F1 counts as 0."""
    scores = [c["f1"] for c in per_class_prf(cm)]
    return sum(scores) / len(scores)


def micro_f1_no_majority(cm: np.ndarray, majority: int) -> float:
    """Micro F1 pooled over all classes except the majority one.

    Gold-majority instances are excluded outright; predictions into the
    majority class count as pooled false negatives but never as pooled
    true/false positives. 0 when the pooled denominator is empty.
    """
    C = cm.shape[0]
    if not (0 <= majority < C):
        raise MetricsError("majority index out of range")
    tp = fp = fn = 0.0
    for c in range(C):
        if c == majority:
            continue
        tp += cm[c, c]
        fn += cm[c, :].sum() - cm[c, c]
        fp += sum(cm[r, c] for r in range(C) if r != c and r != majority)
    return _f1(tp, fp, fn)


@dataclass
class MetricReport:
    accuracy: float
    macro_f1: float
    micro_f1_no_majority: float
    majority: int
    per_class: list[dict] = field(default_factory=list)

    def score(self, metric: str) -> float:
        if metric not in METRICS:
            raise MetricsError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def report_from_cm(cm: np.ndarray, majority: int) -> MetricReport:
    return MetricReport(
        accuracy=accuracy(cm),
        macro_f1=macro_f1(cm),
        micro_f1_no_majority=micro_f1_no_majority(cm, majority),
        majority=majority,
        per_class=per_class_prf(cm),
    )


def report_from_predictions(gold, pred, label_space: LabelSpace, majority: int) -> MetricReport:
    gold_idx = [label_space.index(g) for g in gold]
    pred_idx = [label_space.index(p) for p in pred]
    cm = confusion_matrix(gold_idx, pred_idx, len(label_space))
    return report_from_cm(cm, majority)
