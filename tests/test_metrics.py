import json
from dataclasses import asdict

import numpy as np
import pytest

from weakdap.corpus import LabelSpace
from weakdap.metrics import (
    MetricsError,
    accuracy,
    confusion_matrix,
    macro_f1,
    micro_f1_no_majority,
    report_from_cm,
    report_from_predictions,
)

SPACE = LabelSpace(task="intent", labels=("a", "b", "c"))


def instance_level_scores(gold, pred, n_classes, majority):
    """Independent per-instance scorer used as the oracle for all cm metrics."""
    total = len(gold)
    acc = sum(g == p for g, p in zip(gold, pred)) / total
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


class TestMicroF1NoMajority:
    def test_perfect_predictions(self):
        cm = np.diag([5, 3, 2])
        assert micro_f1_no_majority(cm, 0) == 1.0

    def test_all_predicted_majority(self):
        cm = np.array([[0, 0, 0], [4, 0, 0], [6, 0, 0]])
        assert micro_f1_no_majority(cm, 0) == 0.0

    def test_worked_three_class_example(self):
        cm = np.array([[5, 0, 0], [1, 3, 0], [0, 1, 2]])
        assert micro_f1_no_majority(cm, 0) == pytest.approx(10 / 13, abs=1e-9)

    def test_invariant_to_majority_diagonal_cell(self):
        cm = np.array([[5, 0, 0], [1, 3, 0], [0, 1, 2]])
        bumped = cm.copy()
        bumped[0, 0] += 100
        assert micro_f1_no_majority(cm, 0) == micro_f1_no_majority(bumped, 0)


class TestMacroF1:
    def test_perfect_two_class(self):
        assert macro_f1(np.diag([4, 4])) == 1.0

    def test_absent_class_contributes_zero(self):
        cm = np.array([[3, 0, 0], [0, 3, 0], [0, 0, 0]])
        assert macro_f1(cm) == pytest.approx(2 / 3)

    def test_worked_example(self):
        cm = np.array([[3, 1], [1, 3]])
        assert macro_f1(cm) == pytest.approx(0.75)


class TestAccuracy:
    def test_diagonal(self):
        assert accuracy(np.diag([1, 2, 3])) == 1.0

    def test_half(self):
        assert accuracy(np.array([[1, 1], [1, 1]])) == 0.5

    def test_worked_example(self):
        cm = np.array([[5, 0, 0], [1, 3, 0], [0, 1, 2]])
        assert accuracy(cm) == pytest.approx(10 / 12, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            accuracy(np.zeros((2, 2), dtype=int))


class TestAgainstInstanceOracle:
    def test_random_prediction_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(1, 50))
            gold = rng.integers(0, n_classes, n)
            pred = rng.integers(0, n_classes, n)
            majority = int(rng.integers(0, n_classes))
            cm = confusion_matrix(gold, pred, n_classes)
            acc, mac, mic = instance_level_scores(gold, pred, n_classes, majority)
            assert accuracy(cm) == pytest.approx(acc, abs=1e-12)
            assert macro_f1(cm) == pytest.approx(mac, abs=1e-12)
            assert micro_f1_no_majority(cm, majority) == pytest.approx(mic, abs=1e-12)

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gold = rng.integers(0, 4, 30)
            pred = rng.integers(0, 4, 30)
            report = report_from_cm(confusion_matrix(gold, pred, 4), majority=0)
            for v in (report.accuracy, report.macro_f1, report.micro_f1_no_majority):
                assert 0.0 <= v <= 1.0


class TestReport:
    def test_from_label_names(self):
        gold = ["a", "b", "c", "a"]
        pred = ["a", "b", "b", "a"]
        report = report_from_predictions(gold, pred, SPACE, majority=0)
        assert report.accuracy == 0.75
        assert report.majority == 0

    def test_json_round_trip(self):
        gold = ["a", "b", "c"]
        pred = ["a", "c", "c"]
        report = report_from_predictions(gold, pred, SPACE, majority=0)
        assert json.loads(report.to_json()) == asdict(report)
