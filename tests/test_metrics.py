"""Confusion matrix and derived metric arithmetic."""

import re

import numpy as np
import pytest

from chebnet.data import write_csv
from chebnet.metrics import (compute_metrics, confusion_table, format_metrics,
                             metrics_from_confusion)


class TestComputeMetrics:
    def test_all_correct(self):
        preds = np.array([0, 1, 2, 1, 0])
        m = compute_metrics(preds, preds, 3)
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0

    def test_hand_computed_counts(self):
        # confusion [[9,1],[2,8]]: accuracy .85, precision_1 8/9, recall_1 .8
        m = metrics_from_confusion(np.array([[9, 1], [2, 8]]))
        assert m.accuracy == pytest.approx(0.85)
        assert m.precision[1] == pytest.approx(8.0 / 9.0)
        assert m.recall[1] == pytest.approx(0.8)
        assert m.f1[1] == pytest.approx(2 * (8 / 9) * 0.8 / (8 / 9 + 0.8))

    def test_absent_class_scores_zero(self):
        preds = np.array([0, 0, 1, 1])
        targets = np.array([0, 0, 1, 1])
        m = compute_metrics(preds, targets, 3)
        assert m.precision[2] == 0.0
        assert m.recall[2] == 0.0
        assert m.f1[2] == 0.0
        assert 0.0 <= m.macro_f1 <= 1.0

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.integers(2, 6)
            n = rng.integers(5, 60)
            preds = rng.integers(0, c, size=n)
            targets = rng.integers(0, c, size=n)
            m = compute_metrics(preds, targets, c)
            assert m.confusion.sum() == n
            assert m.accuracy == pytest.approx(
                np.trace(m.confusion) / m.confusion.sum())

    def test_confusion_orientation(self):
        # one sample: true 0 predicted 1 -> row 0, column 1
        m = compute_metrics([1], [0], 2)
        assert m.confusion[0, 1] == 1
        assert m.confusion[1, 0] == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 3], [0, 1], 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 1], [0], 2)

    def test_rates_bounded(self):
        rng = np.random.default_rng(1)
        m = compute_metrics(rng.integers(0, 4, 50), rng.integers(0, 4, 50), 4)
        for arr in (m.precision, m.recall, m.f1):
            assert (arr >= 0).all() and (arr <= 1).all()


class TestSerialization:
    def test_text_report_structure(self):
        m = metrics_from_confusion(np.array([[9, 1], [2, 8]]))
        text = format_metrics(m, ["on_time", "late"])
        assert text.startswith("accuracy 0.85")
        assert "on_time" in text and "late" in text
        assert text.rstrip().splitlines()[-1].startswith("macro")
        assert "np.float64" not in text  # plain float formatting

    def test_report_values_parse(self):
        m = metrics_from_confusion(np.array([[3, 2], [1, 4]]))
        text = format_metrics(m)
        for line in text.strip().splitlines()[3:]:
            for cell in line.split("\t")[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_class_names_read_back(self):
        """Each per-class row stays one line of four tab-separated cells,
        and undoing the stated escapes gives the exact name back."""
        names = ["G0, \"north\"\nsouth\tea\\st\r", "Café \\n"]
        m = metrics_from_confusion(np.array([[3, 1], [0, 2]]))
        rows = format_metrics(m, names).splitlines()[3:5]
        unescape = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}
        for name, row in zip(names, rows):
            cells = row.split("\t")
            assert len(cells) == 4
            assert re.sub(r"\\(.)", lambda e: unescape[e.group(1)],
                          cells[0]) == name
        assert rows[1].startswith("Café \\\\n\t")

    def test_csv_roundtrip(self, tmp_path):
        m = metrics_from_confusion(np.array([[3, 0], [1, 2]]))
        path = tmp_path / "confusion.csv"
        write_csv(path, *confusion_table(m, ["a", "b"]))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "true\\pred,a,b"
        assert lines[1] == "a,3,0"
        assert lines[2] == "b,1,2"
