"""Confusion-matrix based classification metrics.

Confusion rows are true classes, columns are predictions.  Per-class
precision, recall and F1 fall back to 0 when their denominator is 0; macro
scores are unweighted class means over all classes.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    confusion: np.ndarray
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float

    @property
    def n_classes(self):
        return self.confusion.shape[0]


def confusion_matrix(predictions, targets, n_classes):
    predictions = np.asarray(predictions, dtype=np.int64).ravel()
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have equal length")
    for name, arr in (("predictions", predictions), ("targets", targets)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} contain labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (targets, predictions), 1)
    return cm


def metrics_from_confusion(confusion):
    cm = np.asarray(confusion, dtype=np.int64)
    total = cm.sum()
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    with np.errstate(invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / np.maximum(precision + recall, 1e-300),
                      0.0)
    accuracy = float(tp.sum() / total) if total > 0 else 0.0
    return Metrics(
        confusion=cm,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


def compute_metrics(predictions, targets, n_classes):
    return metrics_from_confusion(confusion_matrix(predictions, targets, n_classes))


def format_metrics(metrics, class_names=None):
    """Render the structured text report (accuracy, per-class table, macro row)."""
    if class_names is None:
        class_names = [f"class_{i}" for i in range(metrics.n_classes)]
    lines = [f"accuracy {metrics.accuracy!r}", ""]
    lines.append("class\tprecision\trecall\tf1")
    for i, name in enumerate(class_names):
        lines.append(
            f"{name}\t{float(metrics.precision[i])!r}"
            f"\t{float(metrics.recall[i])!r}\t{float(metrics.f1[i])!r}")
    lines.append(
        f"macro\t{metrics.macro_precision!r}\t{metrics.macro_recall!r}"
        f"\t{metrics.macro_f1!r}")
    return "\n".join(lines) + "\n"


def confusion_table(metrics, class_names):
    """The confusion matrix as a header and rows for ``write_csv``: header
    columns are predicted classes, each row starts with its true class."""
    return (["true\\pred", *class_names],
            ([name, *row] for name, row in zip(class_names,
                                               metrics.confusion.tolist())))
