"""Confusion-matrix metrics: accuracy, per-class F1, macro F1, Cohen's kappa.

Cross-fold results are aggregated by pooling all test-epoch (true,
predicted) pairs into a single confusion matrix before computing any
metric; this is declared in the report output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix, LabelOutOfRange, LengthMismatch
from .preprocess import N_STAGES

N_CLASSES = N_STAGES

AGGREGATION = "pooled"


def confusion(y_true, y_pred) -> np.ndarray:
    """Counts[t][p] over the N_CLASSES stages: rows are true classes, columns predictions."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise LengthMismatch(f"{t.shape} true labels vs {p.shape} predictions")
    if t.size and (t.min() < 0 or t.max() >= N_CLASSES or p.min() < 0 or p.max() >= N_CLASSES):
        raise LabelOutOfRange(f"labels must lie in [0, {N_CLASSES})")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise EmptyMatrix("no scored epochs")
    return float(np.trace(cm) / total)


def per_class_f1(cm: np.ndarray) -> np.ndarray:
    """F1 per class, 0 where 2TP + FP + FN == 0."""
    if cm.sum() == 0:
        raise EmptyMatrix("no scored epochs")
    tp = np.diag(cm).astype(np.float64)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = 2 * tp + fp + fn
    return np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)


def macro_f1(cm: np.ndarray) -> float:
    return float(per_class_f1(cm).mean())


def cohen_kappa(cm: np.ndarray) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e); 1 when p_e == 1."""
    total = cm.sum()
    if total == 0:
        raise EmptyMatrix("no scored epochs")
    p_o = np.trace(cm) / total
    p_e = float((cm.sum(axis=1) * cm.sum(axis=0)).sum()) / total**2
    if p_e == 1.0:
        return 1.0
    return float((p_o - p_e) / (1.0 - p_e))


@dataclass
class MetricsReport:
    accuracy: float
    macro_f1: float
    kappa: float
    per_class_f1: tuple[float, ...]
    n_epochs: int
    aggregation: str = AGGREGATION

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "kappa": self.kappa,
            "per_class_f1": list(self.per_class_f1),
            "n_epochs": self.n_epochs,
            "aggregation": self.aggregation,
        }


def metrics_from_confusion(cm: np.ndarray) -> MetricsReport:
    return MetricsReport(
        accuracy=accuracy(cm),
        macro_f1=macro_f1(cm),
        kappa=cohen_kappa(cm),
        per_class_f1=tuple(per_class_f1(cm)),
        n_epochs=int(cm.sum()),
    )


def aggregate_folds(fold_pairs) -> MetricsReport:
    """Pool (y_true, y_pred) pairs from every fold into one matrix, then score."""
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for y_true, y_pred in fold_pairs:
        cm += confusion(y_true, y_pred)
    return metrics_from_confusion(cm)
