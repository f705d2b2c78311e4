"""Classification and uncertainty metrics: accuracy, NLL, ECE, AUROC, and
predictive entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Probabilities are clamped here before taking logs, so MC-predictive zeros
# cannot produce infinities.
PROB_CLAMP = 1e-12

DEFAULT_ECE_BINS = 15


@dataclass(frozen=True)
class ProbTable:
    """Predicted class probabilities (rows on the simplex) with true labels."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if p.ndim != 2:
            raise ValidationError(f"probs must be 2-d, got shape {p.shape}")
        if y.shape != (p.shape[0],):
            raise ValidationError("labels must be one class index per row")
        if not np.isfinite(p).all():  # a NaN would pass both range checks below
            row, col = np.argwhere(~np.isfinite(p))[0]
            raise ValidationError(f"probability at row {row}, class {col} is {p[row, col]}")
        if np.any(p < -1e-12):
            raise ValidationError("probabilities must be nonnegative")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-8):
            raise ValidationError("probability rows must sum to 1 within 1e-8")
        if y.size and (y.min() < 0 or y.max() >= p.shape[1]):
            raise ValidationError("labels out of range")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def _check_rows(t: ProbTable) -> None:
    """Accuracy, NLL and ECE are row means, undefined on an empty table."""
    if t.n == 0:
        raise ValidationError("empty table")


def accuracy(t: ProbTable) -> float:
    """Fraction of rows whose argmax matches the label (ties go to the lowest
    class index)."""
    _check_rows(t)
    preds = np.argmax(t.probs, axis=1)
    return float(np.mean(preds == t.labels))


def nll(t: ProbTable) -> float:
    """Mean negative log-probability of the true class."""
    _check_rows(t)
    p_true = t.probs[np.arange(t.n), t.labels]
    return float(-np.mean(np.log(np.maximum(p_true, PROB_CLAMP))))


def ece(t: ProbTable, n_bins: int = DEFAULT_ECE_BINS) -> float:
    """Expected calibration error over equal-width confidence bins on (0, 1].

    Boundary confidences fall in the lower bin; a confidence of exactly 0
    (not reachable for a simplex row) would go to bin 1. Empty bins
    contribute nothing.
    """
    _check_rows(t)
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    conf = np.max(t.probs, axis=1)
    correct = (np.argmax(t.probs, axis=1) == t.labels).astype(np.float64)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    idx = np.searchsorted(edges, conf, side="left")
    idx = np.clip(idx, 1, n_bins)
    total = 0.0
    for b in range(1, n_bins + 1):
        sel = idx == b
        count = int(np.sum(sel))
        if count == 0:
            continue
        gap = abs(float(np.mean(correct[sel])) - float(np.mean(conf[sel])))
        total += (count / t.n) * gap
    return total


def auroc(scores, is_positive) -> float:
    """Area under the ROC curve as the tie-aware rank statistic
    P(score_pos > score_neg) + 1/2 P(tie). Scores must be finite."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(is_positive, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("need at least one positive and one negative")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    u = float(_average_ranks(scores)[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties given the mean of their ranks
    (scipy's ``rankdata`` with ``method="average"``); exact half-integers."""
    order = np.argsort(values, kind="stable")
    _, first, counts = np.unique(values[order], return_index=True, return_counts=True)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def predictive_entropy(probs: np.ndarray):
    """Entropy -sum p ln p over the last axis, with 0 ln 0 = 0: a float for
    one probability row, an array of n values for an (n, C) array."""
    p = np.asarray(probs, dtype=np.float64)
    ent = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
    return float(ent) if ent.ndim == 0 else ent
