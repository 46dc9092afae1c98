"""External evaluation measures against a labelled ground truth.

Purity, matching-based clustering accuracy and the clustering
F-measure are the external scores the surveyed papers report alongside
ARI/NMI (e.g. the subspace-clustering evaluation study, Müller et al.
2009b).
"""

from __future__ import annotations

import numpy as np

from .contingency import contingency_matrix
from ..exceptions import ValidationError
from ..utils.assignment import min_cost_assignment

__all__ = ["purity", "clustering_accuracy", "f_measure"]


def purity(labels_pred, labels_true):
    """Purity in ``(0, 1]``: each predicted cluster votes for its
    majority true class. Noise objects are dropped."""
    mat = contingency_matrix(labels_pred, labels_true)
    return float(mat.max(axis=1).sum() / mat.sum())


def clustering_accuracy(labels_pred, labels_true):
    """Best-matching accuracy: Hungarian one-to-one matching of
    predicted clusters to true classes, then fraction correct."""
    mat = contingency_matrix(labels_pred, labels_true)
    rows, cols = min_cost_assignment(-mat)
    return float(mat[rows, cols].sum() / mat.sum())


def f_measure(labels_pred, labels_true):
    """Clustering F-measure: each true class matched to the predicted
    cluster maximising its F1, weighted by class size."""
    mat = contingency_matrix(labels_pred, labels_true).astype(np.float64)
    if mat.size == 0:
        raise ValidationError("empty contingency table")
    n = mat.sum()
    cluster_sizes = mat.sum(axis=1)
    class_sizes = mat.sum(axis=0)
    total = 0.0
    for j in range(mat.shape[1]):
        best = 0.0
        for i in range(mat.shape[0]):
            tp = mat[i, j]
            if tp == 0:
                continue
            prec = tp / cluster_sizes[i]
            rec = tp / class_sizes[j]
            best = max(best, 2 * prec * rec / (prec + rec))
        total += class_sizes[j] * best
    return float(total / n)
