"""The abstract problem of slide 27, made executable.

    Detect clusterings Clust_1 ... Clust_m such that
        Q(Clust_i)             is high for all i, and
        Diss(Clust_i, Clust_j) is high for all i != j.

:class:`MultipleClusteringObjective` bundles a concrete ``Q`` and ``Diss``
and scores a set of clusterings; it is used by the benchmark harness to
compare iterative vs. simultaneous methods on equal footing (experiment
F3) and by greedy searchers (meta clustering selection).
"""

from __future__ import annotations

import numpy as np

from .clustering import Clustering
from ..exceptions import ValidationError
from ..metrics.internal import silhouette_score
from ..metrics.partition import agreement_matrix

__all__ = [
    "quality_silhouette",
    "MultipleClusteringObjective",
]


def quality_silhouette(X, labels):
    """Silhouette quality in ``[-1, 1]``."""
    return silhouette_score(X, labels)


def _as_labels(clustering):
    if isinstance(clustering, Clustering):
        return np.asarray(clustering.labels)
    return np.asarray(clustering)


class MultipleClusteringObjective:
    """Combined objective ``sum_i Q(C_i) + lam * sum_{i<j} Diss(C_i, C_j)``
    with ``Q`` the silhouette (:func:`quality_silhouette`; scale-free, so
    it can be combined with dissimilarity without tuning) and
    ``Diss = 1 - ARI``.

    Parameters
    ----------
    lam : float
        Trade-off weight on the dissimilarity term.
    """

    def __init__(self, lam=1.0):
        self.lam = float(lam)

    def quality_sum(self, X, clusterings):
        labelings = [_as_labels(c) for c in clusterings]
        if not labelings:
            raise ValidationError("need at least one clustering")
        return float(sum(quality_silhouette(X, lab) for lab in labelings))

    def dissimilarity_sum(self, clusterings):
        labelings = [_as_labels(c) for c in clusterings]
        m = len(labelings)
        if m < 2:
            return 0.0
        diss = 1.0 - agreement_matrix(labelings)
        # unlike np.sum, cumsum adds strictly in order: the same rounding
        # as adding one pair after another in row-major order
        return float(np.cumsum(diss[np.triu_indices(m, k=1)])[-1])

    def score(self, X, clusterings):
        """The combined objective value (higher is better)."""
        return self.breakdown(X, clusterings)["score"]

    def breakdown(self, X, clusterings):
        """Dict with per-term values, for reporting."""
        clusterings = list(clusterings)
        q = self.quality_sum(X, clusterings)
        d = self.dissimilarity_sum(clusterings)
        return {
            "quality_sum": q,
            "dissimilarity_sum": d,
            "score": q + self.lam * d,
            "n_clusterings": len(clusterings),
        }
