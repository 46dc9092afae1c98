"""DUSC — dimensionality-unbiased subspace clustering (Assent et al.
2007) — slide 77.

Density-based mining with a *dimensionality-unbiased* core condition:
a fixed DBSCAN threshold over-reports in low-dimensional subspaces
(everything is dense) and under-reports in high-dimensional ones.
DUSC normalises each object's neighbourhood count by the **expected**
count under a uniform null in that subspace::

    density_S(o) = |N_eps(o, S)|  /  E_uniform[ |N_eps(., S)| ]

and requires ``density_S(o) >= F`` for a core object — the same factor
``F`` is meaningful at every dimensionality. The expected count is the
product over the subspace's dimensions of the per-dimension probability
mass of an eps-interval (estimated from each attribute's range), times
``n``.
"""

from __future__ import annotations

import numpy as np

from .lattice import apriori_candidates
from ..cluster.dbscan import dbscan_from_neighborhoods
from ..core.base import ParamsMixin
from ..core.subspace import SubspaceCluster, SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..utils.linalg import cdist_sq
from ..utils.validation import check_array, check_in_range

__all__ = ["DUSC", "expected_neighbors_uniform"]


register(TaxonomyEntry(
    key="dusc",
    reference="Assent et al., 2007",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="no dissimilarity",
    flexible_definition=False,
    estimator="repro.subspace.dusc.DUSC",
    notes="dimensionality-unbiased density normalisation",
))


def expected_neighbors_uniform(n_samples, eps, ranges):
    """Expected eps-ball occupancy under per-dimension uniformity.

    Approximated with the enclosing hypercube: per dimension the
    probability that an independent uniform sample falls within ``eps``
    is ``min(2 eps / range, 1)``; the joint expectation multiplies.
    """
    p = 1.0
    for span in ranges:
        if span <= 0:
            continue
        p *= min(2.0 * eps / span, 1.0)
    return max(n_samples * p, 1e-12)


class DUSC(ParamsMixin):
    """Dimensionality-unbiased density-based subspace clustering.

    Parameters
    ----------
    eps : float
        Neighbourhood radius (shared across subspaces).
    factor : float
        ``F`` — how many times denser than the uniform expectation a
        core object's neighbourhood must be. Replaces min_pts and is
        comparable across dimensionalities (the paper's point).
    max_dim : int or None
    min_cluster_size : int

    Attributes
    ----------
    clusters_ : SubspaceClustering
    core_thresholds_ : dict dimensionality -> required neighbour count
        in a subspace of that dimensionality (for the full data ranges;
        informational).
    subspaces_visited_ : int
    """

    def __init__(self, eps=0.5, factor=10.0, max_dim=None,
                 min_cluster_size=4):
        self.eps = eps
        self.factor = factor
        self.max_dim = max_dim
        self.min_cluster_size = min_cluster_size
        self.clusters_ = None
        self.core_thresholds_ = None
        self.subspaces_visited_ = None

    def _mine_subspace(self, X, ranges, subspace):
        n = X.shape[0]
        sub = X[:, list(subspace)]
        neighborhoods = cdist_sq(sub, sub) <= self.eps * self.eps
        expected = expected_neighbors_uniform(
            n, self.eps, [ranges[j] for j in subspace])
        min_pts = max(2, int(np.ceil(self.factor * expected)))
        labels, _ = dbscan_from_neighborhoods(neighborhoods, min_pts)
        out = []
        for cid in np.unique(labels):
            if cid == -1:
                continue
            members = np.flatnonzero(labels == cid)
            if members.size >= self.min_cluster_size:
                out.append(members)
        return out, min_pts

    def fit(self, X):
        X = check_array(X)
        check_in_range(self.eps, "eps", low=0.0, inclusive_low=False)
        check_in_range(self.factor, "factor", low=0.0, inclusive_low=False)
        n, d = X.shape
        max_dim = d if self.max_dim is None else min(int(self.max_dim), d)
        ranges = [float(X[:, j].max() - X[:, j].min()) for j in range(d)]
        clusters = []
        visited = 0
        thresholds = {}
        frontier = []
        for j in range(d):
            visited += 1
            found, min_pts = self._mine_subspace(X, ranges, (j,))
            thresholds.setdefault(1, min_pts)
            if found:
                frontier.append((j,))
                for members in found:
                    clusters.append(SubspaceCluster(
                        members.tolist(), (j,), quality=members.size / n))
        size = 1
        while frontier and size < max_dim:
            next_frontier = []
            for cand in apriori_candidates(frontier):
                visited += 1
                found, min_pts = self._mine_subspace(X, ranges, cand)
                thresholds.setdefault(len(cand), min_pts)
                if found:
                    next_frontier.append(cand)
                    for members in found:
                        clusters.append(SubspaceCluster(
                            members.tolist(), cand,
                            quality=members.size / n))
            frontier = next_frontier
            size += 1
        self.clusters_ = SubspaceClustering(clusters, name="DUSC")
        self.core_thresholds_ = thresholds
        self.subspaces_visited_ = visited
        return self

    def fit_predict(self, X):
        """Fit and return the :class:`SubspaceClustering` result."""
        return self.fit(X).clusters_
