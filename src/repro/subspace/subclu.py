"""SUBCLU (Kailing, Kriegel & Kröger 2004b) — slide 74.

Density-connected subspace clustering: run DBSCAN in every 1-dimensional
subspace, then climb the lattice apriori-style. The key monotonicity:
if ``O`` is a density-connected set in ``S``, it is density-connected in
every ``T ⊆ S`` — so a candidate subspace is only processed when all its
one-smaller projections contain clusters, and DBSCAN in the candidate
only needs to scan objects clustered in one generating projection (the
smallest one), not the full database.

Compared to the grid methods, SUBCLU finds arbitrarily-shaped clusters
and is noise-robust, at a much higher runtime (the slide's own
assessment — measurable in the F9 bench).
"""

from __future__ import annotations

import numpy as np

from .lattice import apriori_candidates
from ..cluster.dbscan import dbscan_from_neighborhoods
from ..core.base import ParamsMixin
from ..core.subspace import SubspaceCluster, SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..utils.linalg import cdist_sq
from ..utils.validation import check_count, check_in_range

__all__ = ["SUBCLU"]


register(TaxonomyEntry(
    key="subclu",
    reference="Kailing et al., 2004b",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="no dissimilarity",
    flexible_definition=False,
    estimator="repro.subspace.subclu.SUBCLU",
    notes="DBSCAN per subspace, apriori on subspaces",
))


class SUBCLU(ParamsMixin):
    """Density-connected subspace clustering.

    Parameters
    ----------
    eps : float
        DBSCAN radius (shared across subspaces, as in the paper).
    min_pts : int
        DBSCAN core threshold.
    max_dim : int or None
        Cap on cluster dimensionality.
    min_cluster_size : int

    Attributes
    ----------
    clusters_ : SubspaceClustering
    subspaces_visited_ : int
    candidate_objects_scanned_ : int
        Total objects DBSCAN actually touched — shows the saving from
        restricting candidate runs to previously clustered objects.
    """

    def __init__(self, eps=0.5, min_pts=5, max_dim=None, min_cluster_size=2):
        self.eps = eps
        self.min_pts = min_pts
        self.max_dim = max_dim
        self.min_cluster_size = min_cluster_size
        self.clusters_ = None
        self.subspaces_visited_ = None
        self.candidate_objects_scanned_ = None

    def _dbscan_on(self, X, objects, dims):
        """DBSCAN restricted to ``objects`` using only ``dims`` coords.

        Returns a list of object-index arrays (global indices).
        """
        sub = X[np.ix_(objects, list(dims))]
        neighborhoods = cdist_sq(sub, sub) <= self.eps * self.eps
        labels, _ = dbscan_from_neighborhoods(neighborhoods, self.min_pts)
        out = []
        for cid in np.unique(labels):
            if cid == -1:
                continue
            members = objects[labels == cid]
            if members.size >= self.min_cluster_size:
                out.append(members)
        return out

    def fit(self, X):
        X = self._check_array(X)
        check_in_range(self.eps, "eps", low=0.0, inclusive_low=False)
        check_count(self.min_pts, "min_pts", estimator=self)
        check_count(self.min_cluster_size, "min_cluster_size", estimator=self)
        n, d = X.shape
        max_dim = d if self.max_dim is None else min(int(self.max_dim), d)
        all_objects = np.arange(n)
        clusters = []
        visited = 0
        scanned = 0
        # clusters_by_subspace: subspace -> list of member arrays
        by_subspace = {}
        for j in range(d):
            visited += 1
            scanned += n
            found = self._dbscan_on(X, all_objects, (j,))
            if found:
                by_subspace[(j,)] = found
        size = 1
        frontier = sorted(by_subspace.keys())
        while frontier and size < max_dim:
            candidates = apriori_candidates(frontier)
            next_frontier = []
            for cand in candidates:
                visited += 1
                # Generating subspace: the one-smaller projection with the
                # fewest clustered objects (best-case pruning).
                best_gen = None
                for i in range(len(cand)):
                    sub = cand[:i] + cand[i + 1:]
                    if sub not in by_subspace:
                        best_gen = None
                        break
                    total = int(sum(m.size for m in by_subspace[sub]))
                    if best_gen is None or total < best_gen[0]:
                        best_gen = (total, sub)
                if best_gen is None:
                    continue
                found = []
                for members in by_subspace[best_gen[1]]:
                    scanned += members.size
                    found.extend(self._dbscan_on(X, members, cand))
                if found:
                    by_subspace[cand] = found
                    next_frontier.append(cand)
            frontier = next_frontier
            size += 1
        for subspace, member_lists in by_subspace.items():
            for members in member_lists:
                clusters.append(SubspaceCluster(
                    members.tolist(), subspace, quality=members.size / n
                ))
        self.clusters_ = SubspaceClustering(clusters, name="SUBCLU")
        self.subspaces_visited_ = visited
        self.candidate_objects_scanned_ = scanned
        return self

    def fit_predict(self, X):
        """Fit and return the :class:`SubspaceClustering` result."""
        return self.fit(X).clusters_
