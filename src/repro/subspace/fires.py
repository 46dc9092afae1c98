"""FIRES-style approximate subspace clustering (Kriegel et al. 2005) —
slide 74.

FIRES avoids the exponential lattice climb entirely:

1. **base clusters** — cluster every single dimension. FIRES allows
   any base technique; the default here is the statistically
   significant 1-d intervals of :func:`repro.subspace.p3c.significant_intervals`
   (plain 1-d DBSCAN chains through dense uniform backgrounds), with
   ``base="dbscan"`` available for sparse data;
2. **merge graph** — two base clusters are *best-merge candidates* when
   their object sets overlap strongly (Jaccard similarity above a
   threshold); connected components of this graph approximate
   higher-dimensional clusters;
3. **refinement** — each component proposes a subspace (the union of
   its members' dimensions) and a tentative object set; a final DBSCAN
   in the proposed subspace polishes the member set.

The result approximates the maximal-dimensional clusters directly in
time linear in the number of base clusters — the efficiency trade the
slide describes.
"""

from __future__ import annotations

import numpy as np

from ..cluster.dbscan import dbscan_from_neighborhoods
from ..core.base import ParamsMixin
from ..core.subspace import SubspaceCluster, SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..utils.linalg import cdist_sq
from ..utils.validation import check_array, check_in_range

__all__ = ["FIRES"]


register(TaxonomyEntry(
    key="fires",
    reference="Kriegel et al., 2005",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="no dissimilarity",
    flexible_definition=True,
    estimator="repro.subspace.fires.FIRES",
    notes="merges 1-d base clusters; approximate, no lattice climb",
))


def _jaccard(a, b):
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


class FIRES(ParamsMixin):
    """Approximate subspace clustering from 1-d base clusters.

    Parameters
    ----------
    eps : float — DBSCAN radius (refinement runs, and base runs when
        ``base="dbscan"``).
    min_pts : int — DBSCAN core threshold.
    merge_threshold : float in (0, 1]
        Jaccard overlap above which two base clusters are best-merge
        candidates.
    base : {"intervals", "dbscan"}
        Base-cluster generator per dimension.
    base_alpha : float — significance level of the interval base.
    min_cluster_size : int

    Attributes
    ----------
    clusters_ : SubspaceClustering — refined maximal-dimensional
        approximations (base clusters whose component stayed 1-d are
        kept as-is).
    base_clusters_ : SubspaceClustering — the 1-d evidence.
    n_components_ : int — merge-graph components.
    """

    def __init__(self, eps=0.5, min_pts=8, merge_threshold=0.5,
                 base="intervals", base_alpha=1e-3, min_cluster_size=4):
        self.eps = eps
        self.min_pts = min_pts
        self.merge_threshold = merge_threshold
        self.base = base
        self.base_alpha = base_alpha
        self.min_cluster_size = min_cluster_size
        self.clusters_ = None
        self.base_clusters_ = None
        self.n_components_ = None

    def _dbscan(self, X, objects, dims):
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
        X = check_array(X)
        check_in_range(self.eps, "eps", low=0.0, inclusive_low=False)
        check_in_range(self.merge_threshold, "merge_threshold",
                       low=0.0, high=1.0, inclusive_low=False)
        if self.base not in ("intervals", "dbscan"):
            from ..exceptions import ValidationError

            raise ValidationError(f"unknown base {self.base!r}")
        n, d = X.shape
        everything = np.arange(n)
        base = []      # (dim, frozenset objects)
        for j in range(d):
            if self.base == "dbscan":
                groups = self._dbscan(X, everything, (j,))
            else:
                from .p3c import significant_intervals

                groups = [
                    members
                    for _lo, _hi, members in significant_intervals(
                        X[:, j], alpha=self.base_alpha)
                    if members.size >= self.min_cluster_size
                ]
            for members in groups:
                base.append((j, frozenset(members.tolist())))
        self.base_clusters_ = SubspaceClustering(
            [SubspaceCluster(sorted(objs), (j,)) for j, objs in base],
            name="FIRES-base",
        )
        # Merge graph over base clusters.
        m = len(base)
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for i in range(m):
            for jdx in range(i + 1, m):
                if base[i][0] == base[jdx][0]:
                    continue  # same dimension: never merge
                if _jaccard(base[i][1], base[jdx][1]) >= self.merge_threshold:
                    union(i, jdx)
        components = {}
        for i in range(m):
            components.setdefault(find(i), []).append(i)
        clusters = []
        for comp in components.values():
            dims = tuple(sorted({base[i][0] for i in comp}))
            if len(comp) == 1:
                j, objs = base[comp[0]]
                clusters.append(SubspaceCluster(sorted(objs), (j,),
                                                quality=len(objs) / n))
                continue
            # Tentative objects: union of members, then refine with a
            # DBSCAN run in the proposed subspace.
            tentative = set()
            for i in comp:
                tentative |= base[i][1]
            tentative = np.asarray(sorted(tentative), dtype=np.int64)
            refined = self._dbscan(X, tentative, dims)
            if refined:
                for members in refined:
                    clusters.append(SubspaceCluster(
                        members.tolist(), dims, quality=members.size / n))
            else:
                clusters.append(SubspaceCluster(
                    tentative.tolist(), dims, quality=tentative.size / n))
        self.clusters_ = SubspaceClustering(clusters, name="FIRES")
        self.n_components_ = len(components)
        return self

    def fit_predict(self, X):
        """Fit and return the :class:`SubspaceClustering` result."""
        return self.fit(X).clusters_
