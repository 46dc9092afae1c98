"""Non-redundant clustering with conditional ensembles (Gondek &
Hofmann 2005) — slide 34.

CondEns turns any base clusterer into an alternative clusterer using
ensembles: cluster *within* each class of the given clustering (so each
local clustering is conditionally independent of the given structure by
construction), then merge the local clusterings into one global
alternative. Intuition: structure that recurs inside every given class
is orthogonal to the class boundary.

The combination step aligns the per-class sub-clusters across classes
(Hungarian matching on centroid distances against a reference class) —
sub-clusters occupying the same region of space in different classes
receive the same global label, exactly the "same role, different class"
semantics the ensemble consensus of the paper provides.
"""

from __future__ import annotations

import numpy as np

from ..cluster.kmeans import KMeans
from ..core.base import AlternativeClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..utils.assignment import min_cost_assignment
from ..utils.linalg import cdist_sq
from ..utils.validation import check_array, check_n_clusters, check_random_state

__all__ = ["ConditionalEnsembles"]


register(TaxonomyEntry(
    key="condens",
    reference="Gondek & Hofmann, 2005",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.ITERATIVE,
    given_knowledge=True,
    n_clusterings="2",
    view_detection="",
    flexible_definition=True,
    estimator="repro.originalspace.condens.ConditionalEnsembles",
    notes="cluster within each given class, align & merge sub-clusters",
))


class ConditionalEnsembles(AlternativeClusterer):
    """CondEns alternative clustering.

    Parameters
    ----------
    n_clusters : int
        Clusters in the alternative solution (also used for the local
        clusterings inside each given class).
    clusterer_factory : callable ``(n_clusters, seed) -> estimator``
        Builds the base clusterer for each given class; default k-means
        (the method is clusterer-agnostic).
    random_state : int, Generator or None

    Attributes
    ----------
    labels_ : ndarray — the aligned global alternative.
    local_labelings_ : list of ndarray (n,) — within-class clusterings,
        padded with ``-1`` outside their class.
    """

    def __init__(self, n_clusters=2, clusterer_factory=None,
                 random_state=None):
        self.n_clusters = n_clusters
        self.clusterer_factory = clusterer_factory
        self.random_state = random_state
        self.labels_ = None
        self.local_labelings_ = None

    def _make_clusterer(self, k, rng):
        if self.clusterer_factory is not None:
            return self.clusterer_factory(k, int(rng.integers(2**31 - 1)))
        return KMeans(n_clusters=k, random_state=int(rng.integers(2**31 - 1)))

    def fit(self, X, given):
        X = check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        given_list = self._given_labels(given)
        if len(given_list) != 1:
            raise ValidationError("expects exactly one given clustering")
        given_labels = given_list[0]
        if given_labels.shape[0] != n:
            raise ValidationError("given clustering length mismatch")
        rng = check_random_state(self.random_state)
        classes = np.unique(given_labels)
        classes = classes[classes != -1]
        if classes.size == 0:
            raise ValidationError("given clustering has no clusters")

        local = []
        centroids = []     # per class: (k_local, d) array
        memberships = []   # per class: list of index arrays per sub-cluster
        for cid in classes:
            members = np.flatnonzero(given_labels == cid)
            labels = np.full(n, -1, dtype=np.int64)
            k_local = min(k, members.size)
            if members.size >= 2 and k_local >= 2:
                clusterer = self._make_clusterer(k_local, rng)
                sub = np.asarray(clusterer.fit(X[members]).labels_)
            else:
                sub = np.zeros(members.size, dtype=np.int64)
            labels[members] = sub
            local.append(labels)
            cents = []
            groups = []
            for sc in np.unique(sub):
                idx = members[sub == sc]
                cents.append(X[idx].mean(axis=0))
                groups.append(idx)
            centroids.append(np.stack(cents))
            memberships.append(groups)

        # Reference class: the one with the most sub-clusters.
        ref = int(np.argmax([c.shape[0] for c in centroids]))
        out = np.full(n, -1, dtype=np.int64)
        next_free = centroids[ref].shape[0]
        for ci in range(len(classes)):
            if ci == ref:
                mapping = {j: j for j in range(centroids[ci].shape[0])}
            else:
                cost = cdist_sq(centroids[ci], centroids[ref])
                rows, cols = min_cost_assignment(cost)
                mapping = {int(r): int(c) for r, c in zip(rows, cols)}
            for j, idx in enumerate(memberships[ci]):
                target = mapping.get(j)
                if target is None:
                    target = next_free
                    next_free += 1
                out[idx] = target
        noise = given_labels == -1
        out[noise] = -1
        self.labels_ = out
        self.local_labelings_ = local
        return self
