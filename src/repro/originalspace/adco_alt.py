"""Density-profile alternative clustering (Bae, Bailey & Dong 2010) —
slide 34.

The ADCO measure compares clusterings by their per-attribute density
profiles (histograms); a good alternative should realise a *different*
density profile than the given clustering, not merely different labels.
This clusterer maximises

    O(C) = Q(C) - lam * ADCO(C, C_given)

where ``Q`` is a prototype compactness quality and ``ADCO`` the
profile similarity of :mod:`repro.metrics.clusterings`, by k-means-style
alternation with a profile-aware reassignment pass.
"""

from __future__ import annotations

import numpy as np

from ..cluster.kmeans import kmeans_plus_plus
from ..core.base import AlternativeClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..metrics.clusterings import ProfileBinning
from ..utils.linalg import cdist_sq
from ..utils.validation import (
    check_array,
    check_in_range,
    check_n_clusters,
    check_random_state,
)

__all__ = ["ADCOAlternative"]


register(TaxonomyEntry(
    key="adco-alternative",
    reference="Bae et al., 2010",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.ITERATIVE,
    given_knowledge=True,
    n_clusterings="2",
    view_detection="",
    flexible_definition=False,
    estimator="repro.originalspace.adco_alt.ADCOAlternative",
    notes="alternative realises a different density profile",
))


class ADCOAlternative(AlternativeClusterer):
    """Alternative clustering by density-profile dissimilarity.

    Parameters
    ----------
    n_clusters : int
    lam : float >= 0
        Weight of the ADCO-similarity penalty against the given
        clustering (0 = plain k-means).
    n_bins : int
        Histogram resolution of the density profiles.
    max_iter, n_init, random_state : optimisation controls.

    Attributes
    ----------
    labels_ : ndarray
    adco_to_given_ : float — final profile similarity (lower = more
        alternative).
    objective_ : float
    """

    def __init__(self, n_clusters=2, lam=2.0, n_bins=5, max_iter=30,
                 n_init=5, random_state=None):
        self.n_clusters = n_clusters
        self.lam = lam
        self.n_bins = n_bins
        self.max_iter = max_iter
        self.n_init = n_init
        self.random_state = random_state
        self.labels_ = None
        self.adco_to_given_ = None
        self.objective_ = None

    def _objective(self, X, labels, similarity_to_given, scale):
        n = X.shape[0]
        q = 0.0
        for c in np.unique(labels):
            pts = X[labels == c]
            q -= float(np.sum((pts - pts.mean(axis=0)) ** 2))
        q /= (n * scale)
        sim = similarity_to_given(labels)
        return q - self.lam * sim, sim

    def fit(self, X, given):
        X = check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        check_in_range(self.lam, "lam", low=0.0)
        given_list = self._given_labels(given)
        if len(given_list) != 1:
            raise ValidationError("expects exactly one given clustering")
        given_labels = given_list[0]
        if given_labels.shape[0] != n:
            raise ValidationError("given clustering length mismatch")
        rng = check_random_state(self.random_state)
        scale = max(float(np.var(X) * X.shape[1]), 1e-12)
        # X is binned, and the given profile matched with itself, once
        # per fit; each candidate move then costs one np.bincount.
        similarity_to_given = ProfileBinning(
            X, n_bins=self.n_bins).similarity_to(given_labels)
        best = None
        for _ in range(max(1, int(self.n_init))):
            protos = kmeans_plus_plus(X, k, rng)
            labels = np.argmin(cdist_sq(X, protos), axis=1)
            obj, sim = self._objective(X, labels, similarity_to_given,
                                       scale)
            for _sweep in range(int(self.max_iter)):
                improved = False
                # prototype update
                for c in range(k):
                    members = labels == c
                    if members.any():
                        protos[c] = X[members].mean(axis=0)
                # profile-aware reassignment: accept single-object moves
                # that improve the combined objective
                order = rng.permutation(n)
                d2 = cdist_sq(X, protos)
                for i in order:
                    current = labels[i]
                    if np.sum(labels == current) <= 1:
                        continue
                    candidate = int(np.argmin(d2[i]))
                    trial_targets = {candidate} | set(range(k))
                    for target in trial_targets:
                        if target == current:
                            continue
                        labels[i] = target
                        cand_obj, cand_sim = self._objective(
                            X, labels, similarity_to_given, scale)
                        if cand_obj > obj + 1e-12:
                            obj, sim = cand_obj, cand_sim
                            improved = True
                            current = target
                            break
                        labels[i] = current
                if not improved:
                    break
            if best is None or obj > best[0]:
                best = (obj, labels.copy(), sim)
        obj, labels, sim = best
        self.labels_ = labels.astype(np.int64)
        self.objective_ = float(obj)
        self.adco_to_given_ = float(sim)
        return self
