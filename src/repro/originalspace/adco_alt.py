"""Density-profile alternative clustering (Bae, Bailey & Dong 2010) —
slide 34.

The ADCO measure compares clusterings by their per-attribute density
profiles (histograms); a good alternative should realise a *different*
density profile than the given clustering, not merely different labels.
This clusterer maximises

    O(C) = Q(C) - lam * ADCO(C, C_given)

where ``Q`` is a prototype compactness quality and ``ADCO`` the
profile similarity of :mod:`repro.metrics.clusterings`. Each restart
starts from the nearest k-means++ prototypes and then makes single-object
moves that improve ``O(C)``.
"""

from __future__ import annotations

import numpy as np

from ..cluster.kmeans import kmeans_plus_plus
from ..core.base import AlternativeClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..metrics.clusterings import ProfileBinning
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
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


def _sse(pts):
    return float(np.sum((pts - pts.mean(axis=0)) ** 2))


class _State:
    """Cached per-cluster terms of ``O(C)`` for the local search.

    Holds each cluster's size, squared-error term and integer density
    profile row. A candidate move of object i from a to b recomputes the
    squared error of a and b only and shifts i's bins between their
    profile rows, so the candidate costs O(n + (|a| + |b|) d) plus one
    profile match instead of O(n d). The clusters are summed in label
    order, as over ``np.unique(labels)``, so the score is bit-identical
    to a full recomputation.
    """

    def __init__(self, X, labels, k, binning, similarity_to_given, scale,
                 lam):
        self.X = X
        self.labels = labels
        self.k = k
        self.similarity_to_given = similarity_to_given
        self.norm = X.shape[0] * scale
        self.lam = lam
        width = X.shape[1] * binning.n_bins
        # each object's cells in a profile row (values outside the bin
        # edges are not counted)
        cells = np.arange(X.shape[1]) * binning.n_bins + binning.codes
        self.cells = [row[row_codes >= 0]
                      for row, row_codes in zip(cells, binning.codes)]
        self.sizes = np.bincount(labels, minlength=k)
        self.sse = [_sse(X[labels == c]) if self.sizes[c] else 0.0
                    for c in range(k)]
        self.profile = np.zeros((k, width))
        self.profile[self.sizes > 0] = binning.profile(labels)
        self.objective, self.similarity = self._score(
            self.sizes, self.sse, self.profile)

    def _score(self, sizes, sse, profile):
        q = 0.0
        for c in np.flatnonzero(sizes):
            q -= sse[c]
        q /= self.norm
        sim = self.similarity_to_given(profile[sizes > 0])
        return q - self.lam * sim, sim

    def score_move(self, i, b):
        """``(objective, similarity, sizes, sse, profile)`` after moving
        object ``i`` to cluster ``b``; the state is left unchanged."""
        labels = self.labels
        a = int(labels[i])
        cells = self.cells[i]
        labels[i] = b
        sizes = self.sizes.copy()
        sizes[a] -= 1
        sizes[b] += 1
        sse = list(self.sse)
        sse[a] = _sse(self.X[labels == a]) if sizes[a] else 0.0
        sse[b] = _sse(self.X[labels == b])
        labels[i] = a
        profile = self.profile.copy()
        profile[a, cells] -= 1.0
        profile[b, cells] += 1.0
        return (*self._score(sizes, sse, profile), sizes, sse, profile)

    def move_if_better(self, i):
        """Move object ``i`` to the first cluster, in index order, that
        raises ``O(C)`` by more than 1e-12, if any; return whether it
        moved. An object alone in its cluster stays."""
        a = int(self.labels[i])
        if self.sizes[a] <= 1:
            return False
        for b in range(self.k):
            if b == a:
                continue
            scored = self.score_move(i, b)
            if scored[0] > self.objective + 1e-12:
                self.apply_move(i, b, scored)
                return True
        return False

    def apply_move(self, i, b, scored):
        """Move object ``i`` to cluster ``b``, adopting ``scored``, its
        :meth:`score_move` result."""
        (self.objective, self.similarity, self.sizes, self.sse,
         self.profile) = scored
        self.labels[i] = b


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
    objective_ : float — final ``O(C)`` (higher is better).
    n_iter_ : int — local-search sweeps of the winning restart.
    convergence_trace_ : list of ConvergenceEvent — per-sweep ``O(C)``
        of the winning restart (nondecreasing: only improving moves are
        applied).

    Notes
    -----
    A candidate move of one object from cluster a to b costs
    O(n + (|a| + |b|) d) for the two clusters' squared errors plus an
    O(k^2 * d * n_bins) profile match; the other clusters' terms are
    cached.
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
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
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
        # per fit
        binning = ProfileBinning(X, n_bins=self.n_bins)
        similarity_to_given = binning.similarity_to(given_labels)
        best = None
        best_trace = None
        for _ in range(max(1, int(self.n_init))):
            protos = kmeans_plus_plus(X, k, rng)
            labels = np.argmin(cdist_sq(X, protos), axis=1)
            state = _State(X, labels, k, binning, similarity_to_given,
                           scale, self.lam)
            n_sweeps = 0
            with capture_convergence() as capture:
                for n_sweeps in range(1, int(self.max_iter) + 1):
                    improved = False
                    for i in rng.permutation(n):
                        if state.move_if_better(i):
                            improved = True
                    budget_tick(objective=state.objective)
                    if not improved:
                        break
            if best is None or state.objective > best[0]:
                best = (state.objective, labels.copy(), state.similarity,
                        n_sweeps)
                best_trace = capture.events
        obj, labels, sim, self.n_iter_ = best
        self.labels_ = labels.astype(np.int64)
        self.objective_ = float(obj)
        self.adco_to_given_ = float(sim)
        record_convergence(self, best_trace)
        return self
