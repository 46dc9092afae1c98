"""PreDeCon — density-based clustering with subspace PREferences
(Böhm et al. 2004a) — slide 66.

Each point gets a *subspace preference* from its eps-neighbourhood: a
dimension is preferred when the neighbourhood's variance along it is
small (below ``delta``). Distances are then measured with per-point
preference weights — preferred dimensions are up-weighted by a large
factor ``kappa`` — so density connectivity only forms between points
that agree on their low-variance dimensions. A core point must have at
least ``min_pts`` preference-weighted neighbours *and* a preference
dimensionality of at least ``min_preference_dim`` ... bounded above by
``max_preference_dim`` (the paper's lambda: clusters may not prefer
more than lambda dimensions).

Output is both the flat partition and the ``(O, S)`` view (each
cluster's subspace = dimensions preferred by the majority of its
members).
"""

from __future__ import annotations

import numpy as np

from ..cluster.dbscan import dbscan_from_neighborhoods
from ..core.base import BaseClusterer
from ..core.subspace import SubspaceCluster, SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..utils.linalg import cdist_sq
from ..utils.validation import check_array, check_count, check_in_range

__all__ = ["PreDeCon"]


register(TaxonomyEntry(
    key="predecon",
    reference="Böhm et al., 2004a",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings="1",
    view_detection="no dissimilarity",
    flexible_definition=False,
    estimator="repro.subspace.predecon.PreDeCon",
    notes="per-point subspace preferences weight the density metric",
))


class PreDeCon(BaseClusterer):
    """Density clustering with local subspace preferences.

    Parameters
    ----------
    eps : float — neighbourhood radius (Euclidean, for the preference
        estimation; also the radius of the weighted neighbourhood).
    min_pts : int — core threshold on the weighted neighbourhood.
    delta : float — variance threshold below which a dimension becomes
        preferred.
    kappa : float — weight boost of preferred dimensions (>> 1).
    max_preference_dim : int or None — the paper's ``lambda``: points
        preferring more dimensions than this cannot be cores.

    Attributes
    ----------
    labels_ : ndarray — partition with ``-1`` noise.
    preference_dims_ : list of tuple — preferred dimensions per point.
    clusters_ : SubspaceClustering — clusters with their majority
        preferred subspaces.
    """

    def __init__(self, eps=1.0, min_pts=5, delta=0.25, kappa=100.0,
                 max_preference_dim=None):
        self.eps = eps
        self.min_pts = min_pts
        self.delta = delta
        self.kappa = kappa
        self.max_preference_dim = max_preference_dim
        self.labels_ = None
        self.preference_dims_ = None
        self.clusters_ = None

    def fit(self, X):
        X = check_array(X, min_samples=2)
        check_in_range(self.eps, "eps", low=0.0, inclusive_low=False)
        check_in_range(self.delta, "delta", low=0.0, inclusive_low=False)
        check_in_range(self.kappa, "kappa", low=1.0)
        min_pts = check_count(self.min_pts, "min_pts", estimator=self)
        n, d = X.shape
        d2 = cdist_sq(X, X)
        eps2 = self.eps * self.eps

        # Per-point preference weights from the k-nearest-neighbour
        # variance profile (k-NN is scale-free where a full-dimensional
        # eps-ball starves in the presence of noise dimensions; the
        # paper's eps-neighbourhood estimation assumes low-noise data).
        k_pref = min(n, max(5 * min_pts, 30))
        weights = np.ones((n, d))
        pref_dims = []
        for i in range(n):
            nb = np.argpartition(d2[i], k_pref - 1)[:k_pref]
            var = X[nb].var(axis=0)
            preferred = np.flatnonzero(var <= self.delta)
            weights[i, preferred] = self.kappa
            pref_dims.append(tuple(int(j) for j in preferred))

        # Preference-weighted neighbourhoods with the SAME radius eps:
        # weighting preferred dimensions by kappa makes the ball
        # effectively eps/sqrt(kappa) tight along them while staying eps
        # loose elsewhere. The paper's symmetric predicate takes the max
        # of the two points' weighted distances.
        neighborhoods = np.empty((n, n), dtype=bool)
        for i in range(n):
            diff2 = (X - X[i]) ** 2
            di = diff2 @ weights[i]
            dq = np.einsum("ij,ij->i", diff2, weights)
            neighborhoods[i] = np.maximum(di, dq) <= eps2

        max_pref = d if self.max_preference_dim is None else int(
            self.max_preference_dim)
        n_pref = np.array([len(dims) for dims in pref_dims])
        core_ok = ((neighborhoods.sum(axis=1) >= min_pts)
                   & (n_pref >= 1) & (n_pref <= max_pref))
        # Points that fail the preference condition get an empty
        # neighbourhood: dbscan_from_neighborhoods then never counts them
        # as core for any min_pts >= 1, yet they can still join a
        # cluster as border points.
        neighborhoods[~core_ok] = False
        labels, _ = dbscan_from_neighborhoods(neighborhoods, min_pts)
        self.labels_ = labels
        self.preference_dims_ = pref_dims
        clusters = []
        for cid in np.unique(labels):
            if cid == -1:
                continue
            members = np.flatnonzero(labels == cid)
            votes = np.zeros(d)
            for i in members:
                for j in pref_dims[i]:
                    votes[j] += 1
            dims = tuple(np.flatnonzero(votes >= members.size / 2))
            if len(dims) == 0:
                dims = (int(np.argmax(votes)),)
            clusters.append(SubspaceCluster(members.tolist(), dims,
                                            quality=members.size / n))
        self.clusters_ = SubspaceClustering(clusters, name="PreDeCon")
        return self
