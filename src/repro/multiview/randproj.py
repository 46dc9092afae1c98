"""Random-projection cluster ensembles (Fern & Brodley 2003) — s108-110.

Consensus clustering on one high-dimensional source: extract many views
by Gaussian random projection, run EM in each view, aggregate the
*soft* co-membership probabilities

    P^theta_{ij} = sum_l P(l | i, theta) * P(l | j, theta)

across runs, and recluster the aggregated similarity matrix (average-
link agglomeration, as in the paper).
"""

from __future__ import annotations

import numpy as np

from ..cluster.gmm import GaussianMixtureEM
from ..cluster.hierarchical import LinkageMatrix
from ..core.base import BaseClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..data.views import random_projection
from ..exceptions import ValidationError
from ..utils.validation import check_array, check_n_clusters, check_random_state

__all__ = ["RandomProjectionEnsemble", "soft_comembership"]


register(TaxonomyEntry(
    key="fern-brodley",
    reference="Fern & Brodley, 2003",
    search_space=SearchSpace.MULTI_SOURCE,
    processing=Processing.INDEPENDENT,
    given_knowledge=False,
    n_clusterings="1",
    view_detection="no dissimilarity",
    flexible_definition=True,
    estimator="repro.multiview.randproj.RandomProjectionEnsemble",
    notes="extracted views via random projection; consensus stabilises",
))


def soft_comembership(responsibilities):
    """``P_{ij} = sum_l r_il r_jl`` — probability i and j share a cluster."""
    R = np.asarray(responsibilities, dtype=np.float64)
    if R.ndim != 2:
        raise ValidationError("responsibilities must be 2-D")
    return R @ R.T


class RandomProjectionEnsemble(BaseClusterer):
    """Consensus of EM clusterings over random projections.

    Parameters
    ----------
    n_clusters : int — final consensus cluster count.
    n_views : int — number of random projections.
    n_components : int or None — projected dimensionality (default d/2).
    em_components : int or None — mixture size per view (default
        ``n_clusters``).
    covariance_type : forwarded to the per-view EM.
    random_state : int, Generator or None

    Attributes
    ----------
    labels_ : ndarray — consensus clustering.
    aggregated_similarity_ : ndarray (n, n) — averaged P^theta.
    view_labelings_ : list of ndarray — per-view MAP labelings.
    """

    def __init__(self, n_clusters=3, n_views=10, n_components=None,
                 em_components=None, covariance_type="spherical",
                 random_state=None):
        self.n_clusters = n_clusters
        self.n_views = n_views
        self.n_components = n_components
        self.em_components = em_components
        self.covariance_type = covariance_type
        self.random_state = random_state
        self.labels_ = None
        self.aggregated_similarity_ = None
        self.view_labelings_ = None

    def fit(self, X):
        X = check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        if int(self.n_views) < 1:
            raise ValidationError("n_views must be >= 1")
        rng = check_random_state(self.random_state)
        n_comp = self.n_components or max(1, X.shape[1] // 2)
        em_k = self.em_components or k
        agg = np.zeros((n, n))
        view_labelings = []
        for _ in range(int(self.n_views)):
            Z = random_projection(X, n_comp, random_state=rng)
            em = GaussianMixtureEM(
                n_components=em_k, covariance_type=self.covariance_type,
                n_init=1, random_state=rng.integers(2**31 - 1),
            ).fit(Z)
            agg += soft_comembership(em.responsibilities_)
            view_labelings.append(em.labels_)
        agg /= self.n_views
        d = 1.0 - np.clip(agg, 0.0, 1.0)
        np.fill_diagonal(d, 0.0)
        lm = LinkageMatrix(d, linkage="average")
        lm.cut(k)
        self.labels_ = lm.current_labels(n)
        self.aggregated_similarity_ = agg
        self.view_labelings_ = view_labelings
        return self
