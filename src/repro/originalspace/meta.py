"""Meta clustering (Caruana et al. 2006) — slide 29.

Step 1 generates many base clusterings by undirected diversification
(random restarts, Zipf-weighted features, varying k); step 2 groups the
base clusterings at the meta level by the Rand dissimilarity
``1 - Rand`` and returns one representative per meta-cluster.

The tutorial's criticism — blind generation risks many near-duplicate
solutions — is observable on the fitted estimator via
``duplication_rate_`` (experiment F15).
"""

from __future__ import annotations

import numpy as np

from ..cluster.hierarchical import LinkageMatrix
from ..cluster.kmeans import KMeans
from ..core.base import MultiClusteringEstimator
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..metrics.partition import agreement_matrix
from ..utils.validation import check_array, check_count, check_random_state

__all__ = ["MetaClustering"]


register(TaxonomyEntry(
    key="meta-clustering",
    reference="Caruana et al., 2006",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.INDEPENDENT,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="",
    flexible_definition=True,
    estimator="repro.originalspace.meta.MetaClustering",
    notes="undirected generation, meta-level grouping",
))


class MetaClustering(MultiClusteringEstimator):
    """Generate-then-group meta clustering.

    Parameters
    ----------
    n_base : int
        Number of base clusterings to generate.
    n_clusters : int or sequence of int
        ``k`` for the base k-means runs; a sequence is cycled through.
    n_meta_clusters : int
        Number of representative solutions to return.
    zipf_alpha : float
        Feature weights are drawn ``w_j = u_j^{-alpha}`` with uniform
        ``u_j`` (Caruana et al.'s Zipf-distributed feature weighting);
        0 disables weighting.
    random_state : int, Generator or None

    Attributes
    ----------
    base_labelings_ : list of ndarray — all generated clusterings.
    meta_labels_ : ndarray (n_base,) — meta-cluster id per base clustering.
    labelings_ : list of ndarray — the representatives (meta-medoids).
    duplication_rate_ : float
        Fraction of base-clustering pairs with ``1 - Rand`` below
        ``duplicate_threshold`` (the blind-generation redundancy measure).
    duplicate_threshold : float
    """

    def __init__(self, n_base=30, n_clusters=2, n_meta_clusters=3,
                 zipf_alpha=1.0, duplicate_threshold=0.05,
                 random_state=None):
        self.n_base = check_count(n_base, "n_base", low=2, estimator=self)
        self.n_clusters = n_clusters
        self.n_meta_clusters = n_meta_clusters
        self.zipf_alpha = float(zipf_alpha)
        self.duplicate_threshold = float(duplicate_threshold)
        self.random_state = random_state
        self.base_labelings_ = None
        self.meta_labels_ = None
        self.labelings_ = None
        self.duplication_rate_ = None

    def _k_sequence(self):
        ks = self.n_clusters
        if np.isscalar(ks):
            ks = [int(ks)]
        return [int(k) for k in ks]

    def fit(self, X):
        X = check_array(X, min_samples=2)
        n_meta = check_count(self.n_meta_clusters, "n_meta_clusters",
                             estimator=self)
        rng = check_random_state(self.random_state)
        ks = self._k_sequence()
        base = []
        for i in range(self.n_base):
            if self.zipf_alpha > 0:
                u = rng.uniform(0.05, 1.0, size=X.shape[1])
                weights = u ** (-self.zipf_alpha)
                weights /= weights.max()
            else:
                weights = np.ones(X.shape[1])
            Xw = X * np.sqrt(weights)[None, :]
            k = ks[i % len(ks)]
            km = KMeans(n_clusters=k, n_init=1, init="random",
                        random_state=rng.integers(2**31 - 1))
            base.append(km.fit(Xw).labels_)
        m = len(base)
        d = 1.0 - agreement_matrix(base, measure="rand")
        n_meta = min(n_meta, m)
        lm = LinkageMatrix(d, linkage="average")
        lm.cut(n_meta)
        meta_labels = lm.current_labels(m)
        representatives = []
        for meta_id in np.unique(meta_labels):
            members = np.flatnonzero(meta_labels == meta_id)
            sub = d[np.ix_(members, members)]
            medoid = members[int(np.argmin(sub.sum(axis=1)))]
            representatives.append(base[medoid])
        off_diag = d[np.triu_indices(m, k=1)]
        self.duplication_rate_ = float(
            np.mean(off_diag < self.duplicate_threshold)
        ) if off_diag.size else 0.0
        self.base_labelings_ = base
        self.meta_labels_ = meta_labels
        self.labelings_ = representatives
        return self
