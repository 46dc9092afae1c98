"""Dissimilarity measures *between clusterings* (not between objects).

Slide 13 of the tutorial stresses that multiple-clustering methods need a
notion of (dis-)similarity between whole clusterings. This module collects
the measures the surveyed methods use:

* ``1 - ARI`` and ``1 - Rand`` — meta clustering (Caruana et al. 2006);
* variation of information — an information-theoretic metric;
* ADCO density-profile dissimilarity (Bae, Bailey & Dong 2010) — compares
  attribute-wise histogram profiles of the clusters, so two clusterings
  that group the *same* regions of space count as similar even when label
  vectors differ.
"""

from __future__ import annotations

import numpy as np

from .information import variation_of_information
from .partition import adjusted_rand_index, agreement_matrix, rand_index
from ..utils.validation import check_array, check_labels
from ..exceptions import ValidationError

__all__ = [
    "ari_dissimilarity",
    "rand_dissimilarity",
    "vi_dissimilarity",
    "ProfileBinning",
    "density_profile",
    "adco_similarity",
    "adco_dissimilarity",
    "mean_pairwise_dissimilarity",
]


def ari_dissimilarity(labels_a, labels_b):
    """``1 - ARI``: 0 for identical partitions, about 1 for independent
    ones, and above 1 (at most 1.5) when the ARI is negative."""
    return 1.0 - adjusted_rand_index(labels_a, labels_b)


def rand_dissimilarity(labels_a, labels_b):
    """``1 - Rand index`` in ``[0, 1]``."""
    return 1.0 - rand_index(labels_a, labels_b)


def vi_dissimilarity(labels_a, labels_b):
    """Variation of information (a true metric on partitions)."""
    return variation_of_information(labels_a, labels_b)


class ProfileBinning:
    """The ADCO bins of a fixed data matrix, shared by its clusterings.

    Each attribute's range is split into ``n_bins`` equal-width bins
    (or taken from ``bin_edges``), and each (object, attribute) value is
    binned once. :meth:`profile` then builds any clustering's density
    profile with one ``np.bincount``, so an optimiser that scores many
    clusterings of the same ``X`` does not re-bin it for each.

    Binning follows ``np.histogram``: bin ``b`` holds
    ``edges[b] <= x < edges[b + 1]``, the last bin also holds its right
    edge, and values outside the edges are not counted.

    Attributes
    ----------
    bin_edges : numpy.ndarray of shape (n_features, n_bins + 1)
    n_bins : int
    codes : numpy.ndarray of int, shape (n_samples, n_features)
        Each value's bin, or -1 outside the edges.
    """

    def __init__(self, X, *, n_bins=5, bin_edges=None):
        X = check_array(X)
        d = X.shape[1]
        if bin_edges is None:
            bin_edges = np.stack([
                np.linspace(X[:, j].min(), X[:, j].max() + 1e-12, n_bins + 1)
                for j in range(d)
            ])
        else:
            bin_edges = np.asarray(bin_edges, dtype=np.float64)
            if bin_edges.ndim != 2 or bin_edges.shape[0] != d:
                raise ValidationError("bin_edges must have one row per feature")
            if np.any(bin_edges[:, :-1] > bin_edges[:, 1:]):
                raise ValidationError("bin_edges must increase along each row")
        self.bin_edges = bin_edges
        self.n_bins = n_bins = bin_edges.shape[1] - 1
        codes = np.empty(X.shape, dtype=np.int64)
        for j in range(d):
            edges = bin_edges[j]
            code = np.searchsorted(edges, X[:, j], side="right") - 1
            code[X[:, j] == edges[-1]] = n_bins - 1
            code[code >= n_bins] = -1
            codes[:, j] = code
        self.codes = codes

    def profile(self, labels):
        """Per-cluster attribute histograms of ``labels``, one row per
        non-noise cluster in label order, shape
        ``(n_clusters, n_features * n_bins)``."""
        n, d = self.codes.shape
        labels = check_labels(labels, n_samples=n)
        ids = np.unique(labels)
        ids = ids[ids != -1]
        width = d * self.n_bins
        counted = (self.codes >= 0) & (labels != -1)[:, None]
        cell = (np.searchsorted(ids, labels)[:, None] * width
                + np.arange(d) * self.n_bins + self.codes)
        counts = np.bincount(cell[counted], minlength=ids.size * width)
        return counts.reshape(ids.size, width).astype(np.float64)

    def similarity_to(self, labels_b):
        """``f(profile_a) -> ADCO similarity`` to ``labels_b`` of a
        clustering whose :meth:`profile` is ``profile_a``, with the
        profile and self-match of ``labels_b`` computed once."""
        prof_b = self.profile(labels_b)
        _require_clusters(prof_b)
        self_b = _greedy_match_sum(prof_b @ prof_b.T)

        def similarity(prof_a):
            _require_clusters(prof_a)
            sim = _greedy_match_sum(prof_a @ prof_b.T)
            # Normalise by the larger self-similarity so identical
            # clusterings -> 1.
            denom = max(_greedy_match_sum(prof_a @ prof_a.T), self_b)
            if denom == 0:
                return 0.0
            return float(min(1.0, sim / denom))

        return similarity


def _require_clusters(profile):
    if profile.size == 0:
        raise ValidationError("both clusterings must contain clusters")


def density_profile(X, labels, *, n_bins=5, bin_edges=None):
    """Per-cluster attribute histograms — the ADCO "density profile".

    Each attribute's range is split into ``n_bins`` equal-width bins
    (shared across clusterings via ``bin_edges`` for comparability) and
    each cluster is described by its object counts per (attribute, bin),
    binned as ``np.histogram`` does (see :class:`ProfileBinning`).

    Returns
    -------
    profile : numpy.ndarray of shape (n_clusters, n_features * n_bins)
    bin_edges : numpy.ndarray of shape (n_features, n_bins + 1)
    """
    binning = ProfileBinning(X, n_bins=n_bins, bin_edges=bin_edges)
    return binning.profile(labels), binning.bin_edges


def adco_similarity(X, labels_a, labels_b, *, n_bins=5):
    """ADCO similarity between two clusterings of the same data.

    Clusters of ``a`` are greedily matched to clusters of ``b`` by maximal
    density-profile dot product; the similarity is the normalised sum of
    matched dot products. 1 means the clusterings occupy the same dense
    regions; values near 0 mean disjoint density profiles.
    """
    binning = ProfileBinning(X, n_bins=n_bins)
    return binning.similarity_to(labels_b)(binning.profile(labels_a))


def _greedy_match_sum(score):
    """Greedy one-to-one matching maximising the summed score."""
    score = score.astype(np.float64).copy()
    total = 0.0
    rounds = min(score.shape)
    for _ in range(rounds):
        i, j = np.unravel_index(np.argmax(score), score.shape)
        if score[i, j] <= -np.inf:
            break
        total += score[i, j]
        score[i, :] = -np.inf
        score[:, j] = -np.inf
    return total


def adco_dissimilarity(X, labels_a, labels_b, *, n_bins=5):
    """``1 - ADCO similarity``."""
    return 1.0 - adco_similarity(X, labels_a, labels_b, n_bins=n_bins)


def mean_pairwise_dissimilarity(labelings):
    """Mean ``1 - ARI`` over every pair of a set of clusterings.

    Realises the tutorial's goal "Diss(Clust_i, Clust_j) high for all
    i != j" (slide 27) as a single scalar for benchmarking.
    """
    labelings = list(labelings)
    m = len(labelings)
    if m < 2:
        return 0.0
    diss = 1.0 - agreement_matrix(labelings)
    return float(np.mean(diss[np.triu_indices(m, k=1)]))
