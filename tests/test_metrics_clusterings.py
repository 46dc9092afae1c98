"""Unit tests for dissimilarity measures between clusterings."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metrics import (
    adco_dissimilarity,
    adco_similarity,
    ari_dissimilarity,
    density_profile,
    mean_pairwise_dissimilarity,
    rand_dissimilarity,
    vi_dissimilarity,
)


class TestSimpleDissimilarities:
    def test_identical_zero(self):
        a = [0, 0, 1, 1]
        assert np.isclose(ari_dissimilarity(a, a), 0.0)
        assert np.isclose(rand_dissimilarity(a, a), 0.0)
        assert np.isclose(vi_dissimilarity(a, a), 0.0)

    def test_orthogonal_high(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert ari_dissimilarity(a, b) > 1.0  # negative ARI
        assert rand_dissimilarity(a, b) > 0.5


class TestDensityProfile:
    def test_shape(self, four_squares):
        X, lh, _ = four_squares
        prof, edges = density_profile(X, lh, n_bins=4)
        assert prof.shape == (2, X.shape[1] * 4)
        assert edges.shape == (X.shape[1], 5)

    def test_counts_sum_to_cluster_sizes(self, four_squares):
        X, lh, _ = four_squares
        prof, _ = density_profile(X, lh, n_bins=4)
        sizes = np.array([np.sum(lh == 0), np.sum(lh == 1)])
        # each feature's histogram sums to the cluster size
        per_feature = prof.reshape(2, X.shape[1], 4).sum(axis=2)
        assert np.allclose(per_feature, sizes[:, None])

    def test_shared_edges(self, four_squares):
        X, lh, lv = four_squares
        _, edges = density_profile(X, lh, n_bins=4)
        prof2, edges2 = density_profile(X, lv, n_bins=4, bin_edges=edges)
        assert np.allclose(edges, edges2)

    def test_edges_feature_mismatch(self, four_squares):
        X, lh, _ = four_squares
        with pytest.raises(ValidationError):
            density_profile(X, lh, bin_edges=np.zeros((1, 5)))

    def test_edges_must_increase(self, four_squares):
        X, lh, _ = four_squares
        edges = np.tile([0.0, 2.0, 1.0, 3.0], (X.shape[1], 1))
        with pytest.raises(ValidationError):
            density_profile(X, lh, bin_edges=edges)


class TestADCO:
    def test_identical_is_one(self, four_squares):
        X, lh, _ = four_squares
        assert np.isclose(adco_similarity(X, lh, lh), 1.0)

    def test_different_density_profiles_lower(self, four_squares):
        X, lh, lv = four_squares
        same = adco_similarity(X, lh, lh)
        cross = adco_similarity(X, lh, lv)
        assert cross < same

    def test_dissimilarity_complement(self, four_squares):
        X, lh, lv = four_squares
        assert np.isclose(
            adco_dissimilarity(X, lh, lv), 1.0 - adco_similarity(X, lh, lv)
        )

    def test_bounds(self, four_squares):
        X, lh, lv = four_squares
        assert 0.0 <= adco_similarity(X, lh, lv) <= 1.0


class TestMeanPairwise:
    def test_single_clustering_zero(self):
        assert mean_pairwise_dissimilarity([[0, 1, 0]]) == 0.0

    def test_average_of_pairs(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        expected = ari_dissimilarity(a, b)
        assert np.isclose(mean_pairwise_dissimilarity([a, b]), expected)

    def test_three_clusterings(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        c = [1, 1, 0, 0]
        vals = [ari_dissimilarity(a, b), ari_dissimilarity(a, c),
                ari_dissimilarity(b, c)]
        assert np.isclose(mean_pairwise_dissimilarity([a, b, c]),
                          np.mean(vals))
