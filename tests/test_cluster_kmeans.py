"""Unit tests for KMeans and KMedoids."""

import numpy as np
import pytest

from repro.cluster import KMeans, KMedoids, kmeans_plus_plus
from repro.exceptions import ValidationError
from repro.metrics import adjusted_rand_index


class TestKMeansPlusPlus:
    def test_shape(self, blobs3, rng):
        X, _ = blobs3
        centers = kmeans_plus_plus(X, 3, rng)
        assert centers.shape == (3, X.shape[1])

    def test_centers_are_spread(self, blobs3, rng):
        X, _ = blobs3
        centers = kmeans_plus_plus(X, 3, rng)
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1.0  # blobs are 8 apart

    def test_duplicate_points(self, rng):
        X = np.zeros((10, 2))
        centers = kmeans_plus_plus(X, 3, rng)
        assert centers.shape == (3, 2)


class TestKMeans:
    def test_recovers_blobs(self, blobs3):
        X, y = blobs3
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        assert adjusted_rand_index(km.labels_, y) == 1.0

    def test_inertia_decreases_with_k(self, blobs3):
        X, _ = blobs3
        inertias = [
            KMeans(n_clusters=k, random_state=0).fit(X).inertia_
            for k in (1, 2, 3)
        ]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_fit_predict_equals_labels(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=3, random_state=1)
        labels = km.fit_predict(X)
        assert np.array_equal(labels, km.labels_)

    def test_predict_on_training_data(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        assert np.array_equal(km.predict(X), km.labels_)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ValidationError):
            KMeans().predict(np.zeros((2, 2)))

    def test_predict_with_other_feature_count_raises(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        with pytest.raises(ValidationError,
                           match="KMeans: X has 3 features, but the model "
                                 "was fitted on 2"):
            km.predict(np.zeros((4, 3)))

    def test_reproducible(self, blobs3):
        X, _ = blobs3
        a = KMeans(n_clusters=3, random_state=42).fit(X).labels_
        b = KMeans(n_clusters=3, random_state=42).fit(X).labels_
        assert np.array_equal(a, b)

    def test_explicit_init(self, blobs3):
        X, y = blobs3
        centers = np.stack([X[y == c].mean(axis=0) for c in range(3)])
        km = KMeans(n_clusters=3, init=centers).fit(X)
        assert adjusted_rand_index(km.labels_, y) == 1.0

    def test_explicit_init_wrong_shape(self, blobs3):
        X, _ = blobs3
        with pytest.raises(ValidationError):
            KMeans(n_clusters=3, init=np.zeros((2, 2))).fit(X)

    def test_random_init_mode(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=3, init="random", random_state=0).fit(X)
        assert km.labels_.shape == (X.shape[0],)

    def test_unknown_init_rejected(self, blobs3):
        X, _ = blobs3
        with pytest.raises(ValidationError):
            KMeans(init="fancy").fit(X)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_all_points_assigned(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        assert set(km.labels_.tolist()) == {0, 1, 2}

    def test_k1_inertia_is_total_scatter(self, blobs3):
        X, _ = blobs3
        km = KMeans(n_clusters=1, random_state=0).fit(X)
        expected = float(np.sum((X - X.mean(axis=0)) ** 2))
        assert np.isclose(km.inertia_, expected, rtol=1e-6)


class TestKMedoids:
    def test_recovers_blobs(self, blobs3):
        X, y = blobs3
        km = KMedoids(n_clusters=3, random_state=0).fit(X)
        assert adjusted_rand_index(km.labels_, y) == 1.0

    def test_medoids_are_data_points(self, blobs3):
        X, _ = blobs3
        km = KMedoids(n_clusters=3, random_state=0).fit(X)
        assert km.medoid_indices_.shape == (3,)
        assert (km.medoid_indices_ >= 0).all()
        assert (km.medoid_indices_ < X.shape[0]).all()

    def test_labels_point_to_nearest_medoid(self, blobs3):
        X, _ = blobs3
        km = KMedoids(n_clusters=3, random_state=0).fit(X)
        med = X[km.medoid_indices_]
        d = np.linalg.norm(X[:, None] - med[None, :], axis=-1)
        assert np.array_equal(km.labels_, np.argmin(d, axis=1))
