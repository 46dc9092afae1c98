"""Unit tests for DBSCAN, Agglomerative, and the linkage machinery."""

import numpy as np
import pytest

from repro.cluster import (
    Agglomerative,
    DBSCAN,
    LinkageMatrix,
    average_link_distance,
    dbscan_from_neighborhoods,
    epsilon_neighborhoods,
)
from repro.exceptions import ValidationError
from repro.metrics import adjusted_rand_index


class TestDBSCAN:
    def test_recovers_blobs_with_noise(self, blobs3):
        X, y = blobs3
        X = np.vstack([X, [[100.0, 100.0]]])  # a far outlier
        db = DBSCAN(eps=1.5, min_pts=4).fit(X)
        assert db.labels_[-1] == -1
        assert adjusted_rand_index(db.labels_[:-1], y) == 1.0

    def test_all_noise_when_eps_tiny(self, blobs3):
        X, _ = blobs3
        db = DBSCAN(eps=1e-9, min_pts=3).fit(X)
        assert (db.labels_ == -1).all()

    def test_single_cluster_when_eps_huge(self, blobs3):
        X, _ = blobs3
        db = DBSCAN(eps=1e3, min_pts=3).fit(X)
        assert set(db.labels_.tolist()) == {0}

    def test_eps_zero_rejected(self, blobs3):
        X, _ = blobs3
        with pytest.raises(ValidationError):
            DBSCAN(eps=0.0).fit(X)

    def test_core_samples_have_dense_neighborhoods(self, blobs3):
        X, _ = blobs3
        db = DBSCAN(eps=1.0, min_pts=5).fit(X)
        nb = epsilon_neighborhoods(X, 1.0)
        for i in db.core_sample_indices_:
            assert len(nb[i]) >= 5

    def test_subspace_neighborhoods(self):
        X = np.array([[0.0, 100.0], [0.1, -100.0], [5.0, 0.0]])
        nb = epsilon_neighborhoods(X, 0.5, dims=[0])
        assert set(nb[0].tolist()) == {0, 1}

    def test_expansion_from_neighborhoods(self):
        # A chain 0-1-2 where only 1 is core: border points join but do
        # not propagate.
        neighborhoods = [
            np.array([0, 1]),
            np.array([0, 1, 2]),
            np.array([1, 2]),
        ]
        labels, core = dbscan_from_neighborhoods(neighborhoods, min_pts=3)
        assert core.tolist() == [False, True, False]
        assert labels.tolist() == [0, 0, 0]


class TestLinkageMatrix:
    def test_average_link_distance(self):
        d = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 3.0],
            [5.0, 3.0, 0.0],
        ])
        assert average_link_distance(d, [0, 1], [2]) == 4.0

    def test_closest_pair_and_merge(self):
        d = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 3.0],
            [5.0, 3.0, 0.0],
        ])
        lm = LinkageMatrix(d, linkage="average")
        a, b, dist = lm.closest_pair()
        assert {a, b} == {0, 1} and dist == 1.0
        survivor = lm.merge(a, b)
        # average linkage: (5 + 3) / 2 = 4
        assert np.isclose(lm.distance(survivor, 2), 4.0)

    def test_single_and_complete(self):
        d = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 3.0],
            [5.0, 3.0, 0.0],
        ])
        lm_s = LinkageMatrix(d, linkage="single")
        lm_s.merge(0, 1)
        assert np.isclose(lm_s.distance(0, 2), 3.0)
        lm_c = LinkageMatrix(d, linkage="complete")
        lm_c.merge(0, 1)
        assert np.isclose(lm_c.distance(0, 2), 5.0)

    def test_cannot_link(self):
        d = np.array([
            [0.0, 1.0, 5.0, 9.0],
            [1.0, 0.0, 3.0, 9.0],
            [5.0, 3.0, 0.0, 2.0],
            [9.0, 9.0, 2.0, 0.0],
        ])
        cannot = np.zeros((4, 4), dtype=bool)
        cannot[0, 1] = cannot[1, 0] = True
        cannot[1, 3] = cannot[3, 1] = True
        lm = LinkageMatrix(d, cannot_link=cannot)
        assert lm.closest_pair() == (0, 1, 1.0)
        assert lm.closest_pair(constrained=True) == (2, 3, 2.0)
        lm.merge(2, 3)
        # {2, 3} inherits 3's constraint against 1, so only 0 may join it
        assert lm.closest_pair(constrained=True) == (0, 2, 7.0)
        lm.merge(0, 2)
        assert lm.closest_pair(constrained=True) is None
        assert lm.closest_pair()[:2] == (0, 1)

    def test_cannot_link_validated(self):
        d = np.ones((3, 3))
        with pytest.raises(ValidationError):
            LinkageMatrix(d).closest_pair(constrained=True)
        with pytest.raises(ValidationError):
            LinkageMatrix(d, cannot_link=np.triu(np.ones((3, 3)), 1))
        with pytest.raises(ValidationError):
            LinkageMatrix(d, cannot_link=np.zeros((2, 2)))

    def test_cut_stops_at_k(self):
        lm = LinkageMatrix(np.ones((5, 5)) - np.eye(5))
        history = lm.cut(2)
        assert len(history) == 3 and len(lm.active) == 2
        assert lm.cut(3) == []

    def test_merge_inactive_rejected(self):
        lm = LinkageMatrix(np.zeros((3, 3)))
        lm.merge(0, 1)
        with pytest.raises(ValidationError):
            lm.merge(0, 1)
        with pytest.raises(ValidationError):
            lm.merge(2, 2)

    def test_unknown_linkage(self):
        with pytest.raises(ValidationError):
            LinkageMatrix(np.zeros((2, 2)), linkage="ward")

    def test_current_labels(self):
        lm = LinkageMatrix(np.ones((4, 4)) - np.eye(4))
        lm.merge(0, 2)
        labels = lm.current_labels(4)
        assert labels[0] == labels[2]
        assert len(set(labels.tolist())) == 3


class TestAgglomerative:
    def test_recovers_blobs(self, blobs3):
        X, y = blobs3
        for linkage in ("single", "complete", "average"):
            agg = Agglomerative(n_clusters=3, linkage=linkage).fit(X)
            assert adjusted_rand_index(agg.labels_, y) == 1.0

    def test_merge_history_length(self, blobs3):
        X, _ = blobs3
        agg = Agglomerative(n_clusters=3).fit(X)
        assert len(agg.merge_history_) == X.shape[0] - 3

    def test_merge_distances_nondecreasing_average(self, blobs3):
        # Average link is monotone (no inversions).
        X, _ = blobs3
        agg = Agglomerative(n_clusters=1).fit(X)
        dists = [d for _, _, d in agg.merge_history_]
        assert all(dists[i] <= dists[i + 1] + 1e-9 for i in range(len(dists) - 1))

    def test_n_clusters_one(self, blobs3):
        X, _ = blobs3
        agg = Agglomerative(n_clusters=1).fit(X)
        assert set(agg.labels_.tolist()) == {0}
