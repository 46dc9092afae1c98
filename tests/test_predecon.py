"""Tests for PreDeCon (density clustering with subspace preferences)."""

import numpy as np
import pytest

from repro.data import make_subspace_data, make_uniform
from repro.exceptions import ValidationError
from repro.metrics import pair_f1_subspace
from repro.subspace import PreDeCon


@pytest.fixture
def preference_data():
    return make_subspace_data(
        n_samples=240, n_features=4,
        clusters=[(80, (0, 1)), (80, (2, 3))],
        cluster_std=0.25, noise_low=0.0, noise_high=4.0, random_state=3)


class TestPreDeCon:
    def test_finds_clusters_with_correct_preferences(self, preference_data):
        X, hidden = preference_data
        pd = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0,
                      max_preference_dim=3).fit(X)
        found = set(pd.clusters_.subspaces())
        assert {(0, 1), (2, 3)} <= found
        assert pair_f1_subspace(pd.clusters_, hidden) > 0.6

    def test_members_prefer_their_cluster_dims(self, preference_data):
        X, hidden = preference_data
        pd = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0,
                      max_preference_dim=3).fit(X)
        # objects of the first planted cluster overwhelmingly include
        # their cluster's dims {0, 1} among their preferences
        planted = hidden[0].object_array()
        hits = sum(
            1 for i in planted
            if {0, 1} <= set(pd.preference_dims_[i])
        )
        assert hits > 0.8 * planted.size

    def test_uniform_data_gets_no_multidim_preferences(self):
        # On uniform data no point should prefer two or more dimensions
        # (there is no low-variance structure to latch onto); clusters,
        # if any, are 1-d slab artefacts the caller screens by
        # dimensionality.
        X = make_uniform(200, 4, low=0.0, high=4.0, random_state=0)
        pd = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0).fit(X)
        multi = sum(1 for p in pd.preference_dims_ if len(p) >= 2)
        assert multi < 0.2 * len(pd.preference_dims_)
        assert all(c.dimensionality <= 1 for c in pd.clusters_)

    def test_max_preference_dim_blocks_overfitted_cores(self,
                                                        preference_data):
        X, _ = preference_data
        # lambda = 0-dim preference impossible; lambda=1 forbids the
        # 2-dim-preferring cluster members from being cores
        pd = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0,
                      max_preference_dim=1).fit(X)
        loose = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0,
                         max_preference_dim=3).fit(X)
        assert float(np.mean(pd.labels_ != -1)) <= \
            float(np.mean(loose.labels_ != -1))

    def test_invalid_params(self, preference_data):
        X, _ = preference_data
        with pytest.raises(ValidationError):
            PreDeCon(eps=0.0).fit(X)
        with pytest.raises(ValidationError):
            PreDeCon(delta=0.0).fit(X)
        with pytest.raises(ValidationError):
            PreDeCon(kappa=0.5).fit(X)
        for min_pts in (0, -3, 2.5):
            with pytest.raises(ValidationError, match="min_pts"):
                PreDeCon(min_pts=min_pts).fit(X)

    def test_labels_and_clusters_consistent(self, preference_data):
        X, _ = preference_data
        pd = PreDeCon(eps=5.0, min_pts=6, delta=0.3, kappa=100.0).fit(X)
        for cid, cluster in enumerate(pd.clusters_):
            members = set(np.flatnonzero(pd.labels_ == cid).tolist())
            assert members == set(cluster.objects)

    def test_min_pts_one_keeps_ineligible_points_out_of_cores(self):
        # a line preferring dimension 1 plus uniform outliers with no
        # preferred dimension: with min_pts=1 an outlier could count
        # itself as a dense neighbourhood, but it fails the preference
        # test, so it must not seed a cluster of its own
        rng = np.random.default_rng(0)
        line = np.column_stack([np.linspace(0.0, 3.0, 30), np.zeros(30)])
        X = np.vstack([line, rng.uniform(-5.0, 5.0, size=(5, 2))])
        pd = PreDeCon(min_pts=1, max_preference_dim=1).fit(X)
        ineligible = [i for i, dims in enumerate(pd.preference_dims_)
                      if len(dims) != 1]
        assert set(range(31, 35)) <= set(ineligible)
        assert pd.labels_[31:].tolist() == [-1] * 4
        assert pd.labels_[:30].tolist() == [0] * 30
        for cid in range(int(pd.labels_.max()) + 1):
            members = np.flatnonzero(pd.labels_ == cid)
            assert any(i not in ineligible for i in members)
