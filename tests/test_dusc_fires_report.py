"""Tests for DUSC, FIRES, and the MultipleClusteringReport."""

import numpy as np
import pytest

from repro.data import make_four_squares, make_subspace_data, make_uniform
from repro.exceptions import ValidationError
from repro.metrics import (
    MultipleClusteringReport,
    pair_f1_subspace,
    solution_truth_matrix,
)
from repro.subspace import DUSC, FIRES, SUBCLU, expected_neighbors_uniform


class TestExpectedNeighbors:
    def test_product_rule(self):
        # two dims with range 10, eps 1 -> p = 0.2 per dim
        e = expected_neighbors_uniform(100, 1.0, [10.0, 10.0])
        assert np.isclose(e, 100 * 0.04)

    def test_caps_probability_at_one(self):
        e = expected_neighbors_uniform(100, 50.0, [10.0])
        assert np.isclose(e, 100.0)

    def test_zero_range_ignored(self):
        e = expected_neighbors_uniform(100, 1.0, [0.0, 10.0])
        assert np.isclose(e, 20.0)


class TestDUSC:
    def test_finds_planted_clusters(self, planted_subspaces):
        X, hidden = planted_subspaces
        dusc = DUSC(eps=0.8, factor=2.0, max_dim=2).fit(X)
        assert pair_f1_subspace(dusc.clusters_, hidden) > 0.8
        planted = {h.dim_tuple() for h in hidden}
        assert planted <= set(dusc.clusters_.subspaces())

    def test_threshold_decreases_with_dimensionality(self, planted_subspaces):
        X, _ = planted_subspaces
        dusc = DUSC(eps=0.8, factor=2.0, max_dim=2).fit(X)
        assert dusc.core_thresholds_[2] < dusc.core_thresholds_[1]

    def test_uniform_data_mostly_empty(self):
        X = make_uniform(200, 4, low=0.0, high=10.0, random_state=0)
        dusc = DUSC(eps=0.8, factor=2.0, max_dim=2).fit(X)
        # nothing should be twice as dense as the uniform expectation
        assert len(dusc.clusters_) <= 2

    def test_unbiased_vs_fixed_threshold(self, planted_subspaces):
        """The paper's point: a fixed min_pts tuned for 1-d misses the
        2-d clusters, while DUSC's normalised factor finds them."""
        X, hidden = planted_subspaces
        dusc = DUSC(eps=0.8, factor=2.0, max_dim=2).fit(X)
        fixed = SUBCLU(eps=0.8, min_pts=dusc.core_thresholds_[1],
                       max_dim=2).fit(X)
        planted = {h.dim_tuple() for h in hidden}
        assert planted <= set(dusc.clusters_.subspaces())
        assert not planted <= set(fixed.clusters_.subspaces())

    def test_invalid_params(self, planted_subspaces):
        X, _ = planted_subspaces
        with pytest.raises(ValidationError):
            DUSC(eps=0.0).fit(X)
        with pytest.raises(ValidationError):
            DUSC(factor=0.0).fit(X)


class TestFIRES:
    def test_merges_base_clusters_into_subspaces(self, planted_subspaces):
        X, hidden = planted_subspaces
        fires = FIRES(eps=0.8, min_pts=8, merge_threshold=0.4).fit(X)
        assert pair_f1_subspace(fires.clusters_, hidden) > 0.7
        # at least one planted 2-d concept reconstructed from 1-d bases
        planted = {h.dim_tuple() for h in hidden}
        assert planted & set(fires.clusters_.subspaces())

    def test_base_clusters_are_one_dimensional(self, planted_subspaces):
        X, _ = planted_subspaces
        fires = FIRES(eps=0.8, min_pts=8).fit(X)
        assert all(c.dimensionality == 1 for c in fires.base_clusters_)

    def test_components_bounded_by_base(self, planted_subspaces):
        X, _ = planted_subspaces
        fires = FIRES(eps=0.8, min_pts=8).fit(X)
        assert fires.n_components_ <= max(len(fires.base_clusters_), 1)

    def test_dbscan_base_mode(self):
        # sparse data: few tight 1-d clusters, no dense background
        X, hidden = make_subspace_data(
            n_samples=120, n_features=4,
            clusters=[(60, (0, 1))], cluster_std=0.2,
            noise_low=0.0, noise_high=60.0, random_state=0)
        fires = FIRES(eps=1.0, min_pts=8, base="dbscan",
                      merge_threshold=0.4).fit(X)
        assert len(fires.base_clusters_) >= 1

    def test_unknown_base_rejected(self, planted_subspaces):
        X, _ = planted_subspaces
        with pytest.raises(ValidationError):
            FIRES(base="magic").fit(X)

    def test_faster_than_lattice_on_wide_data(self):
        import time
        X, _ = make_subspace_data(
            n_samples=200, n_features=16,
            clusters=[(70, (0, 1)), (70, (2, 3))],
            cluster_std=0.4, random_state=1)
        t0 = time.perf_counter()
        FIRES(eps=0.8, min_pts=8).fit(X)
        t_fires = time.perf_counter() - t0
        t0 = time.perf_counter()
        SUBCLU(eps=0.8, min_pts=8, max_dim=3).fit(X)
        t_subclu = time.perf_counter() - t0
        assert t_fires < t_subclu


class TestMultipleClusteringReport:
    def test_perfect_recovery(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport([lh, lv], [lv, lh])
        assert rep.recovery_rate() == 1.0
        assert rep.recovered_truths() == [0, 1]
        assert rep.redundancy() < 0.1

    def test_redundant_solutions_detected(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport([lh, lh], [lh, lv])
        assert rep.recovery_rate() == 0.5
        assert rep.redundancy() > 0.9

    def test_matrix_shape_and_assignment(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport([lh, lv, lh], [lh, lv])
        assert rep.matrix_.shape == (3, 2)
        assert len(rep.assignment_) == 2  # min(solutions, truths)

    def test_best_score_per_truth(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport([lh], [lh, lv])
        best = rep.best_score_per_truth()
        assert best[0] > 0.99
        assert best[1] < 0.2

    def test_render_and_summary(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport([lh, lv], [lh, lv])
        text = rep.render()
        assert "recovery rate" in text
        summary = rep.summary()
        assert summary["n_solutions"] == 2
        assert summary["recovery_rate"] == 1.0

    def test_mismatched_objects_rejected(self, four_squares):
        X, lh, lv = four_squares
        with pytest.raises(ValidationError):
            solution_truth_matrix([lh], [lv[:-1]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            solution_truth_matrix([], [[0, 1]])

    def test_float_labels_rejected(self):
        a = np.array([0, 0, 1, 1, 0, 1])
        with pytest.raises(ValidationError, match="integers"):
            MultipleClusteringReport([[0.5, 0.5, 1.5, 1.5, 0.5, 1.5], a],
                                     [a])

    def test_generator_solutions(self, four_squares):
        X, lh, lv = four_squares
        rep = MultipleClusteringReport((s for s in [lh, lv]), [lv, lh])
        assert rep.matrix_.shape == (2, 2)
        assert rep.recovery_rate() == 1.0
