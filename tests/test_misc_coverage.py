"""Coverage for the remaining public surface: report generation,
objective helpers, EM initialisation, subspace-pair normalisation, and
the exception hierarchy."""

import io

import numpy as np
import pytest

from repro.cluster.gmm import init_params_kmeanspp
from repro.core import quality_silhouette
from repro.core.base import MultiClusteringEstimator
from repro.exceptions import (
    ConvergenceWarning,
    MultiClustError,
    NotFittedError,
    ValidationError,
)
from repro.experiments.exp_core import taxonomy_text
from repro.experiments.report import CLAIMS, generate_report
from repro.metrics.subspace import as_object_dim_pairs


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(NotFittedError, MultiClustError)
        assert issubclass(ValidationError, MultiClustError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(ConvergenceWarning, UserWarning)

    def test_catchable_as_base(self):
        with pytest.raises(MultiClustError):
            raise ValidationError("x")


class TestReportGeneration:
    def test_subset_report(self):
        text = generate_report(keys={"T1", "F6"})
        assert "## T1" in text
        assert "## F6" in text
        assert "## F9" not in text
        assert "paper claims vs. measured" in text.lower() or \
            "paper claims vs. measured results" in text

    def test_stream_written(self):
        buf = io.StringIO()
        text = generate_report(stream=buf, keys={"T1"})
        assert buf.getvalue() == text

    def test_claims_cover_all_figures(self):
        assert set(CLAIMS) == {"T1"} | {f"F{i}" for i in range(1, 17)}

    def test_taxonomy_text(self):
        text = taxonomy_text()
        assert "coala" in text and "clique" in text


class TestObjectiveHelpers:
    def test_quality_silhouette_matches_metric(self, blobs3):
        from repro.metrics import silhouette_score
        X, y = blobs3
        assert quality_silhouette(X, y) == silhouette_score(X, y)


class TestEMInit:
    def test_init_params_shapes(self, blobs3, rng):
        X, _ = blobs3
        for cov_type, cov_shape in (
            ("spherical", (3,)),
            ("diag", (3, X.shape[1])),
            ("full", (3, X.shape[1], X.shape[1])),
        ):
            weights, means, covs = init_params_kmeanspp(X, 3, rng, cov_type)
            assert np.isclose(weights.sum(), 1.0)
            assert means.shape == (3, X.shape[1])
            assert np.asarray(covs).shape == cov_shape


class TestSubspacePairs:
    def test_accepts_mixed_forms(self):
        from repro.core import SubspaceCluster
        pairs = as_object_dim_pairs([
            SubspaceCluster([0, 1], [2]),
            ([3], [0, 1]),
        ])
        assert pairs[0] == (frozenset({0, 1}), frozenset({2}))
        assert pairs[1] == (frozenset({3}), frozenset({0, 1}))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            as_object_dim_pairs([(set(), {0})])


class TestMultiEstimatorBase:
    def test_clusterings_property_requires_fit(self):
        class Dummy(MultiClusteringEstimator):
            def fit(self, X):
                self.labelings_ = [np.zeros(len(X), dtype=np.int64)]
                return self

        d = Dummy()
        with pytest.raises(NotFittedError):
            _ = d.clusterings_
        d.fit(np.zeros((3, 1)))
        assert d.n_clusterings_ == 1
        assert d.clusterings_[0].n_objects == 3
