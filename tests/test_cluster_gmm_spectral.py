"""Unit tests for GaussianMixtureEM and SpectralClustering."""

import numpy as np
import pytest

from repro.cluster import (
    GaussianMixtureEM,
    SpectralClustering,
    normalized_laplacian,
    spectral_embedding,
)
from repro.cluster import spectral
from repro.cluster.gmm import e_step, gaussian_log_density, m_step
from repro.data import make_multiple_truths
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.metrics import adjusted_rand_index
from repro.multiview import MultipleSpectralViews, MultiViewSpectral
from repro.observability import Tracer
from repro.utils.linalg import rbf_kernel

from .test_kernel_oracles import dense_embedding


class TestGaussianDensity:
    def test_standard_normal_at_zero(self):
        X = np.zeros((1, 2))
        ld = gaussian_log_density(X, np.zeros(2), 1.0, "spherical")
        assert np.isclose(ld[0], -np.log(2 * np.pi))

    def test_covariance_types_agree_on_isotropic(self, rng):
        X = rng.standard_normal((10, 3))
        mean = np.zeros(3)
        sph = gaussian_log_density(X, mean, 2.0, "spherical")
        diag = gaussian_log_density(X, mean, np.full(3, 2.0), "diag")
        full = gaussian_log_density(X, mean, 2.0 * np.eye(3), "full")
        assert np.allclose(sph, diag, atol=1e-6)
        assert np.allclose(sph, full, atol=1e-3)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_log_density(np.zeros((1, 2)), np.zeros(2), 1.0, "huh")


class TestEMSteps:
    def test_e_step_resp_rows_sum_to_one(self, blobs3):
        X, _ = blobs3
        weights = np.array([0.5, 0.5])
        means = X[:2].copy()
        covs = np.array([1.0, 1.0])
        resp, ll = e_step(X, weights, means, covs, "spherical")
        assert np.allclose(resp.sum(axis=1), 1.0)
        assert np.isfinite(ll)

    def test_m_step_weights_sum_to_one(self, blobs3, rng):
        X, _ = blobs3
        resp = rng.uniform(size=(X.shape[0], 3))
        resp /= resp.sum(axis=1, keepdims=True)
        weights, means, covs = m_step(X, resp, "diag")
        assert np.isclose(weights.sum(), 1.0)
        assert means.shape == (3, X.shape[1])
        assert (covs > 0).all()


class TestGaussianMixtureEM:
    def test_recovers_blobs(self, blobs3):
        X, y = blobs3
        for cov in ("spherical", "diag", "full"):
            gm = GaussianMixtureEM(n_components=3, covariance_type=cov,
                                   random_state=0).fit(X)
            assert adjusted_rand_index(gm.labels_, y) == 1.0, cov

    def test_loglikelihood_improves_with_k(self, blobs3):
        X, _ = blobs3
        ll1 = GaussianMixtureEM(n_components=1, random_state=0).fit(X).log_likelihood_
        ll3 = GaussianMixtureEM(n_components=3, random_state=0).fit(X).log_likelihood_
        assert ll3 > ll1

    def test_responsibilities_shape_and_rows(self, blobs3):
        X, _ = blobs3
        gm = GaussianMixtureEM(n_components=3, random_state=0).fit(X)
        assert gm.responsibilities_.shape == (X.shape[0], 3)
        assert np.allclose(gm.responsibilities_.sum(axis=1), 1.0)

    def test_score_samples(self, blobs3):
        X, _ = blobs3
        gm = GaussianMixtureEM(n_components=3, random_state=0).fit(X)
        score = gm.score_samples(X)
        assert isinstance(score, float) and np.isfinite(score)
        _, total = e_step(X, gm.weights_, gm.means_, gm.covariances_, "full")
        assert score == total / X.shape[0]

    def test_score_before_fit_raises(self):
        with pytest.raises(ValidationError):
            GaussianMixtureEM().score_samples(np.zeros((2, 2)))

    def test_predict_matches_labels_on_train(self, blobs3):
        X, _ = blobs3
        gm = GaussianMixtureEM(n_components=3, random_state=0).fit(X)
        assert np.array_equal(gm.predict(X), gm.labels_)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ValidationError):
            GaussianMixtureEM().predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("method", ["predict", "score_samples"])
    def test_other_feature_count_raises(self, blobs3, method):
        X, _ = blobs3
        gm = GaussianMixtureEM(n_components=3, random_state=0).fit(X)
        # one feature used to broadcast silently, three to fail in NumPy
        for d in (1, 3):
            with pytest.raises(ValidationError,
                               match=f"GaussianMixtureEM: X has {d} features, "
                                     "but the model was fitted on 2"):
                getattr(gm, method)(np.zeros((4, d)))

    def test_reproducible(self, blobs3):
        X, _ = blobs3
        a = GaussianMixtureEM(n_components=3, random_state=7).fit(X).labels_
        b = GaussianMixtureEM(n_components=3, random_state=7).fit(X).labels_
        assert np.array_equal(a, b)


class TestSpectral:
    def test_normalized_laplacian_properties(self, rng):
        X = rng.standard_normal((10, 2))
        from repro.utils.linalg import rbf_kernel
        W = rbf_kernel(X)
        np.fill_diagonal(W, 0.0)
        L = normalized_laplacian(W)
        vals = np.linalg.eigvalsh(L)
        assert vals.min() > -1e-8
        assert vals.max() < 2.0 + 1e-8

    def test_laplacian_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            normalized_laplacian(np.zeros((2, 3)))

    def test_embedding_rows_unit_norm(self, blobs3):
        X, _ = blobs3
        from repro.utils.linalg import rbf_kernel
        W = rbf_kernel(X)
        np.fill_diagonal(W, 0.0)
        emb = spectral_embedding(W, 3)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)

    def test_recovers_blobs(self, blobs3):
        X, y = blobs3
        sc = SpectralClustering(n_clusters=3, random_state=0).fit(X)
        assert adjusted_rand_index(sc.labels_, y) == 1.0

    def test_nonconvex_rings(self):
        # Two concentric rings: k-means fails, spectral succeeds.
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 2 * np.pi, 120)
        r = np.concatenate([np.full(60, 1.0), np.full(60, 4.0)])
        r = r + 0.05 * rng.standard_normal(120)
        X = np.c_[r * np.cos(t), r * np.sin(t)]
        y = np.repeat([0, 1], 60)
        sc = SpectralClustering(n_clusters=2, gamma=2.0, random_state=0).fit(X)
        assert adjusted_rand_index(sc.labels_, y) == 1.0


def embedding_spans(tracer):
    """Attributes of every ``spectral.embedding`` span, in order."""
    found = []

    def walk(spans):
        for span in spans:
            if span.name == "spectral.embedding":
                found.append(span.attrs)
            walk(span.children)

    walk(tracer.spans)
    return found


def planted_affinity(n=90, seed=0):
    X, _, _ = make_multiple_truths(n_samples=n, random_state=seed)
    W = rbf_kernel(X)
    np.fill_diagonal(W, 0.0)
    return X, W


class TestSpectralEmbeddingValidation:
    @pytest.mark.parametrize("n_components", [-1, 0, 31, 2.0, True])
    def test_rejects_n_components_outside_1_to_n(self, n_components):
        _, W = planted_affinity(n=30)
        with pytest.raises(ValidationError, match="n_components"):
            spectral_embedding(W, n_components)

    def test_n_components_equal_to_n_is_allowed(self):
        _, W = planted_affinity(n=30)
        assert spectral_embedding(W, 30).shape == (30, 30)

    def test_rejects_asymmetric_affinity(self):
        _, W = planted_affinity(n=30)
        W[0, 1] += 1e-6
        with pytest.raises(ValidationError, match="not symmetric"):
            spectral_embedding(W, 2)

    def test_near_symmetric_affinity_is_symmetrised(self):
        _, W = planted_affinity()
        skewed = W.copy()
        skewed[0, 1] += 1e-13
        expected = spectral_embedding((skewed + skewed.T) / 2, 2)
        assert np.array_equal(spectral_embedding(skewed, 2), expected)
        assert np.array_equal(spectral_embedding(W, 2),
                              spectral_embedding((W + W.T) / 2, 2))


class TestSpectralSolverPath:
    def test_planted_fits_take_the_block_path(self):
        X, _ = planted_affinity()
        with Tracer() as tracer:
            SpectralClustering(n_clusters=3, random_state=0).fit(X)
            MultipleSpectralViews(n_clusters=2, random_state=0).fit(X)
            MultiViewSpectral(n_clusters=3, random_state=0).fit(
                [X[:, :2], X[:, 2:]])
        spans = embedding_spans(tracer)
        # one SpectralClustering, 2 views x 10 mSC rounds, one consensus
        assert len(spans) == 22
        assert {a["solver"] for a in spans} == {"block"}
        assert all(1 <= a["steps"] <= spectral._MAX_STEPS for a in spans)

    def test_small_n_takes_eigh_without_block_steps(self):
        _, W = planted_affinity(n=24)
        with Tracer() as tracer:
            U = spectral_embedding(W, 2)
        assert embedding_spans(tracer) == [{"solver": "eigh", "steps": 0}]
        assert np.array_equal(U, dense_embedding(W, 2))

    def test_uncertified_block_falls_back_to_dense_eigh(self, monkeypatch):
        _, W = planted_affinity()
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", -1.0)
        with Tracer() as tracer:
            U = spectral_embedding(W, 3)
        assert embedding_spans(tracer) == [
            {"solver": "eigh", "steps": spectral._MAX_STEPS}]
        assert np.array_equal(U, dense_embedding(W, 3))

    def test_eigh_failure_falls_back_to_svd(self, monkeypatch):
        _, W = planted_affinity()

        def failing_eigh(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with Tracer() as tracer:
            with pytest.warns(ConvergenceWarning, match="SVD"):
                U = spectral_embedding(W, 3)
        [attrs] = embedding_spans(tracer)
        assert attrs["solver"] == "svd"
        assert U.shape == (90, 3)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0)

    def test_solver_leaves_the_callers_stream_alone(self, monkeypatch):
        from repro.cluster import kmeans

        seeds = []

        class RecordingKMeans(kmeans.KMeans):
            def __init__(self, **params):
                seeds.append(params["random_state"])
                super().__init__(**params)

        monkeypatch.setattr(kmeans, "KMeans", RecordingKMeans)
        X, _ = planted_affinity()
        np.random.seed(5)
        before = np.random.get_state()[1].copy()
        for s in (0, 1, 7):
            SpectralClustering(n_clusters=3, random_state=s).fit(X)
        assert seeds == [np.random.default_rng(s).integers(2**31 - 1)
                         for s in (0, 1, 7)]
        assert np.array_equal(np.random.get_state()[1], before)
