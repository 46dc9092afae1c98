"""Unit tests for repro.utils.linalg."""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from repro.exceptions import ValidationError
from repro.utils.linalg import (
    cdist_sq,
    center_kernel,
    distance_contrast,
    logsumexp,
    mahalanobis_sq,
    orthogonal_complement_projector,
    orthonormal_basis,
    pairwise_distances,
    pairwise_sq_distances,
    rbf_kernel,
)


class TestDistances:
    def test_cdist_matches_naive(self, rng):
        A = rng.standard_normal((10, 3))
        B = rng.standard_normal((7, 3))
        d2 = cdist_sq(A, B)
        naive = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
        assert np.allclose(d2, naive)

    def test_nonnegative(self, rng):
        A = rng.standard_normal((20, 5)) * 1e-8
        assert (cdist_sq(A, A) >= 0).all()

    def test_pairwise_diagonal_zero(self, rng):
        X = rng.standard_normal((8, 2))
        d2 = pairwise_sq_distances(X)
        assert np.allclose(np.diag(d2), 0.0)
        assert np.allclose(d2, d2.T)

    def test_pairwise_distances_sqrt(self, rng):
        X = rng.standard_normal((6, 2))
        assert np.allclose(pairwise_distances(X) ** 2,
                           pairwise_sq_distances(X))


class TestMahalanobis:
    def test_identity_matches_euclidean(self, rng):
        X = rng.standard_normal((10, 3))
        mean = np.zeros(3)
        m = mahalanobis_sq(X, mean, np.eye(3))
        assert np.allclose(m, (X ** 2).sum(axis=1))

    def test_scaling(self):
        X = np.array([[2.0, 0.0]])
        B = np.diag([4.0, 1.0])
        assert np.isclose(mahalanobis_sq(X, np.zeros(2), B)[0], 16.0)


class TestBases:
    def test_orthonormal_basis_spans(self, rng):
        V = rng.standard_normal((5, 2))
        Q = orthonormal_basis(V)
        assert Q.shape == (5, 2)
        assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-10)

    def test_rank_deficient(self):
        V = np.ones((4, 3))  # rank 1
        Q = orthonormal_basis(V)
        assert Q.shape == (4, 1)

    def test_complement_projector(self, rng):
        A = rng.standard_normal((6, 2))
        M = orthogonal_complement_projector(A)
        # Projector: idempotent, symmetric, annihilates span(A).
        assert np.allclose(M @ M, M, atol=1e-10)
        assert np.allclose(M, M.T, atol=1e-10)
        assert np.allclose(M @ A, 0.0, atol=1e-10)
        assert np.isclose(np.trace(M), 4.0)


class TestLogsumexp:
    def test_matches_scipy(self, rng):
        a = rng.standard_normal((5, 7)) * 50
        assert np.allclose(logsumexp(a, axis=1), scipy_logsumexp(a, axis=1))
        assert np.isclose(logsumexp(a), scipy_logsumexp(a))

    def test_extreme_values(self):
        a = np.array([-1e308, -1e308])
        assert np.isfinite(logsumexp(a))


class TestKernels:
    def test_rbf_diagonal_one(self, rng):
        X = rng.standard_normal((10, 2))
        K = rbf_kernel(X)
        assert np.allclose(np.diag(K), 1.0)
        assert (K <= 1.0 + 1e-12).all() and (K > 0).all()

    def test_rbf_subnormal_distances_stay_finite(self):
        # a median squared distance of ~7e-321 used to make gamma inf
        # and the diagonal NaN
        K = rbf_kernel(np.array([[8.5e-161], [0.0]]))
        assert np.isfinite(K).all()
        assert np.array_equal(np.diag(K), [1.0, 1.0])

    def test_rbf_explicit_gamma(self):
        X = np.array([[0.0], [1.0]])
        K = rbf_kernel(X, gamma=2.0)
        assert np.isclose(K[0, 1], np.exp(-2.0))

    def test_center_kernel_row_sums_zero(self, rng):
        X = rng.standard_normal((8, 2))
        Kc = center_kernel(rbf_kernel(X))
        assert np.allclose(Kc.sum(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Kc.sum(axis=1), 0.0, atol=1e-10)

    def test_center_kernel_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            center_kernel(np.zeros((2, 3)))


class TestDistanceContrast:
    def test_decreases_with_dimensionality(self):
        rng = np.random.default_rng(0)
        contrasts = []
        for d in (2, 20, 200):
            X = rng.uniform(size=(100, d))
            contrasts.append(distance_contrast(X))
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_needs_three_points(self):
        with pytest.raises(ValidationError):
            distance_contrast(np.zeros((2, 2)))
