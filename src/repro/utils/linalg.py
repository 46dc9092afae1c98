"""Small linear-algebra and distance kernels used across the library."""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "pairwise_sq_distances",
    "pairwise_distances",
    "cdist_sq",
    "row_sq_norms",
    "mahalanobis_sq",
    "orthonormal_basis",
    "orthogonal_complement_projector",
    "logsumexp",
    "rbf_kernel",
    "center_kernel",
    "distance_contrast",
]


def row_sq_norms(A):
    """``|a|^2`` of each row of ``A``, as :func:`cdist_sq` computes it."""
    A = np.asarray(A, dtype=np.float64)
    return (A * A).sum(axis=1)


def cdist_sq(A, B, *, a_sq=None):
    """Squared Euclidean distances between rows of ``A`` and rows of ``B``.

    Uses the expansion ``|a-b|^2 = |a|^2 + |b|^2 - 2 a.b`` with clipping to
    guard against negative round-off. A caller that measures many ``B``
    against one ``A`` passes ``a_sq=row_sq_norms(A)`` once; the result
    is bit-identical.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    aa = row_sq_norms(A) if a_sq is None else a_sq
    bb = row_sq_norms(B)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def pairwise_sq_distances(X):
    """All-pairs squared Euclidean distances of the rows of ``X``.

    Exactly symmetric: ``X`` is converted once, so the Gram product
    sees one operand twice (converted separately, as from float32, the
    two triangles of a general product can differ in the last bit).
    """
    X = np.asarray(X, dtype=np.float64)
    d2 = cdist_sq(X, X)
    np.fill_diagonal(d2, 0.0)
    return d2


def pairwise_distances(X):
    """All-pairs Euclidean distances of the rows of ``X``."""
    return np.sqrt(pairwise_sq_distances(X))


def mahalanobis_sq(X, mean, B):
    """Squared Mahalanobis distance ``(x-m)^T B (x-m)`` for each row of X.

    ``B`` must be a symmetric positive semi-definite matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    diff = X - np.asarray(mean, dtype=np.float64)[None, :]
    return np.einsum("ij,jk,ik->i", diff, B, diff)


def orthonormal_basis(V, tol=1e-10):
    """Orthonormal basis of the column span of ``V`` via SVD.

    Returns an array of shape ``(d, r)`` where ``r`` is the numerical rank.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[1] == 0:
        return np.zeros((V.shape[0], 0))
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    rank = int(np.sum(s > tol * max(V.shape) * (s[0] if s.size else 1.0)))
    return U[:, :rank]


def orthogonal_complement_projector(A):
    """Projector onto the orthogonal complement of the column span of ``A``.

    This is the matrix ``M = I - A (A^T A)^{-1} A^T`` from Cui et al. (2007),
    computed stably through an orthonormal basis.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    d = A.shape[0]
    Q = orthonormal_basis(A)
    return np.eye(d) - Q @ Q.T


def logsumexp(a, axis=None):
    """Numerically stable ``log(sum(exp(a)))``."""
    a = np.asarray(a, dtype=np.float64)
    amax = a.max(axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.exp(a - amax).sum(axis=axis, keepdims=True)) + amax
    if axis is None:
        return float(out.ravel()[0])
    return np.squeeze(out, axis=axis)


def rbf_kernel(X, gamma=None):
    """Gaussian RBF kernel matrix ``exp(-gamma |x-y|^2)``.

    When ``gamma`` is ``None`` the median-distance heuristic is used:
    the median positive squared distance. It is taken over the strict
    upper triangle; the full matrix holds each of those values twice,
    so its median is the same number.
    """
    d2 = pairwise_sq_distances(X)
    if gamma is None:
        r = np.arange(d2.shape[0])
        pos = d2[(r[:, None] < r) & (d2 > 0)]
        med = np.median(pos) if pos.size else 1.0
        # below the smallest normal float 1 / (2 med) overflows to inf
        # and inf * 0 puts NaN on the diagonal; such distances count as 0
        gamma = (1.0 / (2.0 * med) if med > np.finfo(np.float64).tiny
                 else 1.0)
    return np.exp(-gamma * d2)


def center_kernel(K):
    """Double-centre a kernel matrix: ``H K H`` with ``H = I - 11^T/n``."""
    K = np.asarray(K, dtype=np.float64)
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValidationError("kernel matrix must be square")
    row_mean = K.mean(axis=0, keepdims=True)
    col_mean = K.mean(axis=1, keepdims=True)
    return K - row_mean - col_mean + K.mean()


def distance_contrast(X):
    """Relative distance contrast ``(dmax - dmin) / dmin`` averaged over points.

    This is the quantity of Beyer et al. (1999) quoted on slide 12 of the
    tutorial: it tends to zero as the dimensionality of i.i.d. data grows
    (the "curse of dimensionality").
    """
    d = pairwise_distances(X)
    n = d.shape[0]
    if n < 3:
        raise ValidationError("distance_contrast needs at least 3 points")
    eye = np.eye(n, dtype=bool)
    d_masked = np.where(eye, np.inf, d)
    dmin = d_masked.min(axis=1)
    dmax = np.where(eye, -np.inf, d).max(axis=1)
    valid = dmin > 0
    if not valid.any():
        return 0.0
    return float(np.mean((dmax[valid] - dmin[valid]) / dmin[valid]))
