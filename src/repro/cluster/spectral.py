"""Normalised spectral clustering (Ng, Jordan & Weiss 2001).

Substrate of mSC (Niu & Dy 2010, slide 90). The embedding step is
exposed separately (:func:`spectral_embedding`) because mSC iterates it
under an HSIC penalty; SpectralClustering, mSC and MultiViewSpectral
all embed through it.

The embedding needs only the top ``k`` eigenvectors of
``M = D^{-1/2} W D^{-1/2}``, so it finds them by block subspace
iteration with Rayleigh-Ritz, ``O(n^2 b)`` per step for a block of
``b`` columns, and keeps the result only when a residual certificate
bounds its angle to the true top-``k`` eigenspace. Every other case
takes the dense path: ``eigh`` of the normalised Laplacian, then a
dense SVD if ``eigh`` fails.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.base import BaseClusterer
from ..exceptions import ConvergenceWarning, ValidationError
from ..observability.telemetry import record_convergence
from ..observability.tracer import trace_span, traced_fit
from ..utils.linalg import rbf_kernel
from ..utils.validation import check_array, check_n_clusters, check_random_state

__all__ = ["SpectralClustering", "spectral_embedding", "normalized_laplacian"]

#: seed of the block solver's own start block; the caller's random
#: stream is never drawn from
_START_SEED = 20100915

#: subspace-iteration steps before the block solver gives up
_MAX_STEPS = 30

#: bound on each top-k Ritz residual ``|M u - theta u|`` (``|M| <= 1``)
_RESIDUAL_TOL = 1e-12

#: bound on max residual / Ritz gap, the Davis-Kahan bound on the
#: angle between the Ritz space and the true top-k eigenspace
_ANGLE_TOL = 1e-10

#: the block solver gives up once max residual + Ritz gap is at most
#: this: certifying would need a residual of ``_ANGLE_TOL`` times it
_TIE_TOL = 1e-6


def _normalized_affinity(W):
    """``M = D^{-1/2} W D^{-1/2}`` of a validated symmetric affinity.

    ``W`` must be square and finite, and symmetric to within
    ``1e-12 * max|W|``; within that tolerance ``(W + W^T) / 2`` is used,
    which leaves an exactly symmetric ``W`` unchanged.
    """
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    if W.ndim != 2 or W.shape != (n, n):
        raise ValidationError("affinity matrix must be square")
    if not np.isfinite(W).all():
        raise ValidationError("affinity matrix contains NaN or infinite values")
    if not np.array_equal(W, W.T):
        asym = np.max(np.abs(W - W.T))
        if asym > 1e-12 * np.max(np.abs(W)):
            raise ValidationError(
                "affinity matrix is not symmetric "
                f"(max |W - W.T| = {asym:.3g})")
        W = (W + W.T) / 2
    deg = W.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
    return (inv_sqrt[:, None] * W) * inv_sqrt[None, :]


def normalized_laplacian(W):
    """Symmetric normalised Laplacian ``I - D^{-1/2} W D^{-1/2}``."""
    M = _normalized_affinity(W)
    return np.eye(M.shape[0]) - M


def _block_eigenvectors(M, k):
    """Certified top-``k`` eigenvectors of ``M`` by block subspace
    iteration, or ``None``; returns ``(vectors, steps)``.

    The block has ``b = max(k + 5, 8)`` columns and starts from a
    fixed-seed Gaussian draw. Each step multiplies by ``M``, takes the
    Ritz pairs of the block (Rayleigh-Ritz) and re-orthonormalises with
    QR. The top ``k`` Ritz vectors are returned once every residual is
    at most ``_RESIDUAL_TOL``, the gap ``g = theta_k - theta_{k+1}`` is
    positive, and max residual / ``g`` is at most ``_ANGLE_TOL``. The
    iteration favours eigenvalues of large magnitude, so the block is
    also refused while a Ritz value lies at or below ``-theta_k``: a
    negative eigenvalue that large could crowd a top-``k`` eigenvector
    out of the block. A block of a third of ``n`` or more is not tried.

    A repeated eigenvalue at position ``k`` never certifies, so the
    solver gives up once the max residual ``r`` plus ``g`` is at most
    ``_TIE_TOL``: ``theta_k`` is within ``r`` of an eigenvalue and
    ``theta_{k+1} <= lambda_{k+1}`` (interlacing), so eigenvalues ``k``
    and ``k + 1`` are at most ``r + g`` apart, and certifying would need
    a residual of at most 1e-16, below the unit roundoff of ``M @ Q``.
    """
    n = M.shape[0]
    b = max(k + 5, 8)
    if 3 * b >= n:
        return None, 0
    start = np.random.default_rng(_START_SEED).standard_normal((n, b))
    step = 0
    try:
        Q, _ = np.linalg.qr(start)
        for step in range(1, _MAX_STEPS + 1):
            MQ = M @ Q
            H = Q.T @ MQ
            theta, S = np.linalg.eigh((H + H.T) / 2)
            theta, S = theta[::-1], S[:, ::-1]
            MU = MQ @ S
            U = Q @ S
            R = MU[:, :k] - U[:, :k] * theta[:k]
            residual = np.sqrt(np.einsum("ij,ij->j", R, R).max())
            gap = theta[k - 1] - theta[k]
            if (residual <= _RESIDUAL_TOL and gap > 0
                    and residual <= _ANGLE_TOL * gap
                    and theta[-1] > -theta[k - 1]):
                return U[:, :k], step
            if residual + gap <= _TIE_TOL:
                break  # (near-)repeated eigenvalue at k: cannot certify
            Q, _ = np.linalg.qr(MU)
    except np.linalg.LinAlgError:
        pass  # a failed small solve gives up like an uncertified block
    return None, step


def _dense_eigenvectors(M, k):
    """Eigenvectors of the ``k`` smallest eigenvalues of ``I - M``:
    ``eigh``, or a dense SVD when ``eigh`` fails; returns
    ``(vectors, solver)``."""
    L = np.eye(M.shape[0]) - M
    try:
        vals, vecs = np.linalg.eigh(L)
        solver = "eigh"
    except np.linalg.LinAlgError:
        # Graceful degradation: eigh's iteration can fail to converge on
        # pathological Laplacians. L is symmetric PSD, so its singular
        # vectors (dense SVD, a different and more robust algorithm)
        # coincide with its eigenvectors.
        warnings.warn(
            "eigh failed to converge on the normalised Laplacian; "
            "falling back to a dense SVD solver",
            ConvergenceWarning, stacklevel=3,
        )
        vecs, vals, _ = np.linalg.svd(L)
        solver = "svd"
    order = np.argsort(vals)
    return vecs[:, order[:k]], solver


def spectral_embedding(W, n_components):
    """Row-normalised eigenvector embedding of the normalised Laplacian.

    Returns an (n, n_components) matrix whose rows are the NJW
    embedding: the top ``n_components`` eigenvectors of
    ``M = D^{-1/2} W D^{-1/2}`` (the bottom ones of ``I - M``), each row
    scaled to unit norm. They come from the certified block solver when
    its certificate holds, otherwise from the dense ``eigh`` path, then
    SVD. The ``spectral.embedding`` trace span records the path taken as
    ``solver`` (``block``, ``eigh`` or ``svd``) and the block steps run
    as ``steps``.

    Raises
    ------
    ValidationError
        Unless ``1 <= n_components <= n`` and ``W`` is a finite square
        matrix, symmetric to within ``1e-12 * max|W|``.
    """
    with trace_span("spectral.embedding") as span:
        M = _normalized_affinity(W)
        n = M.shape[0]
        if (isinstance(n_components, bool)
                or not isinstance(n_components, (int, np.integer))
                or not 1 <= n_components <= n):
            raise ValidationError(
                f"n_components must be an integer in [1, {n}], "
                f"got {n_components!r}")
        k = int(n_components)
        U, steps = _block_eigenvectors(M, k)
        solver = "block"
        if U is None:
            U, solver = _dense_eigenvectors(M, k)
        if span is not None:
            span.attrs.update(solver=solver, steps=steps)
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return U / norms


class SpectralClustering(BaseClusterer):
    """NJW spectral clustering with an RBF affinity.

    Parameters
    ----------
    n_clusters : int
    gamma : float or None
        RBF affinity bandwidth; median heuristic when ``None``.
    random_state : int, Generator or None
        Seeds the k-means step on the embedding.

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
    embedding_ : ndarray of shape (n_samples, n_clusters)
    affinity_matrix_ : ndarray
    n_iter_ : int — Lloyd iterations of the embedded k-means step.
    convergence_trace_ : list of ConvergenceEvent
        Inertia trace of the embedded k-means step (nonincreasing).
    """

    def __init__(self, n_clusters=2, gamma=None, random_state=None):
        self.n_clusters = n_clusters
        self.gamma = gamma
        self.random_state = random_state
        self.labels_ = None
        self.embedding_ = None
        self.affinity_matrix_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X):
        from .kmeans import KMeans

        X = self._check_array(X, min_samples=2)
        k = check_n_clusters(self.n_clusters, X.shape[0])
        rng = check_random_state(self.random_state)
        with trace_span("affinity"):
            W = rbf_kernel(X, gamma=self.gamma)
            np.fill_diagonal(W, 0.0)
        emb = spectral_embedding(W, k)
        km = KMeans(n_clusters=k, n_init=10,
                    random_state=rng.integers(2**31 - 1))
        self.labels_ = km.fit(emb).labels_
        self.embedding_ = emb
        self.affinity_matrix_ = W
        self.n_iter_ = km.n_iter_
        record_convergence(self, km.convergence_trace_)
        return self
