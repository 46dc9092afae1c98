"""Lloyd's k-means with k-means++ initialisation and restarts.

The tutorial's running example of traditional single-solution clustering
(slide 3). Also the substrate inside PROCLUS, Decorrelated k-means'
ancestry, the orthogonal-projection pipeline, and several benches.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.base import BaseClusterer
from ..exceptions import ConvergenceWarning, ValidationError
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
from ..utils.linalg import cdist_sq, row_sq_norms
from ..utils.validation import (
    check_count,
    check_n_clusters,
    check_random_state,
)

__all__ = ["KMeans", "kmeans_plus_plus"]


def kmeans_plus_plus(X, n_clusters, rng):
    """k-means++ seeding: return ``n_clusters`` initial centroids."""
    n = X.shape[0]
    x_sq = row_sq_norms(X)
    centers = np.empty((n_clusters, X.shape[1]))
    first = rng.integers(n)
    centers[0] = X[first]
    closest = cdist_sq(X, centers[:1], a_sq=x_sq).ravel()
    for c in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with chosen centers.
            idx = rng.integers(n)
        else:
            # The draw ``rng.choice(n, p=closest / total)`` makes, without
            # its argument checks: the same index and generator state.
            cdf = (closest / total).cumsum()
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        centers[c] = X[idx]
        closest = np.minimum(
            closest, cdist_sq(X, centers[c:c + 1], a_sq=x_sq).ravel())
    return centers


def _assign(X, x_sq, centers):
    """Nearest center of each row and its squared distance."""
    d2 = cdist_sq(X, centers, a_sq=x_sq)
    return d2.argmin(axis=1), d2.min(axis=1)


def _update_centers(X, labels, nearest, k):
    """Mean of each cluster's rows; an empty cluster is re-seeded at the
    row farthest from its center (``nearest`` is each row's squared
    distance to it)."""
    d = X.shape[1]
    counts = np.bincount(labels, minlength=k)
    # entry (i, j) of X sums into bin labels[i] * d + j of a flat (k, d)
    # table
    sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(),
                       weights=X.ravel(), minlength=k * d).reshape(k, d)
    empty = counts == 0
    if empty.any():
        sums[empty] = X[np.argmax(nearest)]
        counts[empty] = 1
    return sums / counts[:, None]


class KMeans(BaseClusterer):
    """Standard k-means.

    Parameters
    ----------
    n_clusters : int
        Number of clusters ``k``.
    n_init : int
        Independent restarts; the lowest-inertia run wins.
    max_iter : int
        Lloyd iterations per restart.
    tol : float
        Relative inertia-improvement threshold for convergence.
    init : {"k-means++", "random"} or ndarray
        Seeding strategy, or explicit initial centers of shape (k, d).
    random_state : int, Generator or None
        Seed for reproducibility.

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
    cluster_centers_ : ndarray of shape (n_clusters, n_features)
    inertia_ : float
        Final sum of squared distances to the assigned centers.
    n_iter_ : int
        Iterations of the winning restart.
    convergence_trace_ : list of ConvergenceEvent
        Per-iteration ``(iteration, inertia, delta)`` of the winning
        restart; nonincreasing by Lloyd's guarantee.
    """

    def __init__(self, n_clusters=8, n_init=10, max_iter=300, tol=1e-6,
                 init="k-means++", random_state=None):
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.init = init
        self.random_state = random_state
        self.labels_ = None
        self.cluster_centers_ = None
        self.inertia_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    def _initial_centers(self, X, rng):
        if isinstance(self.init, np.ndarray):
            centers = np.asarray(self.init, dtype=np.float64)
            if centers.shape != (self.n_clusters, X.shape[1]):
                raise ValidationError(
                    f"explicit init must have shape "
                    f"({self.n_clusters}, {X.shape[1]}), got {centers.shape}"
                )
            return centers.copy()
        if self.init == "k-means++":
            return kmeans_plus_plus(X, self.n_clusters, rng)
        if self.init == "random":
            idx = rng.choice(X.shape[0], size=self.n_clusters, replace=False)
            return X[idx].copy()
        raise ValidationError(f"unknown init {self.init!r}")

    @staticmethod
    def _lloyd(X, centers, max_iter, tol):
        k = centers.shape[0]
        x_sq = row_sq_norms(X)
        prev_inertia = np.inf
        n_iter = 0
        converged = False
        for n_iter in range(1, max_iter + 1):
            labels, nearest = _assign(X, x_sq, centers)
            inertia = float(nearest.sum())
            budget_tick(objective=inertia)
            centers = _update_centers(X, labels, nearest, k)
            # The first pass has no previous objective (inf sentinel, and
            # inf <= tol*inf would hold) — never declare convergence on it.
            if (np.isfinite(prev_inertia)
                    and prev_inertia - inertia <= tol * max(prev_inertia,
                                                            1e-12)):
                prev_inertia = inertia
                converged = True
                break
            prev_inertia = inertia
        # Final assignment against the updated centers.
        labels, nearest = _assign(X, x_sq, centers)
        return labels, centers, float(nearest.sum()), n_iter, converged

    @traced_fit
    def fit(self, X):
        X = self._check_array(X)
        k = check_n_clusters(self.n_clusters, X.shape[0])
        max_iter = check_count(self.max_iter, "max_iter", estimator=self)
        rng = check_random_state(self.random_state)
        explicit_init = isinstance(self.init, np.ndarray)
        n_init = 1 if explicit_init else check_count(
            self.n_init, "n_init", estimator=self)
        best = None
        best_trace = None
        for _ in range(n_init):
            centers = self._initial_centers(X, rng)
            with capture_convergence() as capture:
                labels, centers, inertia, n_iter, converged = self._lloyd(
                    X, centers, max_iter, self.tol
                )
            if best is None or inertia < best[2]:
                best = (labels, centers, inertia, n_iter, converged)
                best_trace = capture.events
        (self.labels_, self.cluster_centers_, self.inertia_, self.n_iter_,
         converged) = best
        record_convergence(self, best_trace)
        if not converged:
            warnings.warn(
                f"KMeans did not converge in max_iter={max_iter} "
                "Lloyd iterations; consider raising max_iter or tol",
                ConvergenceWarning, stacklevel=2,
            )
        self.labels_ = self.labels_.astype(np.int64)
        return self

    def predict(self, X):
        """Assign new points to the nearest fitted center."""
        if self.cluster_centers_ is None:
            raise ValidationError("KMeans is not fitted")
        X = self._check_array(X, n_features=self.cluster_centers_.shape[1])
        return np.argmin(cdist_sq(X, self.cluster_centers_), axis=1).astype(np.int64)
