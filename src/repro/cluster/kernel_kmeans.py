"""Kernel k-means.

Maximises the average within-cluster kernel similarity

    Q(C) = sum_c (1/|c|) sum_{i,j in c} K(x_i, x_j)

— equivalent to k-means in the kernel feature space, and exactly the
quality term minCEntropy optimises (its conditional-entropy objective;
see :mod:`repro.originalspace.mincentropy`). Optimisation is the same
incremental single-object local search, reused here without the
given-knowledge penalty.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.base import BaseClusterer
from ..exceptions import ConvergenceWarning, ValidationError
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
from ..utils.linalg import rbf_kernel
from ..utils.validation import (
    check_array,
    check_count,
    check_n_clusters,
    check_random_state,
)

__all__ = ["KernelKMeans"]


class KernelKMeans(BaseClusterer):
    """Kernel k-means via incremental local search.

    Parameters
    ----------
    n_clusters : int
    gamma : float or None — RBF bandwidth (median heuristic when None).
    kernel : ndarray (n, n) or None
        Precomputed kernel matrix; overrides ``gamma`` when given.
    max_sweeps, n_init, random_state : optimisation controls.

    Attributes
    ----------
    labels_ : ndarray
    quality_ : float — final ``Q(C) / n``.
    n_iter_ : int — local-search sweeps of the winning restart.
    convergence_trace_ : list of ConvergenceEvent — per-sweep
        ``Q(C) / n`` of the winning restart (nondecreasing: the local
        search only applies improving moves).
    """

    def __init__(self, n_clusters=2, gamma=None, kernel=None, max_sweeps=30,
                 n_init=3, random_state=None):
        self.n_clusters = n_clusters
        self.gamma = gamma
        self.kernel = kernel
        self.max_sweeps = max_sweeps
        self.n_init = n_init
        self.random_state = random_state
        self.labels_ = None
        self.quality_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X):
        from ..originalspace.mincentropy import _State

        X = self._check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        max_sweeps = check_count(self.max_sweeps, "max_sweeps", estimator=self)
        n_init = check_count(self.n_init, "n_init", estimator=self)
        rng = check_random_state(self.random_state)
        if self.kernel is not None:
            K = np.asarray(self.kernel, dtype=np.float64)
            if K.ndim != 2 or K.shape != (n, n):
                raise ValidationError(
                    f"KernelKMeans: precomputed kernel must have shape "
                    f"({n}, {n}) matching X, got {K.shape}"
                )
            if not np.isfinite(K).all():
                raise ValidationError(
                    "KernelKMeans: precomputed kernel contains NaN or "
                    "infinite values"
                )
        else:
            K = rbf_kernel(X, gamma=self.gamma)
        best = None
        best_trace = None
        for _ in range(n_init):
            labels = rng.integers(k, size=n).astype(np.int64)
            state = _State(K, labels, k, [], [])
            n_sweeps = 0
            converged = False
            with capture_convergence() as capture:
                for n_sweeps in range(1, max_sweeps + 1):
                    improved = False
                    for i in rng.permutation(n).tolist():
                        if state.move_if_better(i):
                            improved = True
                    budget_tick(objective=state.quality() / n)
                    if not improved:
                        converged = True
                        break
            q = state.quality() / n
            if best is None or q > best[0]:
                best = (q, state.labels.copy(), n_sweeps, converged)
                best_trace = capture.events
        self.quality_, labels, self.n_iter_, converged = best
        record_convergence(self, best_trace)
        if not converged:
            warnings.warn(
                f"KernelKMeans local search still improving after "
                f"max_sweeps={max_sweeps}; consider raising max_sweeps",
                ConvergenceWarning, stacklevel=2,
            )
        self.labels_ = labels.astype(np.int64)
        return self
