"""EM for Gaussian mixture models.

The generative substrate behind CAMI (Dang & Bailey 2010a), co-EM
(Bickel & Scheffer 2004) and the random-projection consensus of Fern &
Brodley 2003. The E- and M-steps are exposed as standalone functions so
those algorithms can interleave them with their own penalties/views.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.base import BaseClusterer
from ..exceptions import ConvergenceWarning, ValidationError
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
from ..utils.linalg import cdist_sq, logsumexp, row_sq_norms
from ..utils.validation import (
    check_count,
    check_n_clusters,
    check_random_state,
)

__all__ = [
    "GaussianMixtureEM",
    "gaussian_log_density",
    "e_step",
    "m_step",
    "init_params_kmeanspp",
]

_MIN_VAR = 1e-6
_MAX_REG = 1e3


def _regularized_cholesky(cov):
    """Cholesky of ``cov`` with automatic regularisation escalation.

    Starts at the standard ``_MIN_VAR`` floor and multiplies the ridge
    by 100 until the factorisation succeeds: a component that collapsed
    onto duplicate points (singular covariance) degrades to a wider
    Gaussian instead of killing the whole EM run. The escalation is
    reported once per fit via :class:`ConvergenceWarning`.
    """
    d = cov.shape[0]
    eye = np.eye(d)
    reg = _MIN_VAR
    while reg <= _MAX_REG:
        try:
            chol = np.linalg.cholesky(cov + reg * eye)
            if np.isfinite(chol).all():
                if reg > _MIN_VAR:
                    warnings.warn(
                        "singular component covariance: regularisation "
                        f"escalated to {reg:.1e}",
                        ConvergenceWarning, stacklevel=3,
                    )
                return chol
        except np.linalg.LinAlgError:
            pass
        reg *= 100.0
    # Last resort: discard off-diagonal structure entirely.
    warnings.warn(
        "component covariance irrecoverably singular; degraded to its "
        "diagonal", ConvergenceWarning, stacklevel=3,
    )
    diag = np.maximum(np.nan_to_num(np.diag(cov), nan=_MIN_VAR), _MIN_VAR)
    return np.diag(np.sqrt(diag))


def _log_densities(X, means, covs, covariance_type):
    """(n, k) log density of each row of ``X`` under each component.

    All components at once, and bit for bit what one component at a
    time computes. A full-covariance stack that does not factor at the
    ``_MIN_VAR`` ridge falls back to :func:`_regularized_cholesky` per
    component, which escalates the ridge of the singular ones only.
    """
    d = X.shape[1]
    # (n, k, d): rows vary slowest, so sums over features come out as a
    # C-ordered (n, k), as the M-step's column sums expect
    diff = X[:, None, :] - means[None, :, :]
    covs = np.asarray(covs, dtype=np.float64)
    if covariance_type == "spherical":
        var = np.maximum(covs, _MIN_VAR)
        maha = (diff * diff).sum(axis=2) / var
        logdet = d * np.log(var)
    elif covariance_type == "diag":
        var = np.maximum(covs, _MIN_VAR)
        maha = (diff * diff / var).sum(axis=2)
        logdet = np.log(var).sum(axis=1)
    elif covariance_type == "full":
        try:
            chol = np.linalg.cholesky(covs + _MIN_VAR * np.eye(d))
            factored = bool(np.isfinite(chol).all())
        except np.linalg.LinAlgError:
            factored = False
        if not factored:
            chol = np.empty_like(covs)
            for j in range(covs.shape[0]):
                chol[j] = _regularized_cholesky(covs[j])
        sol = np.linalg.solve(chol, diff.transpose(1, 2, 0))
        maha = np.ascontiguousarray((sol * sol).sum(axis=1).T)
        logdet = 2.0 * np.log(chol.diagonal(axis1=1, axis2=2)).sum(axis=1)
    else:
        raise ValidationError(f"unknown covariance_type {covariance_type!r}")
    return -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))


def gaussian_log_density(X, mean, cov, covariance_type):
    """Log density of each row of ``X`` under one Gaussian component."""
    return _log_densities(X, mean[None, :], np.asarray(cov)[None],
                          covariance_type)[:, 0]


def e_step(X, weights, means, covs, covariance_type):
    """Responsibilities and total log-likelihood.

    Returns ``(resp, log_likelihood)`` where ``resp`` is (n, k).
    """
    log_prob = _log_densities(X, means, covs, covariance_type)
    log_weighted = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
    log_norm = logsumexp(log_weighted, axis=1)
    resp = np.exp(log_weighted - log_norm[:, None])
    return resp, float(np.sum(log_norm))


def m_step(X, resp, covariance_type, *, mean_override=None):
    """Maximum-likelihood parameters from responsibilities.

    ``mean_override`` lets penalised variants (CAMI) substitute their own
    mean update while keeping the weight/covariance updates.
    """
    n, d = X.shape
    nk = resp.sum(axis=0) + 1e-12
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    if mean_override is not None:
        means = np.asarray(mean_override, dtype=np.float64)
    k = means.shape[0]
    if covariance_type == "spherical":
        # one distance call per component: a single (n, k) call differs
        # in the last bit of some columns
        x_sq = row_sq_norms(X)
        covs = np.empty(k)
        for j in range(k):
            diff2 = cdist_sq(X, means[j:j + 1], a_sq=x_sq).ravel()
            covs[j] = max(float((resp[:, j] @ diff2) / (nk[j] * d)), _MIN_VAR)
    elif covariance_type in ("diag", "full"):
        diff = X[None, :, :] - means[:, None, :]  # (k, n, d)
        if covariance_type == "diag":
            covs = np.maximum((resp.T[:, None, :] @ (diff * diff))[:, 0]
                              / nk[:, None], _MIN_VAR)
        else:
            covs = ((resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
                    / nk[:, None, None])
            covs += _MIN_VAR * np.eye(d)
    else:
        raise ValidationError(f"unknown covariance_type {covariance_type!r}")
    return weights, means, covs


def init_params_kmeanspp(X, n_components, rng, covariance_type):
    """Initialise EM from a k-means++ seeding."""
    from .kmeans import kmeans_plus_plus

    means = kmeans_plus_plus(X, n_components, rng)
    labels = np.argmin(cdist_sq(X, means), axis=1)
    resp = np.zeros((X.shape[0], n_components))
    resp[np.arange(X.shape[0]), labels] = 1.0
    # Blend in a little uniform mass so empty components do not collapse.
    resp = 0.9 * resp + 0.1 / n_components
    return m_step(X, resp, covariance_type)


class GaussianMixtureEM(BaseClusterer):
    """Gaussian mixture fitted by EM.

    Parameters
    ----------
    n_components : int
    covariance_type : {"full", "diag", "spherical"}
    max_iter : int
    tol : float
        Convergence threshold on mean log-likelihood improvement.
    n_init : int
        Restarts; the best log-likelihood wins.
    random_state : int, Generator or None

    Attributes
    ----------
    labels_ : ndarray — MAP component per point.
    weights_, means_, covariances_ : mixture parameters.
    responsibilities_ : ndarray (n, k)
    log_likelihood_ : float
    n_iter_ : int
    convergence_trace_ : list of ConvergenceEvent
        Per-iteration log-likelihood of the winning restart;
        nondecreasing by the EM guarantee.
    """

    def __init__(self, n_components=2, covariance_type="full", max_iter=200,
                 tol=1e-6, n_init=3, random_state=None):
        self.n_components = n_components
        self.covariance_type = covariance_type
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = n_init
        self.random_state = random_state
        self.labels_ = None
        self.weights_ = None
        self.means_ = None
        self.covariances_ = None
        self.responsibilities_ = None
        self.log_likelihood_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X):
        X = self._check_array(X, min_samples=2)
        k = check_n_clusters(self.n_components, X.shape[0], name="n_components")
        max_iter = check_count(self.max_iter, "max_iter", estimator=self)
        n_init = check_count(self.n_init, "n_init", estimator=self)
        rng = check_random_state(self.random_state)
        best = None
        best_trace = None
        for _ in range(n_init):
            weights, means, covs = init_params_kmeanspp(
                X, k, rng, self.covariance_type
            )
            prev_ll = -np.inf
            n_iter = 0
            converged = False
            resp = None
            with capture_convergence() as capture:
                for n_iter in range(1, max_iter + 1):
                    resp, ll = e_step(X, weights, means, covs,
                                      self.covariance_type)
                    budget_tick(objective=ll)
                    weights, means, covs = m_step(X, resp,
                                                  self.covariance_type)
                    if (np.isfinite(prev_ll)
                            and abs(ll - prev_ll)
                            <= self.tol * max(abs(prev_ll), 1.0)):
                        prev_ll = ll
                        converged = True
                        break
                    prev_ll = ll
            if resp is None:
                resp, prev_ll = e_step(X, weights, means, covs,
                                       self.covariance_type)
            if best is None or prev_ll > best[0]:
                best = (prev_ll, weights, means, covs, resp, n_iter, converged)
                best_trace = capture.events
        ll, weights, means, covs, resp, n_iter, converged = best
        if not converged:
            warnings.warn(
                f"GaussianMixtureEM did not converge in max_iter={max_iter} "
                "EM iterations; consider raising max_iter or tol",
                ConvergenceWarning, stacklevel=2,
            )
        self.log_likelihood_ = float(ll)
        self.weights_, self.means_, self.covariances_ = weights, means, covs
        self.responsibilities_ = resp
        self.labels_ = np.argmax(resp, axis=1).astype(np.int64)
        self.n_iter_ = n_iter
        record_convergence(self, best_trace)
        return self

    def _e_step(self, X):
        if self.means_ is None:
            raise ValidationError("GaussianMixtureEM is not fitted")
        X = self._check_array(X, n_features=self.means_.shape[1])
        resp, ll = e_step(X, self.weights_, self.means_, self.covariances_,
                          self.covariance_type)
        return resp, ll / X.shape[0]

    def predict(self, X):
        """MAP component for new points under the fitted mixture."""
        return np.argmax(self._e_step(X)[0], axis=1).astype(np.int64)

    def score_samples(self, X):
        """Mean log-likelihood per sample of ``X`` under the fitted
        mixture: one float, not one value per sample."""
        return self._e_step(X)[1]
