"""Hilbert-Schmidt Independence Criterion (Gretton et al. 2005).

The tutorial's slide 90 describes mSC (Niu & Dy 2010) steering its
subspace search towards statistically *independent* subspaces by
penalising HSIC between candidate views; this module provides the
estimator used there and in the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from ..utils.linalg import center_kernel, rbf_kernel
from ..utils.validation import check_array
from ..exceptions import ValidationError

__all__ = ["hsic", "normalized_hsic", "linear_hsic"]


def _centered_kernels(X, Y, kernel, gamma):
    """The centred kernel matrices of two views, and the sample count."""
    X = check_array(X, name="X")
    Y = check_array(Y, name="Y")
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValidationError("X and Y must describe the same objects")
    if n < 2:
        raise ValidationError("HSIC needs at least 2 samples")
    if kernel == "rbf":
        K = rbf_kernel(X, gamma=gamma)
        L = rbf_kernel(Y, gamma=gamma)
    elif kernel == "linear":
        K = X @ X.T
        L = Y @ Y.T
    else:
        raise ValidationError(f"unknown kernel {kernel!r}")
    return center_kernel(K), center_kernel(L), n


def hsic(X, Y, *, kernel="rbf", gamma=None):
    """Biased empirical HSIC ``tr(K H L H) / (n-1)^2``.

    Parameters
    ----------
    X, Y : array-like with the same number of rows
        Two representations (views) of the same objects.
    kernel : {"rbf", "linear"}
        Kernel applied to both views.
    gamma : float or None
        RBF bandwidth; median heuristic when ``None``.
    """
    Kc, Lc, n = _centered_kernels(X, Y, kernel, gamma)
    return float(np.sum(Kc * Lc) / (n - 1) ** 2)


def linear_hsic(X, Y):
    """HSIC with linear kernels (equals squared cross-covariance norm)."""
    return hsic(X, Y, kernel="linear")


def normalized_hsic(X, Y, *, kernel="rbf", gamma=None):
    """HSIC normalised to ``[0, 1]`` by the geometric mean of self-HSICs.

    Each view's kernel is built and centred once and serves both its
    self-HSIC and the cross term.
    """
    Kc, Lc, n = _centered_kernels(X, Y, kernel, gamma)
    scale = (n - 1) ** 2
    h_xy = float(np.sum(Kc * Lc) / scale)
    h_xx = float(np.sum(Kc * Kc) / scale)
    h_yy = float(np.sum(Lc * Lc) / scale)
    denom = np.sqrt(h_xx * h_yy)
    if denom <= 0:
        return 0.0
    return float(np.clip(h_xy / denom, 0.0, 1.0))
