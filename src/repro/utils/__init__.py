"""Shared utilities: validation, linear-algebra kernels, optimal
assignment and the binomial tail."""

from .assignment import min_cost_assignment
from .linalg import (
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
    row_sq_norms,
)
from .special import binomial_sf
from .validation import (
    as_feature_indices,
    check_array,
    check_in_range,
    check_is_fitted,
    check_labels,
    check_n_clusters,
    check_random_state,
)

__all__ = [
    "binomial_sf",
    "cdist_sq",
    "center_kernel",
    "distance_contrast",
    "logsumexp",
    "mahalanobis_sq",
    "min_cost_assignment",
    "orthogonal_complement_projector",
    "orthonormal_basis",
    "pairwise_distances",
    "pairwise_sq_distances",
    "rbf_kernel",
    "row_sq_norms",
    "as_feature_indices",
    "check_array",
    "check_in_range",
    "check_is_fitted",
    "check_labels",
    "check_n_clusters",
    "check_random_state",
]
