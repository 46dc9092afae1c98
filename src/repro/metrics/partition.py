"""Pair-counting agreement measures between two flat partitions.

These realise the tutorial's ``Diss : Clusterings × Clusterings → R``
(slide 27) in its most common instantiations — e.g. meta clustering
(Caruana et al. 2006) groups clusterings by the Rand index.
"""

from __future__ import annotations

import math

import numpy as np

from .contingency import NO_SHARED_OBJECT, pair_confusion, pair_confusions
from ..exceptions import ValidationError

__all__ = [
    "rand_index",
    "adjusted_rand_index",
    "agreement_matrix",
    "jaccard_index",
    "fowlkes_mallows",
    "pair_precision_recall_f1",
]


@np.errstate(invalid="ignore", divide="ignore")
def _rand(n11, n10, n01, n00):
    total = n11 + n10 + n01 + n00
    return np.where(total == 0, 1.0, (n11 + n00) / total)


@np.errstate(invalid="ignore", divide="ignore")
def _adjusted_rand(n11, n10, n01, n00):
    total = n11 + n10 + n01 + n00
    sum_a = n11 + n10
    sum_b = n11 + n01
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    # math.isclose(max_index, expected) at its default rel_tol
    close = (np.abs(max_index - expected)
             <= 1e-9 * np.maximum(np.abs(max_index), np.abs(expected)))
    return np.where((total == 0) | close, 1.0,
                    (n11 - expected) / (max_index - expected))


_INDICES = {"rand": _rand, "ari": _adjusted_rand}


def rand_index(labels_a, labels_b):
    """Rand index in ``[0, 1]``: fraction of object pairs treated alike."""
    return float(_rand(*pair_confusion(labels_a, labels_b)))


def adjusted_rand_index(labels_a, labels_b):
    """Hubert-Arabie adjusted Rand index (chance-corrected, max 1).

    Returns 1 for identical partitions, ~0 for independent ones, and can be
    negative for systematic disagreement.
    """
    return float(_adjusted_rand(*pair_confusion(labels_a, labels_b)))


def agreement_matrix(labelings, others=None, *, measure="ari",
                     no_overlap=None):
    """Rand (``measure="rand"``) or adjusted Rand index of many pairs.

    ``M[i, j]`` scores ``labelings[i]`` against ``labelings[j]`` (or
    ``others[j]``) exactly as :func:`rand_index` /
    :func:`adjusted_rand_index` would, from :func:`pair_confusions`. A
    pair that clusters no object in common scores ``no_overlap``, or
    raises ``ValidationError`` when that is None.
    """
    if measure not in _INDICES:
        raise ValidationError(
            f"measure must be one of {sorted(_INDICES)}, got {measure!r}")
    scores = _INDICES[measure](*pair_confusions(labelings, others))
    undefined = np.isnan(scores)
    if undefined.any():
        if no_overlap is None:
            i, j = np.argwhere(undefined)[0]
            raise ValidationError(f"pair ({i}, {j}): {NO_SHARED_OBJECT}")
        scores[undefined] = no_overlap
    return scores


def jaccard_index(labels_a, labels_b):
    """Jaccard coefficient over co-clustered pairs."""
    n11, n10, n01, _ = pair_confusion(labels_a, labels_b)
    denom = n11 + n10 + n01
    if denom == 0:
        return 1.0
    return n11 / denom


def fowlkes_mallows(labels_a, labels_b):
    """Fowlkes-Mallows score: geometric mean of pair precision and recall."""
    n11, n10, n01, _ = pair_confusion(labels_a, labels_b)
    pa = n11 + n10
    pb = n11 + n01
    if pa == 0 or pb == 0:
        return 1.0 if pa == pb else 0.0
    return n11 / math.sqrt(pa * pb)


def pair_precision_recall_f1(labels_pred, labels_true):
    """Pairwise precision/recall/F1 of a predicted partition vs a reference.

    Returns
    -------
    (precision, recall, f1) : tuple of float
    """
    n11, n10, n01, _ = pair_confusion(labels_pred, labels_true)
    precision = n11 / (n11 + n10) if (n11 + n10) > 0 else 1.0
    recall = n11 / (n11 + n01) if (n11 + n01) > 0 else 1.0
    if precision + recall == 0:
        return precision, recall, 0.0
    f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1
