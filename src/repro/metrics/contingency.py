"""Contingency tables and pair-confusion counts between two labelings.

These are the primitives behind every partition-agreement measure in
:mod:`repro.metrics.partition` and the information-theoretic measures in
:mod:`repro.metrics.information`.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_labels
from ..exceptions import ValidationError

#: why a pair of labelings has no pair-counting score
NO_SHARED_OBJECT = ("no object is clustered by both labelings: every "
                    "object is noise in one of them")

__all__ = ["contingency_matrix", "pair_confusion", "pair_confusions",
           "relabel_consecutive"]


def relabel_consecutive(labels):
    """Map arbitrary integer labels to ``0..k-1`` preserving noise ``-1``.

    Returns ``(new_labels, classes)`` where ``classes[i]`` is the original
    label of the class now numbered ``i``.
    """
    labels = check_labels(labels)
    noise = labels == -1
    classes, inv = np.unique(labels[~noise], return_inverse=True)
    out = np.full(labels.shape, -1, dtype=np.int64)
    out[~noise] = inv
    return out, classes


def contingency_matrix(labels_a, labels_b, *, include_noise=False):
    """Contingency table ``N[i, j] = |cluster_i(a) ∩ cluster_j(b)|``.

    Parameters
    ----------
    labels_a, labels_b : array-like of int
        Two labelings of the same objects. ``-1`` marks noise.
    include_noise : bool
        When true, noise is treated as an ordinary class (appended last);
        otherwise objects that are noise in *either* labeling are dropped.

    Returns
    -------
    numpy.ndarray of shape (k_a, k_b)
    """
    a = check_labels(labels_a)
    b = check_labels(labels_b, n_samples=a.shape[0])
    if include_noise:
        # Shift noise to a dedicated trailing class per side.
        a = np.where(a == -1, a.max() + 1 if a.max() >= 0 else 0, a)
        b = np.where(b == -1, b.max() + 1 if b.max() >= 0 else 0, b)
    else:
        keep = (a != -1) & (b != -1)
        a, b = a[keep], b[keep]
        if a.size == 0:
            raise ValidationError(
                "no objects remain after dropping noise; "
                "use include_noise=True for all-noise labelings"
            )
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    return _table(a, int(a.max()) + 1, b, int(b.max()) + 1)


def _table(a, ka, b, kb):
    """The ``(ka, kb)`` contingency table of class codes ``a`` and ``b``."""
    return np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)


def pair_confusions(labelings, others=None):
    """Pair-counting confusion ``(n11, n10, n01, n00)`` of many pairs.

    Entry ``[i, j]`` of each returned ``(m, m_others)`` array compares
    ``labelings[i]`` with ``labelings[j]``, or with ``others[j]``, and
    is NaN where no object is clustered by both. Each labeling is
    checked and factorised once; a pair's table is then one
    ``np.bincount`` of ``a * k_b + b`` over the objects both cluster.
    """
    labelings = list(labelings)
    factorised, n_samples = [], None
    for labels in labelings + ([] if others is None else list(others)):
        codes, classes = relabel_consecutive(
            check_labels(labels, n_samples=n_samples))
        n_samples = codes.shape[0]
        factorised.append((codes, classes.size))
    m = len(labelings)
    rows = factorised[:m]
    cols = rows if others is None else factorised[m:]
    # per pair: objects clustered by both, sum of squared cells, and of
    # squared row and column sums
    stats = np.full((len(rows), len(cols), 4), np.nan)
    for i, (a, ka) in enumerate(rows):
        for j in range(i if others is None else 0, len(cols)):
            b, kb = cols[j]
            keep = (a >= 0) & (b >= 0)
            n = int(np.count_nonzero(keep))
            if n == 0:
                continue
            table = _table(a[keep], ka, b[keep], kb)
            row, col = table.sum(axis=1), table.sum(axis=0)
            stats[i, j] = n, (table * table).sum(), row @ row, col @ col
            if others is None:
                stats[j, i] = stats[i, j, [0, 1, 3, 2]]
    # the stats are integers: these counts are exact while n**2 < 2**53
    n, sum_sq, row_sq, col_sq = np.moveaxis(stats, -1, 0)
    n11 = 0.5 * (sum_sq - n)
    n10 = 0.5 * (row_sq - sum_sq)
    n01 = 0.5 * (col_sq - sum_sq)
    total_pairs = 0.5 * n * (n - 1)
    n00 = total_pairs - n11 - n10 - n01
    return n11, n10, n01, n00


def pair_confusion(labels_a, labels_b):
    """Pair-counting confusion ``(n11, n10, n01, n00)``.

    * ``n11`` — pairs together in both labelings,
    * ``n10`` — together in ``a`` only,
    * ``n01`` — together in ``b`` only,
    * ``n00`` — separated in both.

    Noise objects are dropped (consistent with
    :func:`contingency_matrix`); the one-pair case of
    :func:`pair_confusions`.
    """
    counts = tuple(c[0, 0] for c in pair_confusions([labels_a], [labels_b]))
    if np.isnan(counts[0]):
        raise ValidationError(NO_SHARED_OBJECT)
    return counts
