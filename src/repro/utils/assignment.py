"""Optimal one-to-one assignment (the linear sum assignment problem).

Matching solutions to clusterings one-to-one is how the tutorial's
methods align and score clusterings: Condens aligns sub-clusters across
given classes, consensus voting aligns labelings, and the external
measures match predicted clusters to true classes.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["min_cost_assignment"]


def min_cost_assignment(cost):
    """Rows and columns of a minimum-cost one-to-one assignment.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant
    1987, in the rectangular form of Crouse 2016), O(k^3) for a k x k
    matrix, with one NumPy operation over the unscanned columns per
    path step. ``cost`` may be rectangular: ``min(r, c)`` pairs are
    returned as ``(rows, cols)`` with ``rows`` ascending, the contract
    of SciPy's ``linear_sum_assignment``. Ties resolve as there: columns
    are scanned in reverse order, so a constant matrix gives the
    identity, and among equally short paths an unassigned column ends
    the search. To maximise, pass ``-cost``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValidationError(
            f"cost must be a 2-d matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValidationError("cost matrix contains NaN or infinite entries")
    transpose = cost.shape[0] > cost.shape[1]
    if transpose:
        cost = cost.T
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col4row = np.full(n_rows, -1, dtype=np.intp)
    row4col = np.full(n_cols, -1, dtype=np.intp)
    path = np.full(n_cols, -1, dtype=np.intp)
    for current in range(n_rows):
        # Dijkstra over the reduced costs from the current free row
        shortest = np.full(n_cols, np.inf)
        remaining = np.arange(n_cols - 1, -1, -1)
        n_remaining = n_cols
        scanned_rows = np.zeros(n_rows, dtype=bool)
        scanned_cols = np.zeros(n_cols, dtype=bool)
        i, min_val, sink = current, 0.0, -1
        while sink < 0:
            scanned_rows[i] = True
            cols = remaining[:n_remaining]
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            known = shortest[cols]
            shorter = reduced < known
            path[cols[shorter]] = i
            known = np.where(shorter, reduced, known)
            shortest[cols] = known
            min_val = known.min()
            ties = (known == min_val).nonzero()[0]
            free = ties[row4col[cols[ties]] < 0]
            index = free[-1] if free.size else ties[0]
            j = cols[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            scanned_cols[j] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
        u[current] += min_val
        scanned_rows[current] = False
        u[scanned_rows] += min_val - shortest[col4row[scanned_rows]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n_rows), col4row
