"""Agglomerative hierarchical clustering (single / complete / average link).

Average-link agglomeration is the engine of COALA (Bae & Bailey 2006,
slides 31-33), so the merge machinery is exposed in a reusable form:
:func:`average_link_distance` and the incremental :class:`LinkageMatrix`.
"""

from __future__ import annotations

import numpy as np

from ..core.base import BaseClusterer
from ..exceptions import ValidationError
from ..utils.linalg import pairwise_distances
from ..utils.validation import check_array, check_n_clusters

__all__ = ["Agglomerative", "LinkageMatrix", "average_link_distance"]

_LINKAGES = ("single", "complete", "average")

#: rows per block when rescanning: the temporary copies stay a small
#: fraction of the n x n matrix
_SCAN_ROWS = 64


def average_link_distance(d, members_a, members_b):
    """Average pairwise distance between two groups given a distance matrix."""
    block = d[np.ix_(members_a, members_b)]
    return float(block.mean())


class _NearestNeighbours:
    """Per-row nearest neighbour of a distance matrix, kept exact across
    merges: ``nn[i] == np.argmin(row i)`` (first index on ties) and
    ``dist[i]`` is that minimum. With a boolean ``mask``, masked entries
    count as ``+inf``; a merge unions the merged rows of the mask."""

    def __init__(self, d, mask=None):
        n = d.shape[0]
        self.mask = mask
        self.nn = np.zeros(n, dtype=np.intp)
        self.dist = np.full(n, np.inf)
        self.rescan(d, np.arange(n))

    def rescan(self, d, rows):
        for start in range(0, rows.size, _SCAN_ROWS):
            chunk = rows[start:start + _SCAN_ROWS]
            block = d[chunk]
            if self.mask is not None:
                block[self.mask[chunk]] = np.inf
            nn = np.argmin(block, axis=1)
            self.nn[chunk] = nn
            self.dist[chunk] = block[np.arange(chunk.size), nn]

    def closest(self):
        """``(i, j)`` of the first minimal entry in row-major order, or
        ``None`` when every entry is infinite."""
        i = int(np.argmin(self.dist))
        if not np.isfinite(self.dist[i]):
            return None
        return i, int(self.nn[i])

    def merged(self, d, a, b, alive):
        """Refresh after ``b`` merged into ``a``; ``d`` is already updated
        and ``alive`` marks the active rows. Only column ``a`` of the
        other rows changed (column ``b`` became +inf), so a row whose
        neighbour was neither ``a`` nor ``b`` just compares its minimum
        with the new entry; the rest, and row ``a``, are rescanned.
        Retired rows are all +inf and keep ``nn == 0``."""
        nn, dist = self.nn, self.dist
        new = d[:, a]
        if self.mask is not None:
            union = self.mask[a] | self.mask[b]
            self.mask[a, :] = union
            self.mask[:, a] = union
            new = np.where(union, np.inf, new)
        stale = (nn == a) | (nn == b)
        closer = (new < dist) | ((new == dist) & (a < nn))
        nn[closer] = a
        dist[closer] = new[closer]
        nn[b], dist[b] = 0, np.inf
        stale &= alive
        stale[a] = True
        self.rescan(d, np.flatnonzero(stale))


class LinkageMatrix:
    """Incrementally maintained between-group distances under a linkage.

    Groups are addressed by integer ids; a merge keeps the first id and
    retires the second. Each row caches its nearest neighbour, so
    :meth:`closest_pair` is an O(n) argmin over n cached minima that
    returns exactly the pair a flat ``argmin`` over the whole matrix
    would (the first minimal entry in row-major order). A merge applies
    the Lance-Williams update to the surviving group's whole row and
    column in O(n) (retired groups' entries are +inf and stay so) and
    rescans only the rows whose nearest neighbour was one of the merged
    groups (Müllner 2011, arXiv:1109.2378): a full hierarchy typically
    costs O(n^2), and O(n^3) when many rows shared a neighbour. Each
    merge takes a fixed number of whole-array NumPy calls, not one per
    active group.

    Parameters
    ----------
    d : array-like of shape (n, n)
        Distances between the initial singleton groups; the diagonal is
        ignored. The matrix is copied.
    linkage : {"single", "complete", "average"}
    cannot_link : array-like of bool, shape (n, n), optional
        Symmetric object-level constraints: ``cannot_link[i, j]`` forbids
        a group holding ``i`` from joining a group holding ``j`` in
        ``closest_pair(constrained=True)``. A merge takes the union of
        the two groups' constraints, so they follow the objects (COALA's
        dissimilarity merge). The constraints are stored as booleans
        with their own row-minimum cache, not as a second float matrix.
    """

    def __init__(self, d, linkage="average", *, cannot_link=None):
        if linkage not in _LINKAGES:
            raise ValidationError(f"unknown linkage {linkage!r}")
        self.linkage = linkage
        self._d = np.asarray(d, dtype=np.float64).copy()
        n = self._d.shape[0]
        if self._d.shape != (n, n):
            raise ValidationError("distance matrix must be square")
        np.fill_diagonal(self._d, np.inf)
        self.active = set(range(n))
        self.sizes = {i: 1 for i in range(n)}
        self.members = {i: [i] for i in range(n)}
        self._alive = np.ones(n, dtype=bool)
        self._nearest = _NearestNeighbours(self._d)
        self._linkable = None
        if cannot_link is not None:
            blocked = np.array(cannot_link, dtype=bool)
            if blocked.shape != (n, n) or not np.array_equal(blocked,
                                                             blocked.T):
                raise ValidationError(
                    "cannot_link must be a symmetric n x n boolean matrix")
            self._linkable = _NearestNeighbours(self._d, mask=blocked)

    def distance(self, a, b):
        """Current linkage distance between groups ``a`` and ``b``."""
        return float(self._d[a, b])

    def closest_pair(self, *, constrained=False):
        """The pair of active groups with minimal linkage distance.

        With ``constrained=True`` only pairs whose union violates no
        ``cannot_link`` constraint qualify.

        Returns ``(a, b, distance)`` with ``a < b``, or ``None`` when no
        pair has a finite distance.
        """
        if constrained and self._linkable is None:
            raise ValidationError(
                "closest_pair(constrained=True) needs cannot_link")
        pair = (self._linkable if constrained else self._nearest).closest()
        if pair is None:
            return None
        a, b = sorted(pair)
        return (a, b, float(self._d[a, b]))

    def merge(self, a, b):
        """Merge group ``b`` into group ``a``; returns the surviving id."""
        if a == b or a not in self.active or b not in self.active:
            raise ValidationError("both groups must be active and distinct")
        na, nb = self.sizes[a], self.sizes[b]
        d = self._d
        # Whole rows: retired columns and the diagonal are +inf and stay
        # +inf under every linkage; the merged pair's own entries are
        # reset after the update (single linkage would make them finite).
        dac, dbc = d[a], d[b]
        if self.linkage == "single":
            new = np.where(dbc < dac, dbc, dac)
        elif self.linkage == "complete":
            new = np.where(dbc > dac, dbc, dac)
        else:  # average
            new = (na * dac + nb * dbc) / (na + nb)
        new[a] = new[b] = np.inf
        d[a] = new
        d[:, a] = new
        d[b] = np.inf
        d[:, b] = np.inf
        self._alive[b] = False
        self._nearest.merged(d, a, b, self._alive)
        if self._linkable is not None:
            self._linkable.merged(d, a, b, self._alive)
        self.active.remove(b)
        self.sizes[a] = na + nb
        self.members[a] = self.members[a] + self.members.pop(b)
        del self.sizes[b]
        return a

    def cut(self, k):
        """Merge the closest pair until ``k`` groups remain, or until no
        pair has a finite distance.

        Returns the merges performed, in order, as ``(a, b, distance)``.
        """
        history = []
        while len(self.active) > k:
            pair = self.closest_pair()
            if pair is None:
                break
            self.merge(pair[0], pair[1])
            history.append(pair)
        return history

    def current_labels(self, n_objects):
        """Label vector mapping each object to its group's rank."""
        labels = np.empty(n_objects, dtype=np.int64)
        for rank, g in enumerate(sorted(self.active)):
            labels[self.members[g]] = rank
        return labels


class Agglomerative(BaseClusterer):
    """Agglomerative clustering cut at ``n_clusters``.

    Parameters
    ----------
    n_clusters : int
    linkage : {"single", "complete", "average"}

    Attributes
    ----------
    labels_ : ndarray of shape (n_samples,)
    merge_history_ : list of (a, b, distance)
        The merges performed, in order.
    """

    def __init__(self, n_clusters=2, linkage="average"):
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.labels_ = None
        self.merge_history_ = None

    def fit(self, X):
        X = check_array(X)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        lm = LinkageMatrix(pairwise_distances(X), linkage=self.linkage)
        self.merge_history_ = lm.cut(k)
        self.labels_ = lm.current_labels(n)
        return self
