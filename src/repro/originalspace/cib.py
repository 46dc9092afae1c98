"""Conditional information bottleneck (Gondek & Hofmann 2003/04) — s35-36.

Works on an empirical joint distribution ``p(x, y)`` (objects x
features, non-negative, normalised). Given background clustering ``D``,
a hard clustering ``C`` of the objects is sought that minimises::

    F(C) = I(X; C) - beta * I(Y; C | D)

i.e. compress the objects while preserving feature information *beyond*
what the given clustering already explains. Optimisation is sequential:
objects are greedily reassigned to the cluster minimising ``F`` until a
fixed point (with random restarts), each move scored from cached cluster
state.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.base import AlternativeClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
from ..utils.validation import (
    check_array,
    check_in_range,
    check_n_clusters,
    check_random_state,
)

__all__ = ["ConditionalInformationBottleneck"]


register(TaxonomyEntry(
    key="cib",
    reference="Gondek & Hofmann, 2003/2004",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.ITERATIVE,
    given_knowledge=True,
    n_clusterings="2",
    view_detection="",
    flexible_definition=False,
    estimator="repro.originalspace.cib.ConditionalInformationBottleneck",
    notes="information bottleneck conditioned on given clustering",
))


def _entropy(p):
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _plogp(p):
    return p * math.log(p) if p > 0 else 0.0


def _row_term(row, py):
    """One cluster's share of I(Y;C|D=d): the sum over y of
    ``p(y,c|d) log(p(y,c|d) / (p(c|d) p(y|d)))`` for its row of the
    table. The ratio is taken in log space: near 1e-200 masses the
    product ``p(c|d) p(y|d)`` underflows to zero."""
    nz = row > 0
    t = row[nz]
    if not t.size:
        return 0.0
    return float(np.dot(t, np.log(t) - np.log(py[nz]) - math.log(t.sum())))


class _State:
    """Cached cluster state of the CIB local search.

    Holds the cluster masses ``p(c)`` and, for each given group d, the
    k x m table ``p(y,c|d)``, its row terms and ``I(Y;C|D=d)``, plus
    each group's row indices. Moving object i from a to b changes
    ``H(C)`` through two masses and ``I(Y;C|D)`` only in rows a and b of
    i's group, so :meth:`move_objectives` scores a candidate in O(m)
    for m features. :meth:`apply_move` recomputes the touched entries from
    membership, so the cache never drifts from a fresh build.
    """

    def __init__(self, pxy, px, labels, group, k, beta):
        self.pxy = pxy
        self.px = px
        self.labels = labels
        self.group = group
        self.k = k
        self.beta = beta
        self.rows = [np.flatnonzero(group == d)
                     for d in range(int(group.max()) + 1)]
        self.mass = [float(px[rows].sum()) for rows in self.rows]
        self.pc = [float(px[labels == c].sum()) for c in range(k)]
        n_groups = len(self.rows)
        self.tables = [np.zeros((k, pxy.shape[1])) for _ in range(n_groups)]
        self.py = [None] * n_groups
        self.terms = [None] * n_groups
        self.info = [None] * n_groups
        for d in range(n_groups):
            for c in range(k):
                self._rebuild_row(d, c)
            self._rebuild_group(d)
        self._rebuild_totals()

    def _rebuild_row(self, d, c):
        rows = self.rows[d]
        if self.mass[d] > 0:  # a group without mass keeps a zero table
            self.tables[d][c] = (self.pxy[rows[self.labels[rows] == c]]
                                 / self.mass[d]).sum(axis=0)

    def _rebuild_group(self, d):
        table = self.tables[d]
        self.py[d] = py = table.sum(axis=0)
        self.terms[d] = [_row_term(row, py) for row in table]
        self.info[d] = sum(self.terms[d])

    def _rebuild_totals(self):
        # for hard assignments I(X;C) = H(C)
        self.i_xc = -sum(_plogp(p) for p in self.pc)
        self.i_ycd = sum(m * info for m, info in zip(self.mass, self.info))

    def objective(self):
        """``F(C) = I(X;C) - beta * I(Y;C|D)`` of the current labeling."""
        return self.i_xc - self.beta * self.i_ycd

    def move_objectives(self, i):
        """``F(C)`` after moving object ``i`` to each cluster (the current
        ``F(C)`` at its own), in O(k * m) for all k."""
        a = int(self.labels[i])
        d = int(self.group[i])
        pd = self.mass[d]
        pxi = float(self.px[i])
        pc = self.pc
        i_xc_a = self.i_xc - _plogp(pc[a] - pxi) + _plogp(pc[a])
        if pd > 0:
            x = self.pxy[i] / pd
            py = self.py[d]
            table = self.tables[d]
            terms = self.terms[d]
            t_a = _row_term(table[a] - x, py) - terms[a]
        objectives = [self.objective()] * self.k
        for b in range(self.k):
            if b == a:
                continue
            i_xc = i_xc_a - _plogp(pc[b] + pxi) + _plogp(pc[b])
            i_ycd = self.i_ycd
            if pd > 0:
                i_ycd += pd * (t_a + _row_term(table[b] + x, py) - terms[b])
            objectives[b] = i_xc - self.beta * i_ycd
        return objectives

    def move_if_better(self, i):
        """Move object ``i`` to the first cluster b, in index order, whose
        :meth:`move_objectives` entry is below the best so far by more
        than 1e-12, if any; return whether it moved."""
        a = int(self.labels[i])
        best_b, best_obj = a, self.objective()
        for b, cand in enumerate(self.move_objectives(i)):
            if b != a and cand < best_obj - 1e-12:
                best_obj, best_b = cand, b
        if best_b == a:
            return False
        self.apply_move(i, a, best_b)
        return True

    def apply_move(self, i, a, b):
        self.labels[i] = b
        for c in (a, b):
            self.pc[c] = float(self.px[self.labels == c].sum())
        d = int(self.group[i])
        self._rebuild_row(d, a)
        self._rebuild_row(d, b)
        self._rebuild_group(d)
        self._rebuild_totals()


class ConditionalInformationBottleneck(AlternativeClusterer):
    """CIB alternative clustering on a non-negative data matrix.

    Parameters
    ----------
    n_clusters : int
        Number of clusters in ``C``.
    beta : float
        Preservation weight; larger beta keeps more conditional feature
        information (stronger, more structured alternatives).
    max_sweeps : int
        Full reassignment passes per restart.
    n_init : int
        Restarts; best objective wins. The first restart is seeded from
        k-means on the (row-normalised) data — a far better basin for
        the sequential-IB local search than a uniform random labeling —
        the rest are random.
    random_state : int, Generator or None

    Attributes
    ----------
    labels_ : ndarray — the alternative clustering ``C``.
    objective_ : float — final ``F(C)`` (lower is better).
    mutual_information_x_, conditional_information_ : floats — the two
        terms of the objective at the solution.
    n_iter_ : int — reassignment sweeps of the winning restart.
    convergence_trace_ : list of ConvergenceEvent — per-sweep ``F(C)``
        of the winning restart (nonincreasing: only improving moves are
        applied).

    Notes
    -----
    Scoring one candidate move of an object costs O(m) for m features:
    only two cluster masses and two rows of the object's given-group
    table change. Applying a move rebuilds those entries
    from membership in O(n + n_d m) for the object's group of n_d rows.
    """

    def __init__(self, n_clusters=2, beta=5.0, max_sweeps=30, n_init=3,
                 random_state=None):
        self.n_clusters = n_clusters
        self.beta = beta
        self.max_sweeps = max_sweeps
        self.n_init = n_init
        self.random_state = random_state
        self.labels_ = None
        self.objective_ = None
        self.mutual_information_x_ = None
        self.conditional_information_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @staticmethod
    def _joint(X):
        total = X.sum()
        if total <= 0:
            raise ValidationError("CIB needs a non-negative matrix with mass")
        return X / total

    def _terms(self, pxy, px, labels, given, k):
        """Compute I(X;C) and I(Y;C|D) for a hard labeling."""
        # p(c): mass of objects per cluster.
        pc = np.array([px[labels == c].sum() for c in range(k)])
        # For hard deterministic assignments, I(X;C) = H(C).
        i_xc = _entropy(pc[pc > 0])
        # I(Y;C|D) = sum_d p(d) * I(Y;C | D=d)
        i_ycd = 0.0
        for dval in np.unique(given):
            rows = given == dval
            pd = px[rows].sum()
            if pd <= 0:
                continue
            sub = pxy[rows] / pd           # p(y, x | d) rows
            sub_labels = labels[rows]
            pyc = np.zeros((k, pxy.shape[1]))
            for c in range(k):
                sel = sub_labels == c
                if sel.any():
                    pyc[c] = sub[sel].sum(axis=0)
            pc_d = pyc.sum(axis=1)
            py_d = pyc.sum(axis=0)
            nz = pyc > 0
            with np.errstate(divide="ignore"):  # log 0 only where pyc is 0
                log_denom = np.log(pc_d)[:, None] + np.log(py_d)[None, :]
            i_d = float(np.sum(pyc[nz] * (np.log(pyc[nz]) - log_denom[nz])))
            i_ycd += pd * i_d
        return i_xc, i_ycd

    @traced_fit
    def fit(self, X, given):
        X = check_array(X, min_samples=2)
        if (X < 0).any():
            raise ValidationError(
                "CIB requires non-negative data (counts/intensities); "
                "shift or exponentiate your features first"
            )
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        check_in_range(self.beta, "beta", low=0.0)
        given_list = self._given_labels(given)
        if len(given_list) != 1:
            raise ValidationError("CIB accepts exactly one given clustering")
        given_labels = given_list[0]
        if given_labels.shape[0] != n:
            raise ValidationError("given clustering length mismatch")
        rng = check_random_state(self.random_state)
        pxy = self._joint(X)
        px = pxy.sum(axis=1)

        _, group = np.unique(given_labels, return_inverse=True)

        def kmeans_seed():
            from ..cluster.kmeans import KMeans

            # a row without mass (an empty document) is seeded as zeros
            mass = pxy.sum(axis=1, keepdims=True)
            rows = np.divide(pxy, mass, out=np.zeros_like(pxy),
                             where=mass > 0)
            km = KMeans(n_clusters=k, n_init=3,
                        random_state=rng.integers(2**31 - 1))
            return km.fit(rows).labels_.copy()

        best = None
        best_trace = None
        for restart in range(max(1, int(self.n_init))):
            if restart == 0:
                labels = kmeans_seed()
            else:
                labels = rng.integers(k, size=n)
            state = _State(pxy, px, labels, group, k, self.beta)
            n_sweeps = 0
            with capture_convergence() as capture:
                for n_sweeps in range(1, int(self.max_sweeps) + 1):
                    improved = False
                    for i in rng.permutation(n):
                        if state.move_if_better(i):
                            improved = True
                    budget_tick(objective=state.objective())
                    if not improved:
                        break
            i_xc, i_ycd = self._terms(pxy, px, labels, given_labels, k)
            final_obj = i_xc - self.beta * i_ycd
            if best is None or final_obj < best[0]:
                best = (final_obj, labels.copy(), i_xc, i_ycd, n_sweeps)
                best_trace = capture.events
        self.objective_, labels, self.mutual_information_x_, \
            self.conditional_information_, self.n_iter_ = best
        self.labels_ = labels.astype(np.int64)
        record_convergence(self, best_trace)
        return self
