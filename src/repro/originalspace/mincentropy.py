"""minCEntropy-style alternative clustering (Vinh & Epps 2010) — slide 34.

Vinh & Epps minimise the conditional entropy of the data given the
clustering, which for a Gaussian kernel estimate is equivalent to
maximising the average within-cluster kernel similarity::

    Q(C) = sum_c (1/|c|) * sum_{i,j in c} K(x_i, x_j)

The "plus" variants accept one or *several* given clusterings and
subtract a mutual-information penalty, giving the combined objective::

    O(C) = Q(C)/n - beta * sum_g I(C; C_g)

Optimisation is the paper's incremental single-object reassignment local
search with restarts. Cluster kernel sums and integer contingency tables
are cached, so scoring one candidate move costs O(1) per given
clustering and applying a move O(n + k * k_g).
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
from ..utils.linalg import rbf_kernel
from ..utils.validation import (
    check_array,
    check_in_range,
    check_n_clusters,
    check_random_state,
)

__all__ = ["MinCEntropy"]


register(TaxonomyEntry(
    key="mincentropy",
    reference="Vinh & Epps, 2010",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.ITERATIVE,
    given_knowledge=True,
    n_clusterings="2",
    view_detection="",
    flexible_definition=False,
    estimator="repro.originalspace.mincentropy.MinCEntropy",
    notes="kernel conditional-entropy objective; accepts a set of givens",
))


def _mi_from_counts(counts):
    """Mutual information (nats) from a contingency count matrix."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    pij = counts / total
    pi = pij.sum(axis=1, keepdims=True)
    pj = pij.sum(axis=0, keepdims=True)
    nz = pij > 0
    return float(np.sum(pij[nz] * np.log(pij[nz] / (pi @ pj)[nz])))


class _State:
    """Incremental bookkeeping for the local search.

    Holds the per-cluster kernel row sums ``R``, within-cluster sums
    ``W``, sizes, and one integer contingency table (with its MI) per
    given clustering. :meth:`move_gains` scores every move of one object
    from these in O(k * (1 + number of givens)) scalar steps;
    :meth:`apply_move` updates them and recomputes the touched tables'
    MI from the counts.

    What the move scan reads per object lives in Python lists: labels,
    sizes, ``W``, the kernel diagonal, the given codes and each table's
    columns (``cols[g][code][c]``, kept beside the NumPy ``counts`` that
    the MI is computed from). ``R`` stays an (n, k) NumPy array for the
    O(n) column updates, and the scan reads its row ``i`` through a flat
    memoryview of the same buffer, so no object costs a NumPy call
    until it moves.
    """

    def __init__(self, K, labels, k, given_codes, given_sizes):
        self.K = K
        self.n = n = K.shape[0]
        self.k = k
        self._labels = labels.tolist()
        # R[i, c] = sum_{j in c} K[i, j]
        self.R = np.stack(
            [K[:, labels == c].sum(axis=1) for c in range(k)], axis=1
        )
        self._flat_R = memoryview(self.R).cast("B").cast("d")
        self.W = [
            float(K[np.ix_(labels == c, labels == c)].sum()) for c in range(k)
        ]
        self.sizes = [int(np.sum(labels == c)) for c in range(k)]
        self.diag = K.diagonal().tolist()
        self.given_codes = [g.tolist() for g in given_codes]  # 0..kg-1
        self.counts = [
            self._contingency(labels, g, k, kg)
            for g, kg in zip(given_codes, given_sizes)
        ]
        self.cols = [[col.tolist() for col in counts.T]
                     for counts in self.counts]
        # MI of each current table, recomputed only when a move changes it
        self.mi = [_mi_from_counts(c) for c in self.counts]
        # f(x) = x ln x at every count a move can reach
        self.xlogx = [0.0] + [x * math.log(x) for x in range(1, n + 2)]

    @property
    def labels(self):
        return np.array(self._labels, dtype=np.int64)

    @staticmethod
    def _contingency(labels, g, k, kg):
        counts = np.zeros((k, kg), dtype=np.int64)
        np.add.at(counts, (labels, g), 1)
        return counts

    def quality(self):
        sizes, W = np.array(self.sizes), np.array(self.W)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sizes > 0, W / np.maximum(sizes, 1), 0.0)
        return float(ratio.sum())

    def penalty(self):
        return float(sum(self.mi))

    def move_gains(self, i, scale=1.0, beta=0.0):
        """Gain ``dQ/scale - beta * dI`` of moving object ``i`` to each
        cluster (0.0 at its own), in O(k * (1 + number of givens)).

        ``dQ`` is the change in ``Q(C)`` and ``dI`` in the summed MI.
        Column marginals do not change under a move, so with
        f(x) = x ln x and ``N`` objects each table changes its MI by
        ``N * dI = f(n_ag - 1) - f(n_ag) + f(n_bg + 1) - f(n_bg)
        - [f(n_a - 1) - f(n_a) + f(n_b + 1) - f(n_b)]``, where g is the
        given cluster of ``i``.
        """
        k = self.k
        a = self._labels[i]
        sizes = self.sizes
        sa = sizes[a]
        f = self.xlogx
        n = self.n
        kii = self.diag[i]
        R = self._flat_R[i * k:(i + 1) * k].tolist()
        W = self.W
        wa = W[a]
        new_a = (wa - 2.0 * R[a] + kii) / (sa - 1) if sa > 1 else 0.0
        old_a = wa / sa
        cols = [cols[codes[i]]
                for cols, codes in zip(self.cols, self.given_codes)]
        gains = [0.0] * k
        for b in range(k):
            if b == a:
                continue
            wb, sb = W[b], sizes[b]
            wb2 = wb + 2.0 * R[b] + kii
            old = old_a + (wb / sb if sb else 0.0)
            new = new_a + wb2 / (sb + 1)
            d_size = f[sa - 1] - f[sa] + f[sb + 1] - f[sb]
            delta = 0.0
            for col in cols:
                nag, nbg = col[a], col[b]
                delta += (f[nag - 1] - f[nag] + f[nbg + 1] - f[nbg]
                          - d_size) / n
            gains[b] = (new - old) / scale - beta * delta
        return gains

    def move_if_better(self, i, scale=1.0, beta=0.0):
        """Move object ``i`` to the first cluster b, in index order, whose
        :meth:`move_gains` entry beats the best so far by more than
        1e-12, if any; return whether it moved. An object alone in its
        cluster stays."""
        a = self._labels[i]
        if self.sizes[a] <= 1:
            return False
        best_b, best_gain = a, 0.0
        for b, gain in enumerate(self.move_gains(i, scale, beta)):
            if b != a and gain > best_gain + 1e-12:
                best_gain, best_b = gain, b
        if best_b == a:
            return False
        self.apply_move(i, a, best_b)
        return True

    def apply_move(self, i, a, b):
        k = self.k
        kii = self.diag[i]
        self.W[a] += -2.0 * self._flat_R[i * k + a] + kii
        self.W[b] += 2.0 * self._flat_R[i * k + b] + kii
        self.sizes[a] -= 1
        self.sizes[b] += 1
        self.R[:, a] -= self.K[:, i]
        self.R[:, b] += self.K[:, i]
        for g_idx, (counts, cols, codes) in enumerate(
                zip(self.counts, self.cols, self.given_codes)):
            g = codes[i]
            counts[a, g] -= 1
            counts[b, g] += 1
            cols[g][a] -= 1
            cols[g][b] += 1
            self.mi[g_idx] = _mi_from_counts(counts)
        self._labels[i] = b


class MinCEntropy(AlternativeClusterer):
    """Kernel conditional-entropy alternative clustering.

    Parameters
    ----------
    n_clusters : int
    beta : float
        Weight of the mutual-information penalty against the given
        clustering(s). ``beta = 0`` is plain kernel clustering.
    gamma : float or None
        RBF kernel bandwidth (median heuristic when ``None``).
    max_sweeps, n_init, random_state : optimisation controls.

    Attributes
    ----------
    labels_ : ndarray
    objective_ : float — final ``O(C)`` (higher is better).
    quality_ : float — normalised kernel quality ``Q(C)/n``.
    penalty_ : float — summed MI against the given clusterings.
    n_iter_ : int — local-search sweeps of the winning restart.
    convergence_trace_ : list of ConvergenceEvent — per-sweep ``O(C)``
        of the winning restart (nondecreasing: only improving moves are
        applied).

    Notes
    -----
    Scoring one candidate move of an object costs O(1) per given
    clustering, from cached cluster sums and integer contingency
    counts. The scan reads them from Python lists, so an object that
    stays put costs no NumPy call. Applying a move costs
    O(n + k * k_g): two column updates of the kernel row sums and the
    MI of each touched table, recomputed from its counts with NumPy.
    """

    def __init__(self, n_clusters=2, beta=2.0, gamma=None, max_sweeps=30,
                 n_init=3, random_state=None):
        self.n_clusters = n_clusters
        self.beta = beta
        self.gamma = gamma
        self.max_sweeps = max_sweeps
        self.n_init = n_init
        self.random_state = random_state
        self.labels_ = None
        self.objective_ = None
        self.quality_ = None
        self.penalty_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X, given):
        X = check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        check_in_range(self.beta, "beta", low=0.0)
        givens = self._given_labels(given)
        given_codes = []
        given_sizes = []
        for g in givens:
            if g.shape[0] != n:
                raise ValidationError("given clustering length mismatch")
            _, codes = np.unique(g, return_inverse=True)
            given_codes.append(codes.astype(np.int64))
            given_sizes.append(int(codes.max()) + 1)
        rng = check_random_state(self.random_state)
        K = rbf_kernel(X, gamma=self.gamma)
        beta = float(self.beta)

        best = None
        best_trace = None
        for _ in range(max(1, int(self.n_init))):
            labels = rng.integers(k, size=n).astype(np.int64)
            state = _State(K, labels, k, given_codes, given_sizes)
            n_sweeps = 0
            with capture_convergence() as capture:
                for n_sweeps in range(1, int(self.max_sweeps) + 1):
                    improved = False
                    for i in rng.permutation(n).tolist():
                        if state.move_if_better(i, n, beta):
                            improved = True
                    budget_tick(objective=state.quality() / n
                                - beta * state.penalty())
                    if not improved:
                        break
            obj = state.quality() / n - beta * state.penalty()
            if best is None or obj > best[0]:
                best = (obj, state.labels.copy(), state.quality() / n,
                        state.penalty(), n_sweeps)
                best_trace = capture.events
        obj, labels, quality, penalty, n_sweeps = best
        self.labels_ = labels.astype(np.int64)
        self.objective_ = float(obj)
        self.quality_ = float(quality)
        self.penalty_ = float(penalty)
        self.n_iter_ = n_sweeps
        record_convergence(self, best_trace)
        return self
