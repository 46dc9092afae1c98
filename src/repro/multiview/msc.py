"""mSC — multiple non-redundant spectral clustering views (Niu & Dy
2010) — slide 90.

Learns ``T`` views simultaneously; each view ``v`` is a low-dimensional
linear projection ``W_v`` (orthonormal columns) plus a spectral
clustering of the projected data. The subspace search is steered toward
*independent* views by penalising the Hilbert-Schmidt Independence
Criterion between projections (slide 90):

    maximize_v  tr(W_v^T  Xc^T U_v U_v^T Xc  W_v)
                - lam * sum_{u != v} HSIC_lin(Xc W_v, Xc W_u)
    s.t. W_v^T W_v = I

solved by alternating (a) spectral embedding ``U_v`` of the data
projected by ``W_v`` and (b) an eigenvector update of ``W_v`` — each
view's subspace chases its own cluster structure while staying
statistically independent of the other views' subspaces.
"""

from __future__ import annotations

import numpy as np

from ..cluster.kmeans import KMeans
from ..cluster.spectral import spectral_embedding
from ..core.base import MultiClusteringEstimator
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..metrics.hsic import normalized_hsic
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

__all__ = ["MultipleSpectralViews"]


register(TaxonomyEntry(
    key="msc",
    reference="Niu & Dy, 2010",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="dissimilarity",
    flexible_definition=True,
    estimator="repro.multiview.msc.MultipleSpectralViews",
    notes="HSIC penalty enforces independent subspace views",
))


class MultipleSpectralViews(MultiClusteringEstimator):
    """Simultaneous spectral clustering in ``T`` HSIC-decorrelated views.

    Parameters
    ----------
    n_clusters : int — clusters per view.
    n_views : int — ``T >= 2`` views to learn.
    n_components : int or None — projection dimensionality ``q``
        (default: ``n_clusters``).
    lam : float — HSIC penalty weight (0 = independent spectral runs,
        which typically collapse onto the same dominant view).
    max_iter : int — alternating rounds.
    gamma : float or None — RBF affinity bandwidth in the projected
        space (median heuristic when None).
    random_state : int, Generator or None

    Attributes
    ----------
    labelings_ : list of ndarray — one clustering per view.
    projections_ : list of ndarray (d, q) — the learned ``W_v``.
    pairwise_hsic_ : ndarray (T, T) — normalised HSIC between final
        projected views (small off-diagonals = non-redundant views).
    n_iter_ : int — alternating rounds performed.
    convergence_trace_ : list of ConvergenceEvent
        Per-round sum over views of the penalised projection objective
        (top-``q`` eigenvalue mass). Non-monotone by design: each view's
        penalty target moves as the other views update.
    """

    def __init__(self, n_clusters=2, n_views=2, n_components=None, lam=1.0,
                 max_iter=10, gamma=None, random_state=None):
        self.n_clusters = n_clusters
        self.n_views = n_views
        self.n_components = n_components
        self.lam = lam
        self.max_iter = max_iter
        self.gamma = gamma
        self.random_state = random_state
        self.labelings_ = None
        self.projections_ = None
        self.pairwise_hsic_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X):
        X = check_array(X, min_samples=3)
        n, d = X.shape
        k = check_n_clusters(self.n_clusters, n)
        T = int(self.n_views)
        if T < 2:
            raise ValidationError("n_views must be >= 2")
        check_in_range(self.lam, "lam", low=0.0)
        q = int(self.n_components or k)
        q = min(q, d)
        rng = check_random_state(self.random_state)
        Xc = X - X.mean(axis=0, keepdims=True)

        # Random orthonormal initial projections (distinct per view).
        Ws = []
        for _ in range(T):
            M = rng.standard_normal((d, q))
            Q, _ = np.linalg.qr(M)
            Ws.append(Q[:, :q])

        embeddings = [None] * T
        n_rounds = 0
        with capture_convergence() as capture:
            for n_rounds in range(1, int(self.max_iter) + 1):
                round_obj = 0.0
                for v in range(T):
                    Z = Xc @ Ws[v]
                    W_aff = rbf_kernel(Z, gamma=self.gamma)
                    np.fill_diagonal(W_aff, 0.0)
                    U = spectral_embedding(W_aff, k)
                    embeddings[v] = U
                    # Structure term: project onto directions aligned with
                    # the spectral embedding's cluster geometry.
                    XU = Xc.T @ U
                    S = XU @ XU.T
                    # HSIC penalty (linear kernel): push away from the other
                    # views' occupied directions.
                    if self.lam > 0:
                        P = np.zeros((d, d))
                        for u in range(T):
                            if u == v:
                                continue
                            B = Xc @ Ws[u]
                            G = Xc.T @ B
                            P += G @ G.T
                        scale = (np.linalg.norm(S)
                                 / max(np.linalg.norm(P), 1e-12))
                        S = S - self.lam * scale * P
                    vals, vecs = np.linalg.eigh(S)
                    top = np.argsort(vals)[::-1][:q]
                    Ws[v] = vecs[:, top]
                    round_obj += float(vals[top].sum())
                budget_tick(objective=round_obj)

        labelings = []
        for v in range(T):
            km = KMeans(n_clusters=k, n_init=10,
                        random_state=rng.integers(2**31 - 1))
            labelings.append(km.fit(embeddings[v]).labels_)
        hsic_mat = np.eye(T)
        for v in range(T):
            for u in range(v + 1, T):
                h = normalized_hsic(Xc @ Ws[v], Xc @ Ws[u])
                hsic_mat[v, u] = hsic_mat[u, v] = h
        self.labelings_ = labelings
        self.projections_ = Ws
        self.pairwise_hsic_ = hsic_mat
        self.n_iter_ = n_rounds
        record_convergence(self, capture.events)
        return self
