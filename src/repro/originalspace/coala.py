"""COALA (Bae & Bailey 2006) — slides 31-33.

Given a clustering, every within-cluster pair becomes a cannot-link
constraint. Average-link agglomeration then proceeds with two candidate
merges at each step:

* the **quality merge** — globally closest pair of groups, constraints
  ignored (distance ``dqual``);
* the **dissimilarity merge** — closest pair among pairs whose union
  violates no constraint (distance ``ddiss``).

The quality merge is taken when ``dqual < w * ddiss``, otherwise the
dissimilarity merge; small ``w`` prefers dissimilar alternatives, large
``w`` prefers quality (slide 33).
"""

from __future__ import annotations

import numpy as np

from ..cluster.hierarchical import LinkageMatrix
from ..core.base import AlternativeClusterer
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..observability.telemetry import capture_convergence, record_convergence
from ..observability.tracer import traced_fit
from ..robustness.guard import budget_tick
from ..utils.linalg import pairwise_distances
from ..utils.validation import check_array, check_in_range, check_n_clusters

__all__ = ["COALA"]


register(TaxonomyEntry(
    key="coala",
    reference="Bae & Bailey, 2006",
    search_space=SearchSpace.ORIGINAL,
    processing=Processing.ITERATIVE,
    given_knowledge=True,
    n_clusterings="2",
    view_detection="",
    flexible_definition=False,
    estimator="repro.originalspace.coala.COALA",
    notes="cannot-link constraints from the given clustering",
))


class COALA(AlternativeClusterer):
    """Constrained agglomerative alternative clustering.

    Parameters
    ----------
    n_clusters : int
        Number of clusters in the alternative solution.
    w : float in (0, inf)
        Quality-vs-dissimilarity trade-off: the quality merge is chosen
        when ``dqual < w * ddiss``. ``w -> 0`` forces dissimilarity
        merges whenever one exists; ``w -> inf`` reduces to plain
        average-link clustering.

    Attributes
    ----------
    labels_ : ndarray — the alternative clustering.
    n_quality_merges_, n_dissimilarity_merges_ : int
        How often each merge type fired (reported in experiment F2).
    n_iter_ : int — merge steps performed.
    convergence_trace_ : list of ConvergenceEvent
        Per-merge chosen linkage distance. Non-monotone by design:
        alternating between quality and dissimilarity merges mixes two
        distance scales.
    """

    def __init__(self, n_clusters=2, w=1.0):
        self.n_clusters = n_clusters
        self.w = w
        self.labels_ = None
        self.n_quality_merges_ = None
        self.n_dissimilarity_merges_ = None
        self.n_iter_ = None
        self.convergence_trace_ = None

    @traced_fit
    def fit(self, X, given):
        X = check_array(X, min_samples=2)
        n = X.shape[0]
        k = check_n_clusters(self.n_clusters, n)
        check_in_range(self.w, "w", low=0.0, inclusive_low=False)
        given_list = self._given_labels(given)
        if len(given_list) != 1:
            raise ValidationError("COALA accepts exactly one given clustering")
        given_labels = given_list[0]
        if given_labels.shape[0] != n:
            raise ValidationError("given clustering length mismatch")

        # Cannot-link: objects sharing a (non-noise) given cluster. A pair
        # of groups is "Dissimilar" (merge allowed) iff the sets of given
        # labels they touch are disjoint; the linkage matrix unions the
        # constraints of merged groups and caches each row's closest
        # allowed neighbour, so both pair searches are O(n) per step.
        same_given = (given_labels[:, None] == given_labels[None, :])
        noise = given_labels == -1
        same_given[noise, :] = False
        same_given[:, noise] = False
        np.fill_diagonal(same_given, False)
        lm = LinkageMatrix(pairwise_distances(X), linkage="average",
                           cannot_link=same_given)

        q_merges = d_merges = 0
        with capture_convergence() as capture:
            while len(lm.active) > k:
                quality = lm.closest_pair()
                if quality is None:
                    break
                dissim = lm.closest_pair(constrained=True)
                if dissim is None:
                    a, b, dist = quality
                    q_merges += 1
                else:
                    dq, dd = quality[2], dissim[2]
                    if dq < self.w * dd:
                        a, b, dist = quality
                        q_merges += 1
                    else:
                        a, b, dist = dissim
                        d_merges += 1
                budget_tick(objective=float(dist))
                lm.merge(a, b)
        self.labels_ = lm.current_labels(n)
        self.n_quality_merges_ = q_merges
        self.n_dissimilarity_merges_ = d_merges
        self.n_iter_ = q_merges + d_merges
        record_convergence(self, capture.events)
        return self
