"""STATPC-style statistical cluster selection (Moise & Sander 2008) —
slide 78.

Principle: the result set should *explain* every other clustered region
— a candidate is added only when its object count cannot be explained by
the clusters already selected.

This implementation keeps the paper's two statistical ingredients while
simplifying the candidate generation (candidates come from any base
miner, CLIQUE by default — the tutorial notes the cluster definition
"could be exchanged in a more general processing"):

* **significance**: a candidate ``(O, S)`` is statistically significant
  when observing ``|O|`` objects in its bounding box is unlikely under a
  uniform null — a Binomial(n, volume) tail test at level ``alpha0``;
* **explain relation**: given the current selection, the expected number
  of the candidate's objects already covered follows from micro-cell
  overlap; if the candidate's *unexplained* mass is small, it is
  redundant and skipped.
"""

from __future__ import annotations

import numpy as np

from ..core.base import ParamsMixin
from ..core.subspace import SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..utils.special import binomial_sf
from ..utils.validation import check_array, check_in_range

__all__ = ["StatPC", "cluster_significance"]


register(TaxonomyEntry(
    key="statpc",
    reference="Moise & Sander, 2008",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="no dissimilarity",
    flexible_definition=False,
    estimator="repro.subspace.statpc.StatPC",
    notes="statistically significant, mutually explaining selection",
))


def cluster_significance(X, cluster):
    """P-value of a subspace cluster under the uniform null.

    The cluster's bounding box in its subspace has relative volume ``v``
    (product over dims of box-width / data-range); under uniformity the
    box holds ``Binomial(n, v)`` objects, and the p-value is the upper
    tail at the observed count. Smaller = more surprising.
    """
    X = check_array(X)
    n = X.shape[0]
    objs = sorted(cluster.objects)
    dims = sorted(cluster.dims)
    vol = 1.0
    for dim in dims:
        col = X[:, dim]
        lo, hi = col.min(), col.max()
        span = hi - lo
        if span <= 0:
            continue
        sub = X[objs, dim]
        width = float(sub.max() - sub.min())
        # A degenerate (zero-width) box still occupies one "point slab";
        # floor at 1/n of the range to keep the null well-defined.
        vol *= max(width / span, 1.0 / n)
    vol = min(vol, 1.0)
    return float(binomial_sf(len(objs) - 1, n, vol))


class StatPC(ParamsMixin):
    """Greedy statistically-guided selection of non-redundant clusters.

    Parameters
    ----------
    alpha0 : float
        Significance level for admitting a candidate at all.
    alpha_explain : float
        A candidate is *explained* (skipped) when the fraction of its
        objects not yet covered by selected clusters sharing >= 1
        dimension is below this value.
    base_miner : object or None
        Anything with ``fit_predict(X) -> SubspaceClustering``; default
        CLIQUE with moderate settings.

    Attributes
    ----------
    clusters_ : SubspaceClustering — the selected result ``M``.
    candidates_ : SubspaceClustering — the full candidate set ``ALL``.
    p_values_ : list of float — aligned with ``candidates_``.
    """

    def __init__(self, alpha0=1e-3, alpha_explain=0.25, base_miner=None):
        self.alpha0 = alpha0
        self.alpha_explain = alpha_explain
        self.base_miner = base_miner
        self.clusters_ = None
        self.candidates_ = None
        self.p_values_ = None

    def fit(self, X, candidates=None):
        X = check_array(X)
        check_in_range(self.alpha0, "alpha0", low=0.0, high=1.0,
                       inclusive_low=False)
        check_in_range(self.alpha_explain, "alpha_explain", low=0.0, high=1.0)
        if candidates is None:
            miner = self.base_miner
            if miner is None:
                from .clique import CLIQUE

                miner = CLIQUE(n_intervals=8, density_threshold=0.03)
            candidates = miner.fit_predict(X)
        if not isinstance(candidates, SubspaceClustering):
            candidates = SubspaceClustering(candidates)
        if len(candidates) == 0:
            raise ValidationError("no candidate clusters to select from")
        pvals = [cluster_significance(X, c) for c in candidates]
        order = np.argsort(pvals)
        selected = []
        covered_by_dim = {}
        for idx in order:
            c = candidates[int(idx)]
            if pvals[int(idx)] > self.alpha0:
                break  # sorted: everything after is even less significant
            # Explained? objects already covered by selected clusters that
            # share at least one dimension with the candidate.
            already = set()
            for dim in c.dims:
                already |= covered_by_dim.get(dim, set())
            new_frac = len(c.objects - already) / len(c.objects)
            if selected and new_frac < self.alpha_explain:
                continue
            selected.append(c)
            for dim in c.dims:
                covered_by_dim.setdefault(dim, set()).update(c.objects)
        self.clusters_ = SubspaceClustering(selected, name="StatPC")
        self.candidates_ = candidates
        self.p_values_ = [float(p) for p in pvals]
        return self

    def fit_predict(self, X, candidates=None):
        """Fit and return the selected :class:`SubspaceClustering`."""
        return self.fit(X, candidates=candidates).clusters_
