"""P3C — projected clustering via cluster cores (Moise, Sander & Ester
2006) — slides 72/78.

P3C works statistically, bottom-up from one-dimensional evidence:

1. **intervals**: per dimension, split the range into bins and keep the
   bins whose support is significantly above the uniform expectation
   (Binomial upper-tail test with Bonferroni correction); adjacent
   significant bins merge into intervals;
2. **cluster cores**: combine intervals across dimensions apriori-style,
   keeping a combination only while its observed joint support remains
   significantly larger than expected from the one lower-dimensional
   projection with the smallest support (the paper's core condition);
   maximal surviving combinations are the cores;
3. **assignment**: every object joins the core whose box it matches on
   most dimensions (ties to the higher-dimensional core); objects
   matching none stay outliers.
"""

from __future__ import annotations

import numpy as np

from ..core.base import ParamsMixin
from ..core.subspace import SubspaceCluster, SubspaceClustering
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..utils.special import binomial_sf
from ..utils.validation import check_count, check_in_range

__all__ = ["P3C", "significant_intervals"]


register(TaxonomyEntry(
    key="p3c",
    reference="Moise et al., 2006",
    search_space=SearchSpace.SUBSPACES,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings=">=2",
    view_detection="no dissimilarity",
    flexible_definition=False,
    estimator="repro.subspace.p3c.P3C",
    notes="statistically significant intervals -> cluster cores",
))


def significant_intervals(values, *, n_bins=10, alpha=1e-3):
    """Intervals of a 1-d sample with significantly elevated support.

    Bins whose count exceeds the Binomial(n, 1/n_bins) upper tail at
    level ``alpha / n_bins`` (Bonferroni) are marked; adjacent marked
    bins merge. Returns a list of ``(low, high, support_indices)``.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return []
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1,
                  0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    threshold_p = alpha / n_bins
    marked = binomial_sf(counts - 1, n, 1.0 / n_bins) <= threshold_p
    intervals = []
    b = 0
    while b < n_bins:
        if not marked[b]:
            b += 1
            continue
        start = b
        while b + 1 < n_bins and marked[b + 1]:
            b += 1
        members = np.flatnonzero((idx >= start) & (idx <= b))
        intervals.append((float(edges[start]), float(edges[b + 1]), members))
        b += 1
    return intervals


class P3C(ParamsMixin):
    """Projected clustering via statistically significant cluster cores.

    Parameters
    ----------
    n_bins : int — per-dimension histogram resolution.
    alpha : float — significance level of the interval / core tests.
    max_dim : int or None — cap on core dimensionality.
    min_support : int — minimum objects in a core.

    Attributes
    ----------
    clusters_ : SubspaceClustering — the maximal cluster cores.
    labels_ : ndarray — hard assignment (``-1`` outliers).
    intervals_ : dict dim -> list of (low, high) significant intervals.
    """

    def __init__(self, n_bins=10, alpha=1e-3, max_dim=None, min_support=4):
        self.n_bins = n_bins
        self.alpha = alpha
        self.max_dim = max_dim
        self.min_support = min_support
        self.clusters_ = None
        self.labels_ = None
        self.intervals_ = None

    def fit(self, X):
        X = self._check_array(X)
        check_in_range(self.alpha, "alpha", low=0.0, high=1.0,
                       inclusive_low=False)
        n_bins = check_count(self.n_bins, "n_bins", low=2, estimator=self)
        check_count(self.min_support, "min_support", estimator=self)
        n, d = X.shape
        max_dim = d if self.max_dim is None else min(int(self.max_dim), d)

        # Step 1: per-dimension significant intervals.
        interval_members = {}    # (dim, interval_idx) -> member indices
        interval_bounds = {}
        per_dim = {}
        for j in range(d):
            found = significant_intervals(X[:, j], n_bins=n_bins,
                                          alpha=self.alpha)
            per_dim[j] = [(lo, hi) for lo, hi, _ in found]
            for t, (lo, hi, members) in enumerate(found):
                interval_members[(j, t)] = frozenset(members.tolist())
                interval_bounds[(j, t)] = (lo, hi)

        # Step 2: apriori combination of intervals into cores. Nodes of
        # the lattice are tuples of (dim, interval) pairs with distinct
        # dims; we encode them by their sorted (dim, t) keys.
        def support(combo):
            sets = [interval_members[key] for key in combo]
            out = sets[0]
            for s in sets[1:]:
                out = out & s
            return out

        def is_core(combo, members):
            if len(members) < self.min_support:
                return False
            if len(combo) == 1:
                return True
            # Expected support if one interval were independent of the
            # rest: |rest| * p(interval). Take the strictest parent.
            worst_p = 1.0
            for i, key in enumerate(combo):
                rest = combo[:i] + combo[i + 1:]
                rest_support = len(support(rest))
                p_int = len(interval_members[key]) / n
                expected = rest_support * p_int
                pval = binomial_sf(len(members) - 1, max(rest_support, 1),
                                   min(p_int, 1.0))
                worst_p = min(worst_p, pval)
                if expected >= len(members):
                    return False
            return worst_p <= self.alpha

        level = []
        survivors = {}
        for key in interval_members:
            combo = (key,)
            members = support(combo)
            if is_core(combo, members):
                level.append(combo)
                survivors[combo] = members
        all_cores = dict(survivors)
        size = 1
        while level and size < max_dim:
            # join combos sharing all but the last key, distinct dims
            keys_sorted = sorted(level)
            next_level = []
            seen = set()
            for i, a in enumerate(keys_sorted):
                for b in keys_sorted[i + 1:]:
                    if a[:-1] != b[:-1]:
                        continue
                    if a[-1][0] == b[-1][0]:
                        continue  # same dimension twice
                    cand = a + (b[-1],)
                    if cand in seen:
                        continue
                    seen.add(cand)
                    members = support(cand)
                    if is_core(cand, members):
                        next_level.append(cand)
                        all_cores[cand] = members
            level = next_level
            size += 1

        # Keep only maximal cores (no surviving superset).
        combos = sorted(all_cores, key=len, reverse=True)
        maximal = []
        for combo in combos:
            cset = set(combo)
            if any(cset < set(m) for m in maximal):
                continue
            maximal.append(combo)
        clusters = []
        for combo in maximal:
            members = all_cores[combo]
            dims = tuple(sorted({key[0] for key in combo}))
            if len(dims) < 1 or len(members) < self.min_support:
                continue
            clusters.append(SubspaceCluster(sorted(members), dims,
                                            quality=len(members) / n))

        # Step 3: hard assignment by best-matching core box.
        labels = np.full(n, -1, dtype=np.int64)
        best_match = np.zeros(n, dtype=np.int64)
        for cid, combo in enumerate(maximal[:len(clusters)]):
            matches = np.zeros(n, dtype=np.int64)
            for key in combo:
                j, _ = key
                lo, hi = interval_bounds[key]
                inside = (X[:, j] >= lo) & (X[:, j] <= hi)
                matches += inside.astype(np.int64)
            better = matches > best_match
            full = matches == len(combo)
            update = full & better
            labels[update] = cid
            best_match[update] = matches[update]
        self.clusters_ = SubspaceClustering(clusters, name="P3C")
        self.labels_ = labels
        self.intervals_ = per_dim
        return self

    def fit_predict(self, X):
        """Fit and return the :class:`SubspaceClustering` result."""
        return self.fit(X).clusters_
