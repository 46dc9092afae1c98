"""Differential oracles: each optimised kernel against a naive reference.

* :class:`repro.cluster.LinkageMatrix` caches each row's nearest
  neighbour; :class:`NaiveLinkage` is the flat-argmin, Python-loop
  version it replaced. Their merge sequences (pairs and distances) must
  be bit-identical for every linkage, with and without cannot-link
  constraints, including on tie-heavy inputs.
* :func:`repro.metrics.density_profile` bins each value once and counts
  with ``np.bincount``; the reference is one ``np.histogram`` per cluster
  and attribute, whose last bin includes its right edge.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import LinkageMatrix
from repro.metrics import density_profile
from repro.utils.linalg import pairwise_distances


class NaiveLinkage:
    """O(n^3) reference: a full argmin over the n x n matrix per step,
    a Python Lance-Williams loop, and a cannot-link mask rebuilt with
    ``np.where`` on every constrained search."""

    def __init__(self, d, linkage, cannot_link=None):
        self.linkage = linkage
        self.d = np.asarray(d, dtype=np.float64).copy()
        np.fill_diagonal(self.d, np.inf)
        n = self.d.shape[0]
        self.active = set(range(n))
        self.sizes = {i: 1 for i in range(n)}
        self.blocked = None if cannot_link is None else cannot_link.copy()

    def closest_pair(self, constrained=False):
        d = np.where(self.blocked, np.inf, self.d) if constrained else self.d
        a, b = divmod(int(np.argmin(d)), d.shape[1])
        if not np.isfinite(d[a, b]):
            return None
        if a > b:
            a, b = b, a
        return (a, b, float(d[a, b]))

    def merge(self, a, b):
        na, nb = self.sizes[a], self.sizes[b]
        for c in self.active:
            if c in (a, b):
                continue
            dac, dbc = self.d[a, c], self.d[b, c]
            if self.linkage == "single":
                new = min(dac, dbc)
            elif self.linkage == "complete":
                new = max(dac, dbc)
            else:
                new = (na * dac + nb * dbc) / (na + nb)
            self.d[a, c] = self.d[c, a] = new
        self.d[b, :] = np.inf
        self.d[:, b] = np.inf
        self.active.remove(b)
        self.sizes[a] = na + nb
        del self.sizes[b]
        if self.blocked is not None:
            union = self.blocked[a] | self.blocked[b]
            self.blocked[a, :] = union
            self.blocked[:, a] = union


def _symmetric(values, n):
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = values
    return d + d.T


@st.composite
def distance_matrices(draw):
    """Random and tie-heavy symmetric distance matrices, n in [1, 14]."""
    n = draw(st.integers(1, 14))
    m = n * (n - 1) // 2
    kind = draw(st.sampled_from(
        ["float", "integer", "all-equal", "duplicate-rows"]))
    if kind == "float":
        values = draw(arrays(np.float64, m, elements=st.floats(0, 100)))
        return _symmetric(values, n)
    if kind == "integer":
        values = draw(arrays(np.float64, m, elements=st.integers(0, 3)))
        return _symmetric(values, n)
    if kind == "all-equal":
        return np.full((n, n), draw(st.sampled_from([0.0, 1.0, 2.5])))
    points = draw(arrays(np.float64, (n, 2), elements=st.integers(0, 2)))
    return pairwise_distances(points)


@st.composite
def linkage_problems(draw):
    d = draw(distance_matrices())
    n = d.shape[0]
    linkage = draw(st.sampled_from(["single", "complete", "average"]))
    mode = draw(st.sampled_from(["none", "random", "given", "all"]))
    cannot = None
    if mode == "random":
        upper = draw(arrays(np.bool_, (n, n)))
        cannot = np.triu(upper, 1)
        cannot = cannot | cannot.T
    elif mode == "given":  # COALA's constraints from a given clustering
        labels = draw(arrays(np.int64, n, elements=st.integers(-1, 2)))
        cannot = (labels[:, None] == labels[None, :]) & (labels[:, None] >= 0)
        np.fill_diagonal(cannot, False)
    elif mode == "all":
        cannot = ~np.eye(n, dtype=bool)
    choices = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return d, linkage, cannot, choices


def _assert_nearest_exact(lm):
    """The cached neighbours equal a fresh first-index argmin per row."""
    d = lm._d
    assert np.array_equal(lm._nearest.nn, np.argmin(d, axis=1))
    if lm._linkable is not None:
        masked = np.where(lm._linkable.mask, np.inf, d)
        assert np.array_equal(lm._linkable.nn, np.argmin(masked, axis=1))


class TestLinkageMatrixOracle:
    @settings(max_examples=300, deadline=None)
    @given(linkage_problems())
    def test_merge_sequence_bit_identical(self, problem):
        d, linkage, cannot, choices = problem
        fast = LinkageMatrix(d, linkage=linkage, cannot_link=cannot)
        naive = NaiveLinkage(d, linkage, cannot_link=cannot)
        for take_constrained in choices:
            _assert_nearest_exact(fast)
            pair = fast.closest_pair()
            assert pair == naive.closest_pair()
            if cannot is not None:
                linkable = fast.closest_pair(constrained=True)
                assert linkable == naive.closest_pair(constrained=True)
                if take_constrained and linkable is not None:
                    pair = linkable
            if pair is None:
                break
            a, b, dist = pair
            assert fast.merge(a, b) == a
            naive.merge(a, b)
            assert fast.active == naive.active
        assert fast.closest_pair() == naive.closest_pair()

    @settings(max_examples=100, deadline=None)
    @given(distance_matrices(), st.integers(1, 14),
           st.sampled_from(["single", "complete", "average"]))
    def test_cut_matches_naive_loop(self, d, k, linkage):
        fast = LinkageMatrix(d, linkage=linkage)
        naive = NaiveLinkage(d, linkage)
        expected = []
        while len(naive.active) > k:
            pair = naive.closest_pair()
            if pair is None:
                break
            naive.merge(pair[0], pair[1])
            expected.append(pair)
        assert fast.cut(k) == expected
        assert fast.active == naive.active

    def test_two_objects(self):
        lm = LinkageMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert lm.cut(1) == [(0, 1, 2.0)]
        assert lm.closest_pair() is None

    def test_every_pair_blocked(self):
        n = 5
        lm = LinkageMatrix(np.ones((n, n)), cannot_link=~np.eye(n, dtype=bool))
        assert lm.closest_pair(constrained=True) is None
        assert lm.closest_pair() == (0, 1, 1.0)


def naive_density_profile(X, labels, bin_edges):
    n_bins = bin_edges.shape[1] - 1
    ids = np.unique(labels)
    ids = ids[ids != -1]
    profile = np.zeros((ids.size, X.shape[1] * n_bins))
    for ci, cid in enumerate(ids):
        pts = X[labels == cid]
        for j in range(X.shape[1]):
            counts, _ = np.histogram(pts[:, j], bins=bin_edges[j])
            profile[ci, j * n_bins:(j + 1) * n_bins] = counts
    return profile


@st.composite
def profile_problems(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    # integers on a grid whose lines are exact bin edges, plus floats
    grid = draw(st.booleans())
    elements = (st.integers(-1, 5) if grid
                else st.floats(-10, 10, allow_nan=False))
    X = draw(arrays(np.float64, (n, d), elements=elements))
    labels = draw(arrays(np.int64, n, elements=st.integers(-1, 3)))
    n_bins = draw(st.integers(1, 6))
    explicit = draw(st.booleans())
    return X, labels, n_bins, explicit


class TestDensityProfileOracle:
    @settings(max_examples=300, deadline=None)
    @given(profile_problems())
    def test_matches_per_cluster_histograms(self, problem):
        X, labels, n_bins, explicit = problem
        if explicit:
            # integer edges 0..4: grid values sit on them, -1 and 5 fall
            # outside and are not counted
            edges = np.tile(np.linspace(0.0, 4.0, 5), (X.shape[1], 1))
            profile, out = density_profile(X, labels, bin_edges=edges)
        else:
            profile, out = density_profile(X, labels, n_bins=n_bins)
        expected = naive_density_profile(X, labels, out)
        assert profile.dtype == expected.dtype
        assert np.array_equal(profile, expected)

    def test_right_edge_in_last_bin_and_outside_dropped(self):
        X = np.array([[0.0], [1.0], [2.0], [4.0], [4.5], [-0.5]])
        labels = np.zeros(6, dtype=np.int64)
        edges = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        profile, _ = density_profile(X, labels, bin_edges=edges)
        assert profile.tolist() == [[1.0, 1.0, 1.0, 1.0]]
        assert np.array_equal(profile, naive_density_profile(X, labels, edges))
