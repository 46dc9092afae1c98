"""Differential oracles: each optimised kernel against a naive reference.

* :class:`repro.cluster.LinkageMatrix` caches each row's nearest
  neighbour; :class:`NaiveLinkage` is the flat-argmin, Python-loop
  version it replaced. Their merge sequences (pairs and distances) must
  be bit-identical for every linkage, with and without cannot-link
  constraints, including on tie-heavy inputs. The cache must equal a
  fresh first-index argmin of every row, retired rows included.
* :func:`repro.cluster.dbscan_from_neighborhoods` expands each cluster
  one breadth-first level at a time over a boolean adjacency;
  :func:`naive_dbscan` is the per-neighbour stack expansion it replaced.
  Labels and the core mask must be identical for symmetric and directed
  neighbourhoods, shuffled neighbour order and empty rows, given as a
  matrix or as index arrays.
* :func:`repro.metrics.density_profile` bins each value once and counts
  with ``np.bincount``; the reference is one ``np.histogram`` per cluster
  and attribute, whose last bin includes its right edge.
* The local searches of MinCEntropy, CIB and ADCOAlternative score each
  single-object move from cached cluster state. The references rebuild
  the whole objective for the moved labeling: ``_mi_from_counts`` on the
  modified tables, CIB's ``_terms``, and ADCO's per-cluster objective.
  Scores must match to 1e-12 (ADCO bit for bit), and after any sequence
  of applied moves the cache must equal a fresh build. The move scan of
  MinCEntropy and KernelKMeans reads Python lists; the reference is the
  NumPy-backed :class:`ScalarMoveState` it replaced, and after every
  object of a full sweep both must hold the same labels, sizes, ``W``,
  ``R`` and MI, bit for bit.
* :func:`repro.cluster.spectral_embedding` takes the top-k eigenvectors
  from a certified block subspace iteration; the reference is a dense
  ``eigh``. Whenever the ``spectral.embedding`` span says the block path
  ran, the projectors must agree to 1e-10; an affinity whose top
  eigenvalue repeats at position k must fall back to the dense path and
  return exactly what it returns.
* :func:`repro.utils.linalg.rbf_kernel` takes the median distance over
  the strict upper triangle; the reference is the median over every
  positive entry of the full matrix. The kernels must be bit-identical.
* :func:`repro.utils.min_cost_assignment` and
  :func:`repro.utils.binomial_sf` replace SciPy, which is a test-only
  dependency and their oracle: ``scipy.optimize.linear_sum_assignment``
  must reach the same total cost (on tied integer grids the chosen pairs
  may differ), and ``scipy.stats.binom.sf`` must agree to 1e-12 relative
  wherever it is itself accurate. In deep tails SciPy 1.17 loses digits
  (at n = 1999, p = 0.7, k = 1961 it is 17 % off), so there an exact
  rational sum decides.
* :func:`repro.cluster.kmeans_plus_plus` draws each center by a direct
  inverse-CDF search; the reference draws with ``rng.choice``. Centers
  and the generator's next draw must be identical. Lloyd's centroid
  update sums with ``np.bincount``; the reference takes one mean per
  cluster and must agree to 1e-12, empty clusters included.
* :func:`repro.cluster.e_step` and :func:`repro.cluster.m_step` handle
  all mixture components at once; the references are the per-component
  density and covariance loops they replaced. Both must be bit-identical
  for every covariance type, and a covariance stack that does not factor
  must give the component path's result and warning.
* :func:`repro.metrics.pair_confusions` factorises each labeling once and
  counts every pair's table with one ``np.bincount``; the reference
  builds each pair's contingency table from scratch (two ``np.unique``
  and an ``np.add.at``) and scores it with the scalar Rand and ARI
  formulas. Counts and :func:`repro.metrics.agreement_matrix` must be
  bit-identical, and a pair that clusters no object in common must fail
  (or score ``no_overlap``) exactly where the reference raises.
* :func:`repro.metrics.normalized_hsic` builds and centres each view's
  kernel once; the reference is three :func:`repro.metrics.hsic` calls
  (cross term and both self terms). The scores must be bit-identical.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.stats import binom

from repro.cluster import (
    LinkageMatrix,
    dbscan_from_neighborhoods,
    kmeans_plus_plus,
    normalized_laplacian,
    spectral_embedding,
)
from repro.cluster.gmm import (
    _regularized_cholesky,
    e_step,
    gaussian_log_density,
    m_step,
)
from repro.cluster.kmeans import _update_centers
from repro.cluster.spectral import (
    _MAX_STEPS,
    _block_eigenvectors,
    _normalized_affinity,
)
from repro.data import make_multiple_truths
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.metrics import (
    adco_similarity,
    agreement_matrix,
    density_profile,
    hsic,
    normalized_hsic,
    pair_confusion,
    pair_confusions,
)
from repro.metrics.clusterings import ProfileBinning
from repro.observability import Tracer
from repro.originalspace import ConditionalInformationBottleneck
from repro.originalspace.adco_alt import _State as ADCOState
from repro.originalspace.cib import _State as CIBState
from repro.originalspace.mincentropy import _State as MinCEntropyState
from repro.originalspace.mincentropy import _mi_from_counts
from repro.utils import binomial_sf, min_cost_assignment
from repro.utils.linalg import (
    cdist_sq,
    logsumexp,
    pairwise_distances,
    pairwise_sq_distances,
    rbf_kernel,
)


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


# -- DBSCAN expansion ----------------------------------------------------------


def naive_dbscan(neighborhoods, min_pts):
    """The per-neighbour expansion: a stack of candidate objects fed one
    neighbour at a time, from index-array neighbourhoods."""
    n = len(neighborhoods)
    core_mask = np.array([len(nb) >= min_pts for nb in neighborhoods],
                         dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != -1 or not core_mask[seed]:
            continue
        labels[seed] = cluster_id
        frontier = list(neighborhoods[seed])
        while frontier:
            p = frontier.pop()
            if labels[p] == -1:
                labels[p] = cluster_id
                if core_mask[p]:
                    frontier.extend(
                        q for q in neighborhoods[p] if labels[q] == -1
                    )
        cluster_id += 1
    return labels, core_mask


@st.composite
def neighborhood_problems(draw):
    """An adjacency matrix, n in [0, 40], and ``min_pts`` in 1..6.

    Symmetric (an eps-ball) or directed (PreDeCon's masked rows), with
    or without each object in its own neighbourhood, some rows emptied,
    and each row's index array in a shuffled order.
    """
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = rng.random((n, n)) < draw(st.sampled_from([0.02, 0.08, 0.3]))
    if draw(st.booleans()):
        adjacency |= adjacency.T
    if draw(st.booleans()):
        np.fill_diagonal(adjacency, True)
    adjacency[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = False
    lists = [rng.permutation(np.flatnonzero(row)) for row in adjacency]
    return adjacency, lists, draw(st.integers(1, 6))


class TestDBSCANExpansionOracle:
    @settings(max_examples=300, deadline=None)
    @given(neighborhood_problems())
    def test_matches_per_neighbour_expansion(self, problem):
        adjacency, lists, min_pts = problem
        expected_labels, expected_core = naive_dbscan(lists, min_pts)
        for neighborhoods in (adjacency, lists):
            labels, core = dbscan_from_neighborhoods(neighborhoods, min_pts)
            assert labels.dtype == np.int64 and core.dtype == bool
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(core, expected_core)

    def test_border_takes_first_cluster(self):
        # 2 is a border object of both cores 0 and 4; cluster 0 gets it
        lists = [[0, 1, 2], [0, 1], [2], [3, 4], [2, 3, 4]]
        labels, core = dbscan_from_neighborhoods(lists, 2)
        assert labels.tolist() == [0, 0, 0, 1, 1]
        assert core.tolist() == [True, True, False, True, True]

    def test_directed_reach(self):
        # a directed chain 0 -> 1 -> 3 of two cores; nothing reaches 4
        lists = [[0, 1, 2], [1, 3], [], [3], []]
        labels, _ = dbscan_from_neighborhoods(lists, 2)
        assert labels.tolist() == [0, 0, 0, 0, -1]
        assert np.array_equal(labels, naive_dbscan(lists, 2)[0])


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


@st.composite
def local_search_problems(draw, non_negative=False):
    """Data, a labeling and given clusterings for one local search.

    Small n makes empty and singleton clusters common; given clusterings
    have one to three groups (one group: a single given cluster).
    Integer data has duplicate rows and, when non-negative, rows and
    whole groups without mass.
    """
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 2)))
    elif non_negative:
        # Positive masses reach down to the smallest subnormal, where
        # p(c|d) * p(y|d) underflows to zero
        elements = st.one_of(
            st.just(0.0),
            st.floats(np.finfo(np.float64).smallest_subnormal, 5.0))
        X = draw(arrays(np.float64, (n, d), elements=elements))
    else:
        X = draw(arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
    if non_negative and X.sum() <= 0:
        X[0, 0] = 1.0
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    givens = [draw(arrays(np.int64, n, elements=st.integers(0, kg - 1)))
              for kg in draw(st.lists(st.integers(1, 3), min_size=1,
                                      max_size=2))]
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, k - 1)), max_size=8))
    return X, labels, k, givens, moves


# -- minCEntropy ---------------------------------------------------------------


class ScalarMoveState:
    """The move scan before its scan-side state moved to Python lists:
    NumPy ``labels``, ``sizes`` and ``W``, one ``.tolist()`` of each per
    scored object, and the kernel diagonal read from ``K``."""

    def __init__(self, K, labels, k, given_codes, given_sizes):
        self.K = K
        self.n = n = K.shape[0]
        self.k = k
        self.labels = labels
        self.R = np.stack(
            [K[:, labels == c].sum(axis=1) for c in range(k)], axis=1
        )
        self.W = np.array([
            float(K[np.ix_(labels == c, labels == c)].sum()) for c in range(k)
        ])
        self.sizes = np.array([int(np.sum(labels == c)) for c in range(k)])
        self.given_codes = given_codes
        self.counts = []
        for g, kg in zip(given_codes, given_sizes):
            counts = np.zeros((k, kg), dtype=np.int64)
            np.add.at(counts, (labels, g), 1)
            self.counts.append(counts)
        self.mi = [_mi_from_counts(c) for c in self.counts]
        self.xlogx = [0.0] + [x * math.log(x) for x in range(1, n + 2)]

    def quality(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.sizes > 0,
                             self.W / np.maximum(self.sizes, 1), 0.0)
        return float(ratio.sum())

    def move_gains(self, i, scale=1.0, beta=0.0):
        a = int(self.labels[i])
        sizes = self.sizes.tolist()
        sa = sizes[a]
        f = self.xlogx
        n = self.n
        kii = float(self.K[i, i])
        R = self.R[i].tolist()
        W = self.W.tolist()
        wa = W[a]
        new_a = (wa - 2.0 * R[a] + kii) / (sa - 1) if sa > 1 else 0.0
        old_a = wa / sa
        cols = [counts[:, codes[i]].tolist()
                for counts, codes in zip(self.counts, self.given_codes)]
        gains = [0.0] * self.k
        for b in range(self.k):
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
        a = int(self.labels[i])
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
        kii = self.K[i, i]
        self.W[a] += -2.0 * self.R[i, a] + kii
        self.W[b] += 2.0 * self.R[i, b] + kii
        self.sizes[a] -= 1
        self.sizes[b] += 1
        self.R[:, a] -= self.K[:, i]
        self.R[:, b] += self.K[:, i]
        for g_idx, counts in enumerate(self.counts):
            g = self.given_codes[g_idx][i]
            counts[a, g] -= 1
            counts[b, g] += 1
            self.mi[g_idx] = _mi_from_counts(counts)
        self.labels[i] = b


def _assert_same_state(state, scalar):
    assert np.array_equal(state.labels, scalar.labels)
    assert state.sizes == scalar.sizes.tolist()
    assert state.W == scalar.W.tolist()
    assert np.array_equal(state.R, scalar.R)
    assert state.mi == scalar.mi
    for counts, scalar_counts in zip(state.counts, scalar.counts):
        assert np.array_equal(counts, scalar_counts)
    assert state.quality() == scalar.quality()


def _mce_state(K, labels, k, givens):
    codes = [np.unique(g, return_inverse=True)[1] for g in givens]
    return MinCEntropyState(K, labels.copy(), k, codes,
                            [int(c.max()) + 1 for c in codes])


def naive_mce_objective(K, labels, k, givens, scale, beta):
    """``Q(C)/scale - beta * sum_g I(C; C_g)``, rebuilt from scratch."""
    q = 0.0
    for c in range(k):
        members = labels == c
        if members.any():
            q += K[np.ix_(members, members)].sum() / members.sum()
    penalty = 0.0
    for g in givens:
        codes = np.unique(g, return_inverse=True)[1]
        counts = np.zeros((k, codes.max() + 1))
        np.add.at(counts, (labels, codes), 1)
        penalty += _mi_from_counts(counts)
    return q / scale - beta * penalty


class TestMinCEntropyMoveOracle:
    @settings(max_examples=150, deadline=None)
    @given(local_search_problems(), st.floats(0.0, 5.0))
    def test_gains_match_full_recompute(self, problem, beta):
        X, labels, k, givens, moves = problem
        K = rbf_kernel(X)
        n = X.shape[0]
        state = _mce_state(K, labels, k, givens)
        for i, b in [(i, None) for i in range(n)] + moves:
            gains = state.move_gains(i, n, beta)
            before = naive_mce_objective(K, state.labels, k, givens, n, beta)
            for c in range(k):
                moved = state.labels.copy()
                moved[i] = c
                after = naive_mce_objective(K, moved, k, givens, n, beta)
                assert abs(gains[c] - (after - before)) <= 1e-12
            if b is not None and b != state.labels[i]:
                state.apply_move(i, int(state.labels[i]), b)

    @settings(max_examples=100, deadline=None)
    @given(local_search_problems())
    def test_cache_equals_fresh_build(self, problem):
        X, labels, k, givens, moves = problem
        K = rbf_kernel(X)
        state = _mce_state(K, labels, k, givens)
        for i, b in moves:
            if b != state.labels[i]:
                state.apply_move(i, int(state.labels[i]), b)
        fresh = _mce_state(K, state.labels, k, givens)
        assert np.array_equal(state.sizes, fresh.sizes)
        for counts, fresh_counts in zip(state.counts, fresh.counts):
            assert np.array_equal(counts, fresh_counts)
        assert state.mi == fresh.mi
        # R and W are running sums
        assert np.allclose(state.R, fresh.R, rtol=0.0, atol=1e-12)
        assert np.allclose(state.W, fresh.W, rtol=0.0, atol=1e-12)


class TestMoveScanOracle:
    """The list-backed move scan against :class:`ScalarMoveState`: the
    same gains, moves and state, bit for bit, after every object of
    full local-search sweeps."""

    @staticmethod
    def _sweep_both(K, labels, k, givens, scale, beta, rng, sweeps=3):
        codes = [np.unique(g, return_inverse=True)[1] for g in givens]
        sizes = [int(c.max()) + 1 for c in codes]
        state = MinCEntropyState(K, labels.copy(), k, codes, sizes)
        scalar = ScalarMoveState(K, labels.copy(), k, codes, sizes)
        _assert_same_state(state, scalar)
        for _ in range(sweeps):
            for i in rng.permutation(K.shape[0]).tolist():
                assert state.move_gains(i, scale, beta) == \
                    scalar.move_gains(i, scale, beta)
                assert state.move_if_better(i, scale, beta) == \
                    scalar.move_if_better(i, scale, beta)
                _assert_same_state(state, scalar)

    @settings(max_examples=150, deadline=None)
    @given(local_search_problems(), st.floats(0.0, 5.0),
           st.integers(0, 2**32 - 1))
    def test_sweeps_match_scalar_state(self, problem, beta, seed):
        X, labels, k, givens, _ = problem
        n = X.shape[0]
        self._sweep_both(rbf_kernel(X), labels, k, givens, n, beta,
                         np.random.default_rng(seed))

    @pytest.mark.parametrize("n_given", [0, 1, 2])
    def test_planted_sweeps_match_scalar_state(self, n_given):
        """MinCEntropy with one and with two givens, and KernelKMeans
        (no given, unit scale, no penalty), on planted data."""
        X, truths, _ = make_multiple_truths(n_samples=90, random_state=3)
        rng = np.random.default_rng(n_given)
        labels = rng.integers(3, size=90).astype(np.int64)
        scale, beta = (1.0, 0.0) if n_given == 0 else (90, 2.0)
        self._sweep_both(rbf_kernel(X), labels, 3, truths[:n_given], scale,
                         beta, rng)


# -- CIB -----------------------------------------------------------------------


def _cib_setup(X, given):
    pxy = X / X.sum()
    return pxy, pxy.sum(axis=1), np.unique(given, return_inverse=True)[1]


def naive_cib_objective(pxy, px, labels, given, k, beta):
    i_xc, i_ycd = ConditionalInformationBottleneck()._terms(
        pxy, px, labels, given, k)
    return i_xc - beta * i_ycd


class TestCIBMoveOracle:
    @settings(max_examples=150, deadline=None)
    @given(local_search_problems(non_negative=True), st.floats(0.0, 30.0))
    def test_objectives_match_terms(self, problem, beta):
        X, labels, k, givens, moves = problem
        given = givens[0]
        pxy, px, group = _cib_setup(X, given)
        state = CIBState(pxy, px, labels.copy(), group, k, beta)
        for i, b in [(i, None) for i in range(X.shape[0])] + moves:
            objectives = state.move_objectives(i)
            for c in range(k):
                moved = state.labels.copy()
                moved[i] = c
                expected = naive_cib_objective(pxy, px, moved, given, k, beta)
                assert abs(objectives[c] - expected) <= 1e-12
            if b is not None and b != state.labels[i]:
                state.apply_move(i, int(state.labels[i]), b)

    @settings(max_examples=100, deadline=None)
    @given(local_search_problems(non_negative=True))
    def test_cache_equals_fresh_build(self, problem):
        X, labels, k, givens, moves = problem
        pxy, px, group = _cib_setup(X, givens[0])
        state = CIBState(pxy, px, labels.copy(), group, k, 5.0)
        for i, b in moves:
            if b != state.labels[i]:
                state.apply_move(i, int(state.labels[i]), b)
        fresh = CIBState(pxy, px, state.labels.copy(), group, k, 5.0)
        assert state.pc == fresh.pc
        for d in range(len(state.rows)):
            assert np.array_equal(state.tables[d], fresh.tables[d])
            assert np.array_equal(state.py[d], fresh.py[d])
        assert state.terms == fresh.terms
        assert state.info == fresh.info
        assert state.objective() == fresh.objective()

    def test_zero_mass_rows_and_groups(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        given = np.array([0, 1, 0, 1])  # group 1 has no mass
        pxy, px, group = _cib_setup(X, given)
        state = CIBState(pxy, px, np.array([0, 0, 1, 1]), group, 2, 5.0)
        assert state.terms[1] == [0.0, 0.0]
        # moving a massless object changes nothing
        objectives = state.move_objectives(1)
        assert objectives[0] == objectives[1] == state.objective()


# -- ADCOAlternative -----------------------------------------------------------


def naive_adco_objective(X, labels, given, n_bins, scale, lam):
    """The full ADCO objective: every cluster's squared error, in
    ``np.unique`` order, and the ADCO similarity of the whole labeling."""
    q = 0.0
    for c in np.unique(labels):
        pts = X[labels == c]
        q -= float(np.sum((pts - pts.mean(axis=0)) ** 2))
    q /= (X.shape[0] * scale)
    sim = adco_similarity(X, labels, given, n_bins=n_bins)
    return q - lam * sim, sim


class TestADCOMoveOracle:
    @settings(max_examples=150, deadline=None)
    @given(local_search_problems(), st.integers(1, 5), st.floats(0.0, 3.0))
    def test_scores_bit_identical(self, problem, n_bins, lam):
        X, labels, k, givens, moves = problem
        given = givens[0]
        scale = max(float(np.var(X) * X.shape[1]), 1e-12)
        binning = ProfileBinning(X, n_bins=n_bins)
        state = ADCOState(X, labels.copy(), k, binning,
                          binning.similarity_to(given), scale, lam)
        assert (state.objective, state.similarity) == naive_adco_objective(
            X, state.labels, given, n_bins, scale, lam)
        for i, b in [(i, None) for i in range(X.shape[0])] + moves:
            for c in range(k):
                if c == state.labels[i]:
                    continue
                moved = state.labels.copy()
                moved[i] = c
                scored = state.score_move(i, c)
                assert scored[:2] == naive_adco_objective(
                    X, moved, given, n_bins, scale, lam)
            if b is not None and b != state.labels[i]:
                state.apply_move(i, b, state.score_move(i, b))

    @settings(max_examples=100, deadline=None)
    @given(local_search_problems())
    def test_cache_equals_fresh_build(self, problem):
        X, labels, k, givens, moves = problem
        binning = ProfileBinning(X, n_bins=3)
        similarity = binning.similarity_to(givens[0])
        state = ADCOState(X, labels.copy(), k, binning, similarity, 1.0, 2.0)
        for i, b in moves:
            if b != state.labels[i]:
                state.apply_move(i, b, state.score_move(i, b))
        fresh = ADCOState(X, state.labels.copy(), k, binning, similarity,
                          1.0, 2.0)
        assert np.array_equal(state.sizes, fresh.sizes)
        assert state.sse == fresh.sse
        assert np.array_equal(state.profile, fresh.profile)
        assert state.objective == fresh.objective
        assert state.similarity == fresh.similarity


# -- spectral embedding --------------------------------------------------------


@st.composite
def spectral_problems(draw):
    """An affinity and a component count, n in [25, 70] so the block
    path is tried: RBF kernels of clustered points (bandwidth from the
    median heuristic or fixed) or random non-negative symmetric graphs
    of varying density."""
    n = draw(st.integers(25, 70))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(1, 5))
        centers = rng.uniform(-5, 5, size=(draw(st.integers(1, 5)), d))
        X = (centers[rng.integers(len(centers), size=n)]
             + draw(st.sampled_from([0.1, 0.5, 2.0]))
             * rng.standard_normal((n, d)))
        W = rbf_kernel(X, gamma=draw(st.sampled_from([None, 0.1, 1.0])))
    else:
        A = rng.random((n, n)) * (rng.random((n, n))
                                  < draw(st.floats(0.05, 1.0)))
        W = np.triu(A, 1)
        W = W + W.T
    np.fill_diagonal(W, 0.0)
    return W, k


def dense_embedding(W, k):
    """The dense path: ``eigh`` of the normalised Laplacian, its ``k``
    smallest eigenvectors, rows scaled to unit norm."""
    vals, vecs = np.linalg.eigh(normalized_laplacian(W))
    U = vecs[:, np.argsort(vals)[:k]]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return U / norms


def _embed_traced(W, k):
    with Tracer() as tracer:
        U = spectral_embedding(W, k)
    [span] = tracer.spans
    return U, span.attrs


class TestSpectralEmbeddingOracle:
    @given(spectral_problems())
    @settings(max_examples=80, deadline=None)
    def test_block_projector_matches_eigh(self, problem):
        W, k = problem
        _, attrs = _embed_traced(W, k)
        if attrs["solver"] != "block":
            assert attrs["solver"] == "eigh"
            return
        M = _normalized_affinity(W)
        U, steps = _block_eigenvectors(M, k)
        assert steps == attrs["steps"]
        vals, vecs = np.linalg.eigh(M)
        U0 = vecs[:, np.argsort(vals)[::-1][:k]]
        assert np.abs(U @ U.T - U0 @ U0.T).max() <= 1e-10

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_repeated_eigenvalue_at_k_takes_eigh(self, k, seed):
        # k + 1 identical components: eigenvalue 1 of M repeats k + 1
        # times, so the gap at position k is zero
        m = 25 // (k + 1) + 1
        C = np.triu(np.random.default_rng(seed).random((m, m)), 1)
        W = np.kron(np.eye(k + 1), C + C.T)
        U, attrs = _embed_traced(W, k)
        assert attrs["solver"] == "eigh"
        assert 1 <= attrs["steps"] < _MAX_STEPS
        assert np.array_equal(U, dense_embedding(W, k))

    def test_large_negative_eigenvalues_are_not_certified(self):
        # Top-2 eigenvalues 1 and 0.05, but seven eigenvalues near -0.9
        # dominate the iteration: the block converges to {1, -0.9...},
        # whose top-2 Ritz pairs have tiny residuals and a positive gap.
        rng = np.random.default_rng(0)
        n = 60
        vals = np.concatenate([[1.0, 0.05], -np.linspace(0.9, 0.96, 7),
                               rng.uniform(-0.01, 0.01, n - 9)])
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (V * vals) @ V.T
        M = (M + M.T) / 2
        U, _ = _block_eigenvectors(M, 2)
        if U is not None:
            assert np.abs(U @ U.T - V[:, :2] @ V[:, :2].T).max() <= 1e-10


# -- rbf_kernel median ---------------------------------------------------------


@st.composite
def point_sets(draw):
    """Points with duplicate rows, on integer grids, in float32 (wide
    enough that two separate float64 copies give an asymmetric Gram
    product) or plain float64; n in [1, 60]."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(
        ["float", "integer-grid", "duplicate-rows", "float32"]))
    if kind == "float32":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return (rng.standard_normal((n, 300)) + 100).astype(np.float32)
    d = draw(st.integers(1, 4))
    if kind == "integer-grid":
        return draw(arrays(np.float64, (n, d), elements=st.integers(0, 3)))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-5, 5)))
    if kind == "duplicate-rows":
        X = X[draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))]
    return X


class TestRBFMedianOracle:
    @given(point_sets())
    @settings(max_examples=120, deadline=None)
    def test_gamma_matches_full_matrix_median(self, X):
        d2 = pairwise_sq_distances(X)
        assert np.array_equal(d2, d2.T)
        pos = d2[d2 > 0]
        med = np.median(pos) if pos.size else 1.0
        gamma = (1.0 / (2.0 * med) if med > np.finfo(np.float64).tiny
                 else 1.0)
        assert np.array_equal(rbf_kernel(X), np.exp(-gamma * d2))


# -- min_cost_assignment vs SciPy ----------------------------------------------


@st.composite
def cost_matrices(draw):
    """Random floats, or integer grids with many tied optima, in both
    rectangular orientations and the empty/1 x k/k x 1 corners."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (rows, cols),
                           elements=st.floats(-1e3, 1e3)))
    high = draw(st.sampled_from([1, 2, 5]))
    return draw(arrays(np.int64, (rows, cols),
                       elements=st.integers(-high, high)))


def _check_assignment(cost):
    rows, cols = min_cost_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert rows.shape == cols.shape == (min(cost.shape),)
    assert np.all(np.diff(rows) > 0)
    assert len(set(cols.tolist())) == cols.size
    assert math.isclose(cost[rows, cols].sum(),
                        cost[ref_rows, ref_cols].sum(),
                        rel_tol=1e-12, abs_tol=1e-9)


class TestMinCostAssignmentOracle:
    @given(cost_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_total_cost_as_scipy(self, cost):
        _check_assignment(cost)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 5),
                                       (5, 1), (3, 7), (7, 3), (40, 40)])
    def test_shapes(self, shape):
        cost = np.random.default_rng(sum(shape)).random(shape)
        _check_assignment(cost)
        _check_assignment(-cost)

    def test_constant_matrix_gives_the_identity(self):
        rows, cols = min_cost_assignment(np.ones((5, 5)))
        assert rows.tolist() == cols.tolist() == list(range(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_rejected(self, bad):
        cost = np.zeros((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValidationError):
            min_cost_assignment(cost)

    def test_non_matrix_is_rejected(self):
        with pytest.raises(ValidationError):
            min_cost_assignment(np.zeros(3))


# -- binomial_sf vs SciPy ------------------------------------------------------


def exact_binomial_sf(k, n, p):
    """``P(X > k)`` as an exact rational, rounded once: ``p`` is a
    dyadic rational, so every term is an integer over ``den ** n``."""
    num, den = float(p).as_integer_ratio()
    tail = sum(math.comb(n, j) * num ** j * (den - num) ** (n - j)
               for j in range(k + 1, n + 1))
    return float(Fraction(tail, den ** n))


class TestBinomialSFOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 100, 333, 1000, 1999,
                                   2000])
    def test_matches_scipy_over_every_k(self, n):
        for p in (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 1 / 3, 0.5, 0.7,
                  0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9):
            k = np.arange(-2, n + 2)
            got = binomial_sf(k, n, p)
            ref = binom.sf(k, n, p)
            shown = ref >= 1e-300
            assert np.all(got[~shown] < 1e-300), p
            rel = np.abs(got[shown] - ref[shown]) / ref[shown]
            for kk in k[shown][rel > 1e-12].tolist():
                exact = exact_binomial_sf(kk, n, p)
                i = kk + 2
                assert abs(got[i] - exact) <= 1e-12 * exact, (p, kk)
                assert abs(ref[i] - exact) > 1e-12 * exact, (p, kk)

    def test_edge_cases_are_exact(self):
        k = np.arange(-3, 8)
        assert binomial_sf(k, 5, 0.0).tolist() == [1.0] * 3 + [0.0] * 8
        assert binomial_sf(k, 5, 1.0).tolist() == [1.0] * 8 + [0.0] * 3
        assert binomial_sf(k, 5, 0.3)[:3].tolist() == [1.0] * 3
        assert binomial_sf(k, 5, 0.3)[8:].tolist() == [0.0] * 3
        assert binomial_sf(0, 0, 0.5) == 0.0
        assert binomial_sf(-1, 0, 0.5) == 1.0

    def test_shape_follows_k(self):
        assert np.ndim(binomial_sf(3, 10, 0.5)) == 0
        assert binomial_sf([[1, 2], [3, 4]], 10, 0.5).shape == (2, 2)
        assert binomial_sf(2.7, 10, 0.5) == binomial_sf(2, 10, 0.5)

    @pytest.mark.parametrize("n, p", [(-1, 0.5), (5, -0.1), (5, 1.5),
                                      (5, np.nan)])
    def test_invalid_parameters_are_rejected(self, n, p):
        with pytest.raises(ValidationError):
            binomial_sf(1, n, p)


# -- k-means++ draw and the Lloyd centroid update --------------------------------


def naive_kmeans_plus_plus(X, n_clusters, rng):
    """k-means++ as first written: ``rng.choice`` draws each center and
    every distance call recomputes the row norms."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = cdist_sq(X, centers[:1]).ravel()
    for c in range(1, n_clusters):
        total = closest.sum()
        idx = rng.integers(n) if total <= 0 else rng.choice(
            n, p=closest / total)
        centers[c] = X[idx]
        closest = np.minimum(closest, cdist_sq(X, centers[c:c + 1]).ravel())
    return centers


def naive_update_centers(X, labels, nearest, k):
    """One mean per cluster; every empty cluster moves to the farthest
    row."""
    centers = np.empty((k, X.shape[1]))
    for c in range(k):
        members = labels == c
        centers[c] = (X[members].mean(axis=0) if members.any()
                      else X[np.argmax(nearest)])
    return centers


@st.composite
def seeding_problems(draw):
    """Floats, integer grids with duplicate rows, and all-equal rows (the
    zero-total branch); n in [1, 40], k in [1, n]."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "integer-grid", "all-equal"]))
    if kind == "float":
        X = draw(arrays(np.float64, (n, d), elements=st.floats(-50, 50)))
    elif kind == "integer-grid":
        X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 2)))
    else:
        X = np.full((n, d), draw(st.floats(-5, 5)))
    return X, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


class TestKMeansOracle:
    @given(seeding_problems())
    @settings(max_examples=300, deadline=None)
    def test_kmeans_plus_plus_matches_rng_choice(self, problem):
        X, k, seed = problem
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(kmeans_plus_plus(X, k, rng),
                              naive_kmeans_plus_plus(X, k, ref_rng))
        assert rng.random() == ref_rng.random()

    @given(seeding_problems(), st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_centroid_update_matches_per_cluster_means(self, problem, k):
        X, _, seed = problem
        rng = np.random.default_rng(seed)
        # labels drawn from k values can leave clusters empty
        labels = rng.integers(k, size=X.shape[0])
        nearest = rng.random(X.shape[0])
        got = _update_centers(X, labels, nearest, k)
        ref = naive_update_centers(X, labels, nearest, k)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)


# -- stacked EM components ------------------------------------------------------


def naive_log_density(X, mean, cov, covariance_type):
    """One component's log density, as ``gaussian_log_density`` computed
    it before the components were stacked."""
    d = X.shape[1]
    diff = X - mean[None, :]
    if covariance_type == "spherical":
        var = max(float(cov), 1e-6)
        maha = np.sum(diff * diff, axis=1) / var
        logdet = d * np.log(var)
    elif covariance_type == "diag":
        var = np.maximum(np.asarray(cov, dtype=np.float64), 1e-6)
        maha = np.sum(diff * diff / var[None, :], axis=1)
        logdet = float(np.sum(np.log(var)))
    else:
        chol = _regularized_cholesky(np.asarray(cov, dtype=np.float64))
        sol = np.linalg.solve(chol, diff.T)
        maha = np.sum(sol * sol, axis=0)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))


def naive_e_step(X, weights, means, covs, covariance_type):
    log_prob = np.empty((X.shape[0], means.shape[0]))
    for j in range(means.shape[0]):
        log_prob[:, j] = naive_log_density(X, means[j], covs[j],
                                           covariance_type)
    log_weighted = log_prob + np.log(np.maximum(weights, 1e-300))[None, :]
    log_norm = logsumexp(log_weighted, axis=1)
    return np.exp(log_weighted - log_norm[:, None]), float(np.sum(log_norm))


def naive_covariances(X, resp, means, nk, covariance_type):
    """The per-component covariance loops of the M-step."""
    k, d = means.shape
    if covariance_type == "spherical":
        covs = np.empty(k)
        for j in range(k):
            diff2 = cdist_sq(X, means[j:j + 1]).ravel()
            covs[j] = max(float((resp[:, j] @ diff2) / (nk[j] * d)), 1e-6)
    elif covariance_type == "diag":
        covs = np.empty((k, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = np.maximum((resp[:, j] @ (diff * diff)) / nk[j], 1e-6)
    else:
        covs = np.empty((k, d, d))
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            covs[j] += 1e-6 * np.eye(d)
    return covs


COVARIANCE_TYPES = ("spherical", "diag", "full")


@st.composite
def mixture_problems(draw):
    """Data, soft responsibilities and the M-step's parameters; n in
    [2, 60], d in [1, 5], k in [1, 6]."""
    n, d, k = (draw(st.integers(2, 60)), draw(st.integers(1, 5)),
               draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * draw(st.sampled_from([0.01, 1, 50]))
    if draw(st.booleans()):  # duplicate rows
        X = X[rng.integers(n, size=n)]
    resp = rng.dirichlet(np.full(k, draw(st.sampled_from([0.1, 1.0]))),
                         size=n)
    return X, resp, draw(st.sampled_from(COVARIANCE_TYPES))


class TestStackedEMOracle:
    @given(mixture_problems())
    @settings(max_examples=300, deadline=None)
    def test_m_step_bit_identical_to_component_loops(self, problem):
        X, resp, covariance_type = problem
        weights, means, covs = m_step(X, resp, covariance_type)
        nk = resp.sum(axis=0) + 1e-12
        assert np.array_equal(
            covs, naive_covariances(X, resp, means, nk, covariance_type))

    @given(mixture_problems())
    @settings(max_examples=300, deadline=None)
    def test_e_step_bit_identical_to_component_loop(self, problem):
        X, resp, covariance_type = problem
        params = m_step(X, resp, covariance_type)
        got, got_ll = e_step(X, *params, covariance_type)
        ref, ref_ll = naive_e_step(X, *params, covariance_type)
        assert np.array_equal(got, ref)
        assert got_ll == ref_ll
        assert got.flags.c_contiguous
        _, means, covs = params
        for j in range(means.shape[0]):
            assert np.array_equal(
                gaussian_log_density(X, means[j], covs[j], covariance_type),
                naive_log_density(X, means[j], covs[j], covariance_type))

    @pytest.mark.parametrize("bad", [
        # indefinite: factors once the ridge reaches 1e-2
        [[1.0, 1.001], [1.001, 1.0]],
        # non-finite: degrades to its diagonal
        [[1.0, np.nan], [np.nan, 1.0]],
    ])
    def test_failed_stacked_cholesky_takes_the_component_path(self, bad):
        X = np.random.default_rng(3).standard_normal((30, 2))
        covs = np.array([np.eye(2), bad, 2.0 * np.eye(2)])
        means = np.array([[0.0, 0.0], [1.0, -1.0], [-1.0, 2.0]])
        weights = np.array([0.5, 0.3, 0.2])
        with pytest.warns(ConvergenceWarning) as got_warnings:
            got = e_step(X, weights, means, covs, "full")
        with pytest.warns(ConvergenceWarning) as ref_warnings:
            ref = naive_e_step(X, weights, means, covs, "full")
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        assert ([str(w.message) for w in got_warnings]
                == [str(w.message) for w in ref_warnings])
        assert len(got_warnings) == 1


# -- batched pair counting ------------------------------------------------------


def naive_pair_confusion(labels_a, labels_b):
    """One pair's counts from its own contingency table, as
    ``contingency_matrix`` and ``pair_confusion`` built them before the
    batched kernel; ``None`` where no object is clustered by both."""
    a = np.asarray(labels_a, dtype=np.int64)
    b = np.asarray(labels_b, dtype=np.int64)
    keep = (a != -1) & (b != -1)
    a, b = a[keep], b[keep]
    if a.size == 0:
        return None
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    mat = np.zeros((int(a.max()) + 1, int(b.max()) + 1), dtype=np.int64)
    np.add.at(mat, (a, b), 1)
    n = mat.sum()
    sum_sq = float((mat.astype(np.float64) ** 2).sum())
    row_sq = float((mat.sum(axis=1).astype(np.float64) ** 2).sum())
    col_sq = float((mat.sum(axis=0).astype(np.float64) ** 2).sum())
    n11 = 0.5 * (sum_sq - n)
    n10 = 0.5 * (row_sq - sum_sq)
    n01 = 0.5 * (col_sq - sum_sq)
    n00 = 0.5 * n * (n - 1) - n11 - n10 - n01
    return n11, n10, n01, n00


def naive_rand(n11, n10, n01, n00):
    total = n11 + n10 + n01 + n00
    if total == 0:
        return 1.0
    return (n11 + n00) / total


def naive_adjusted_rand(n11, n10, n01, n00):
    total = n11 + n10 + n01 + n00
    if total == 0:
        return 1.0
    sum_a = n11 + n10
    sum_b = n11 + n01
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if math.isclose(max_index, expected):
        return 1.0
    return (n11 - expected) / (max_index - expected)


@st.composite
def labeling_sets(draw):
    """Labelings of n in [1, 24] objects: noise, single clusters, sparse
    labels and, when drawn, a pair with one or no clustered object in
    common."""
    n = draw(st.integers(1, 24))

    def labeling():
        k = draw(st.integers(1, 4))
        low = draw(st.sampled_from([-1, 0]))
        lab = draw(arrays(np.int64, n, elements=st.integers(low, k - 1)))
        step = draw(st.sampled_from([1, 7]))  # gaps between ids
        return np.where(lab >= 0, lab * step, -1)

    labelings = [labeling() for _ in range(draw(st.integers(1, 4)))]
    shared = draw(st.sampled_from([None, 0, 1]))
    if shared is not None and n >= 2:
        # split the objects: the first labeling clusters the left part
        # only, the second the right part plus ``shared`` left objects
        cut = draw(st.integers(1, n - 1))
        left = np.arange(n) < cut
        right = ~left
        right[:shared] = True
        labelings += [np.where(left, labeling(), -1),
                      np.where(right, labeling(), -1)]
    others = [labeling() for _ in range(draw(st.integers(0, 3)))]
    return labelings, others or None


def _naive_matrix(labelings, others, score):
    cols = labelings if others is None else others
    return [[None if c is None else score(*c)
             for c in (naive_pair_confusion(a, b) for b in cols)]
            for a in labelings]


def _assert_matrix_equal(got, ref):
    assert got.shape == (len(ref), len(ref[0]) if ref else 0)
    for i, row in enumerate(ref):
        for j, value in enumerate(row):
            if value is None:
                assert np.isnan(got[i, j])
            else:
                assert got[i, j] == value


class TestPairCountingOracle:
    @given(labeling_sets())
    @settings(max_examples=150, deadline=None)
    def test_counts_bit_identical(self, problem):
        labelings, others = problem
        got = pair_confusions(labelings, others)
        cols = labelings if others is None else others
        for i, a in enumerate(labelings):
            for j, b in enumerate(cols):
                ref = naive_pair_confusion(a, b)
                counts = [c[i, j] for c in got]
                if ref is None:
                    assert np.isnan(counts).all()
                    with pytest.raises(ValidationError):
                        pair_confusion(a, b)
                else:
                    assert counts == list(ref)
                    assert pair_confusion(a, b) == ref

    @given(labeling_sets(), st.sampled_from(["rand", "ari"]))
    @settings(max_examples=150, deadline=None)
    def test_indices_bit_identical(self, problem, measure):
        labelings, others = problem
        score = naive_rand if measure == "rand" else naive_adjusted_rand
        ref = _naive_matrix(labelings, others, score)
        got = agreement_matrix(labelings, others, measure=measure,
                               no_overlap=np.nan)
        _assert_matrix_equal(got, ref)
        if any(value is None for row in ref for value in row):
            with pytest.raises(ValidationError, match="no object"):
                agreement_matrix(labelings, others, measure=measure)
        zeroed = agreement_matrix(labelings, others, measure=measure,
                                  no_overlap=0.0)
        _assert_matrix_equal(zeroed, [[0.0 if v is None else v for v in row]
                                      for row in ref])

    def test_one_shared_object_scores_one(self):
        # one jointly clustered object: no pairs, so both indices are 1
        a, b = [0, 0, -1, -1], [-1, 1, 2, 2]
        assert naive_pair_confusion(a, b) == (0.0, 0.0, 0.0, 0.0)
        for measure in ("rand", "ari"):
            got = agreement_matrix([a], [b], measure=measure)
            assert got.tolist() == [[1.0]]

    def test_no_shared_object(self):
        a, b = [0, 0, -1, -1], [-1, -1, 1, 1]
        assert naive_pair_confusion(a, b) is None
        with pytest.raises(ValidationError, match=r"pair \(0, 1\)"):
            agreement_matrix([a, b])
        assert agreement_matrix([a, b], no_overlap=0.0).tolist() == \
            [[1.0, 0.0], [0.0, 1.0]]

    def test_single_cluster_labelings(self):
        one, split = [3, 3, 3, 3], [0, 0, 1, 1]
        ref = _naive_matrix([one, split], None, naive_adjusted_rand)
        _assert_matrix_equal(agreement_matrix([one, split]), ref)
        assert agreement_matrix([one], [one], measure="rand")[0, 0] == 1.0

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValidationError, match="measure"):
            agreement_matrix([[0, 1]], measure="vi")


# -- normalised HSIC ----------------------------------------------------------


def naive_normalized_hsic(X, Y, kernel, gamma):
    h_xy = hsic(X, Y, kernel=kernel, gamma=gamma)
    h_xx = hsic(X, X, kernel=kernel, gamma=gamma)
    h_yy = hsic(Y, Y, kernel=kernel, gamma=gamma)
    denom = np.sqrt(h_xx * h_yy)
    if denom <= 0:
        return 0.0
    return float(np.clip(h_xy / denom, 0.0, 1.0))


@pytest.mark.parametrize("kernel,gamma", [("rbf", None), ("rbf", 0.7),
                                          ("linear", None)])
@pytest.mark.parametrize("seed", range(4))
def test_normalized_hsic_bit_identical(kernel, gamma, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    X = rng.normal(size=(n, int(rng.integers(1, 4))))
    # a dependent view, an independent one, and a constant one (score 0)
    for Y in (X @ rng.normal(size=(X.shape[1], 2)) + 0.1 * rng.normal(
            size=(n, 2)), rng.normal(size=(n, 3)), np.ones((n, 2))):
        assert normalized_hsic(X, Y, kernel=kernel, gamma=gamma) == \
            naive_normalized_hsic(X, Y, kernel, gamma)
