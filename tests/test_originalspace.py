"""Tests for paradigm 1 — multiple clusterings in the original space."""

import numpy as np
import pytest

from repro.cluster import KMeans
from repro.exceptions import ValidationError
from repro.metrics import adjusted_rand_index as ari
from repro.originalspace import (
    CAMI,
    COALA,
    ConditionalInformationBottleneck,
    DecorrelatedKMeans,
    MetaClustering,
    MinCEntropy,
)


@pytest.fixture
def toy_with_given(four_squares):
    X, lh, lv = four_squares
    given = KMeans(n_clusters=2, random_state=0).fit(X).labels_
    # identify which truth the given clustering captured
    if ari(given, lh) >= ari(given, lv):
        return X, given, lh, lv
    return X, given, lv, lh


class TestCOALA:
    def test_finds_the_alternative(self, toy_with_given):
        X, given, primary, secondary = toy_with_given
        alt = COALA(n_clusters=2, w=0.8).fit(X, given)
        assert ari(alt.labels_, secondary) > 0.9
        assert ari(alt.labels_, given) < 0.1

    def test_merge_counters_total(self, toy_with_given):
        X, given, _, _ = toy_with_given
        alt = COALA(n_clusters=2, w=0.8).fit(X, given)
        assert (alt.n_quality_merges_ + alt.n_dissimilarity_merges_
                == X.shape[0] - 2)

    def test_huge_w_reduces_to_plain_average_link(self, toy_with_given):
        from repro.cluster import Agglomerative
        X, given, _, _ = toy_with_given
        alt = COALA(n_clusters=2, w=1e9).fit(X, given)
        plain = Agglomerative(n_clusters=2, linkage="average").fit(X)
        assert ari(alt.labels_, plain.labels_) == 1.0
        assert alt.n_dissimilarity_merges_ == 0

    def test_invalid_w(self, toy_with_given):
        X, given, _, _ = toy_with_given
        with pytest.raises(ValidationError):
            COALA(w=0.0).fit(X, given)

    def test_given_length_mismatch(self, toy_with_given):
        X, given, _, _ = toy_with_given
        with pytest.raises(ValidationError):
            COALA().fit(X, given[:-1])

    def test_rejects_multiple_givens(self, toy_with_given):
        X, given, _, _ = toy_with_given
        with pytest.raises(ValidationError):
            COALA().fit(X, [given, given])

    def test_fit_predict(self, toy_with_given):
        X, given, _, _ = toy_with_given
        c = COALA(n_clusters=2, w=0.8)
        labels = c.fit_predict(X, given)
        assert np.array_equal(labels, c.labels_)


class TestDecorrelatedKMeans:
    def test_finds_both_views(self, four_squares):
        X, lh, lv = four_squares
        dk = DecorrelatedKMeans(n_clusters=2, n_clusterings=2, lam=5.0,
                                n_init=20, random_state=0).fit(X)
        a, b = dk.labelings_
        assert max(ari(a, lh), ari(b, lh)) > 0.8
        assert max(ari(a, lv), ari(b, lv)) > 0.8
        assert ari(a, b) < 0.3

    def test_lam_zero_decouples(self, four_squares):
        X, _, _ = four_squares
        dk = DecorrelatedKMeans(n_clusters=2, n_clusterings=2, lam=0.0,
                                random_state=0).fit(X)
        assert dk.objective_ >= 0.0

    def test_objective_reported(self, four_squares):
        X, _, _ = four_squares
        dk = DecorrelatedKMeans(n_clusters=2, lam=2.0, random_state=0).fit(X)
        assert np.isfinite(dk.objective_)
        assert dk.n_iter_ >= 1

    def test_per_clustering_k(self, four_squares):
        X, _, _ = four_squares
        dk = DecorrelatedKMeans(n_clusters=[2, 4], n_clusterings=2,
                                lam=1.0, random_state=0).fit(X)
        assert len(set(dk.labelings_[0].tolist())) <= 2
        assert len(set(dk.labelings_[1].tolist())) <= 4

    def test_k_list_length_mismatch(self, four_squares):
        X, _, _ = four_squares
        with pytest.raises(ValidationError):
            DecorrelatedKMeans(n_clusters=[2, 2, 2], n_clusterings=2).fit(X)

    def test_single_clustering_rejected(self, four_squares):
        X, _, _ = four_squares
        with pytest.raises(ValidationError):
            DecorrelatedKMeans(n_clusterings=1).fit(X)

    def test_clusterings_property(self, four_squares):
        X, _, _ = four_squares
        dk = DecorrelatedKMeans(n_clusters=2, random_state=0).fit(X)
        assert dk.n_clusterings_ == 2
        assert len(dk.clusterings_) == 2


class TestCAMI:
    def test_finds_both_views(self, four_squares):
        X, lh, lv = four_squares
        cami = CAMI(n_clusters=2, mu=5.0, step=0.3, n_init=8,
                    random_state=0).fit(X)
        a, b = cami.labelings_
        assert max(ari(a, lh), ari(b, lh)) > 0.8
        assert max(ari(a, lv), ari(b, lv)) > 0.8

    def test_penalty_reduces_with_mu(self, four_squares):
        X, _, _ = four_squares
        strong = CAMI(n_clusters=2, mu=5.0, step=0.3, n_init=5,
                      random_state=0).fit(X)
        weak = CAMI(n_clusters=2, mu=0.0, n_init=5, random_state=0).fit(X)
        # With mu = 0 both mixtures converge to the same (best) solution.
        assert ari(weak.labelings_[0], weak.labelings_[1]) > \
            ari(strong.labelings_[0], strong.labelings_[1])

    def test_attributes(self, four_squares):
        X, _, _ = four_squares
        cami = CAMI(n_clusters=2, mu=1.0, random_state=0).fit(X)
        assert len(cami.mixtures_) == 2
        assert len(cami.log_likelihoods_) == 2
        assert np.isfinite(cami.objective_)
        assert cami.penalty_ >= 0.0

    def test_negative_mu_rejected(self, four_squares):
        X, _, _ = four_squares
        with pytest.raises(ValidationError):
            CAMI(mu=-1.0).fit(X)


class TestMinCEntropy:
    def test_finds_the_alternative(self, toy_with_given):
        X, given, primary, secondary = toy_with_given
        alt = MinCEntropy(n_clusters=2, beta=2.0, random_state=0).fit(X, given)
        assert ari(alt.labels_, secondary) > 0.9

    def test_accepts_multiple_givens(self, toy_with_given):
        X, given, primary, secondary = toy_with_given
        alt = MinCEntropy(n_clusters=2, beta=2.0, random_state=0).fit(
            X, [given, secondary])
        # must differ from BOTH givens
        assert ari(alt.labels_, given) < 0.5
        assert ari(alt.labels_, secondary) < 0.5

    def test_beta_zero_is_plain_quality(self, toy_with_given):
        X, given, primary, _ = toy_with_given
        alt = MinCEntropy(n_clusters=2, beta=0.0, random_state=0).fit(X, given)
        # without the penalty, the kernel objective happily rediscovers
        # a high-quality clustering (possibly the given one)
        assert alt.quality_ > 0.0 and alt.penalty_ >= 0.0

    def test_objective_consistency(self, toy_with_given):
        X, given, _, _ = toy_with_given
        alt = MinCEntropy(n_clusters=2, beta=2.0, random_state=0).fit(X, given)
        assert np.isclose(alt.objective_,
                          alt.quality_ - 2.0 * alt.penalty_, atol=1e-8)

    def test_clusters_nonempty(self, toy_with_given):
        X, given, _, _ = toy_with_given
        alt = MinCEntropy(n_clusters=3, beta=1.0, random_state=0).fit(X, given)
        assert len(set(alt.labels_.tolist())) == 3


class TestCIB:
    def test_runs_on_count_data(self):
        from repro.data import load_document_topics
        X, known, novel = load_document_topics(n_documents=120,
                                               vocab_size=20)
        cib = ConditionalInformationBottleneck(
            n_clusters=3, beta=30.0, n_init=2, max_sweeps=10,
            random_state=0).fit(X, known)
        assert cib.labels_.shape == (120,)
        # the alternative must not replicate the known topics
        assert ari(cib.labels_, known) < 0.5

    def test_finds_novel_topics(self):
        from repro.data import load_document_topics
        X, known, novel = load_document_topics(n_documents=120,
                                               vocab_size=20)
        cib = ConditionalInformationBottleneck(
            n_clusters=3, beta=30.0, n_init=4, max_sweeps=15,
            random_state=1).fit(X, known)
        assert ari(cib.labels_, novel) > 0.8
        assert ari(cib.labels_, novel) > ari(cib.labels_, known)

    def test_rejects_negative_data(self, four_squares):
        X, _, _ = four_squares
        given = np.zeros(X.shape[0], dtype=int)
        with pytest.raises(ValidationError, match="non-negative"):
            ConditionalInformationBottleneck().fit(X, given)

    def test_zero_mass_row(self):
        # an all-zero row (an empty document) used to reach the k-means
        # seed as NaN and fail with a misleading "X contains NaN"
        rng = np.random.default_rng(0)
        X = rng.random((40, 4))
        X[3] = 0.0
        given = np.repeat([0, 1], 20)
        cib = ConditionalInformationBottleneck(
            n_clusters=2, random_state=0).fit(X, given)
        assert cib.labels_.shape == (40,)
        assert np.isfinite(cib.objective_)

    def test_terms_recorded(self):
        from repro.data import load_document_topics
        X, known, _ = load_document_topics(n_documents=60, vocab_size=10)
        cib = ConditionalInformationBottleneck(
            n_clusters=2, beta=30.0, n_init=2, max_sweeps=5, random_state=0
        ).fit(X, known)
        assert np.isfinite(cib.objective_)
        assert cib.mutual_information_x_ >= 0.0
        assert cib.conditional_information_ >= -1e-9
        assert np.isclose(
            cib.objective_,
            cib.mutual_information_x_ - 30.0 * cib.conditional_information_,
            atol=1e-8)


class TestMetaClustering:
    def test_basic_run(self, four_squares):
        X, lh, lv = four_squares
        meta = MetaClustering(n_base=15, n_clusters=2, n_meta_clusters=3,
                              random_state=0).fit(X)
        assert len(meta.base_labelings_) == 15
        assert meta.meta_labels_.shape == (15,)
        assert 1 <= len(meta.labelings_) <= 3
        assert 0.0 <= meta.duplication_rate_ <= 1.0

    def test_representatives_are_diverse(self, four_squares):
        X, _, _ = four_squares
        meta = MetaClustering(n_base=25, n_clusters=2, n_meta_clusters=3,
                              random_state=1).fit(X)
        reps = meta.labelings_
        if len(reps) >= 2:
            cross = max(
                ari(reps[i], reps[j])
                for i in range(len(reps)) for j in range(i + 1, len(reps))
            )
            assert cross < 0.99

    def test_varying_k(self, four_squares):
        X, _, _ = four_squares
        meta = MetaClustering(n_base=8, n_clusters=[2, 3, 4],
                              random_state=0).fit(X)
        ks = {len(set(lab.tolist())) for lab in meta.base_labelings_}
        assert len(ks) >= 2

    def test_small_n_base_rejected(self):
        with pytest.raises(ValidationError):
            MetaClustering(n_base=1)

    @pytest.mark.parametrize("n_base", [3.7, float("nan"), True])
    def test_non_integer_n_base_rejected(self, n_base):
        with pytest.raises(ValidationError, match="n_base must be an integer"):
            MetaClustering(n_base=n_base)

    @pytest.mark.parametrize("n_meta", [0, -2, 2.5])
    def test_invalid_n_meta_clusters(self, four_squares, n_meta):
        X, _, _ = four_squares
        with pytest.raises(ValidationError, match="n_meta_clusters"):
            MetaClustering(n_base=4, n_meta_clusters=n_meta,
                           random_state=0).fit(X)
