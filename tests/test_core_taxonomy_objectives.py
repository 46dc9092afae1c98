"""Unit tests for the taxonomy registry, objectives, and base classes."""

import numpy as np
import pytest

import repro.experiments  # noqa: F401  — populates the registry
from repro.core import (
    BaseClusterer,
    MultipleClusteringObjective,
    Processing,
    SearchSpace,
    TaxonomyEntry,
    all_entries,
    get_entry,
    register,
    render_table,
)
from repro.core.base import AlternativeClusterer, ParamsMixin
from repro.exceptions import NotFittedError, ValidationError


class TestTaxonomy:
    def test_all_paradigms_populated(self):
        spaces = {e.search_space for e in all_entries()}
        assert spaces == set(SearchSpace.ALL)

    def test_expected_algorithms_registered(self):
        for key in ["coala", "dec-kmeans", "cami", "clique", "schism",
                    "subclu", "proclus", "enclus", "osclu", "asclu",
                    "statpc", "rescu", "co-em", "mv-dbscan", "msc",
                    "davidson-qi", "qi-davidson", "cui-orthogonal",
                    "meta-clustering", "mincentropy", "cib", "ensemble",
                    "fern-brodley"]:
            assert get_entry(key).key == key

    def test_slide116_rows_match(self):
        """Spot-check rows against the slide-116 table."""
        coala = get_entry("coala")
        assert coala.search_space == SearchSpace.ORIGINAL
        assert coala.processing == Processing.ITERATIVE
        assert coala.given_knowledge and coala.n_clusterings == "2"
        dq = get_entry("davidson-qi")
        assert dq.search_space == SearchSpace.TRANSFORMED
        assert dq.flexible_definition
        clique = get_entry("clique")
        assert clique.view_detection == "no dissimilarity"
        osclu = get_entry("osclu")
        assert osclu.view_detection == "dissimilarity"
        coem = get_entry("co-em")
        assert coem.n_clusterings == "1"
        assert coem.view_detection == "given views"

    def test_unknown_key_raises(self):
        with pytest.raises(ValidationError):
            get_entry("nope")

    def test_conflicting_registration_rejected(self):
        entry = get_entry("coala")
        clone = TaxonomyEntry(
            key="coala", reference="someone else",
            search_space=SearchSpace.ORIGINAL,
            processing=Processing.ITERATIVE, given_knowledge=True,
            n_clusterings="2", view_detection="",
            flexible_definition=False,
        )
        with pytest.raises(ValidationError):
            register(clone)
        register(entry)  # idempotent re-registration is fine

    def test_invalid_entry_rejected(self):
        with pytest.raises(ValidationError):
            TaxonomyEntry(key="x", reference="r", search_space="weird",
                          processing=Processing.ITERATIVE,
                          given_knowledge=False, n_clusterings="2",
                          view_detection="", flexible_definition=False)
        with pytest.raises(ValidationError):
            TaxonomyEntry(key="x", reference="r",
                          search_space=SearchSpace.ORIGINAL,
                          processing="magic", given_knowledge=False,
                          n_clusterings="2", view_detection="",
                          flexible_definition=False)

    def test_render_table_contains_all_keys(self):
        text = render_table()
        for e in all_entries():
            assert e.key in text


class TestObjective:
    def test_breakdown_consistency(self, four_squares):
        X, lh, lv = four_squares
        obj = MultipleClusteringObjective(lam=2.0)
        b = obj.breakdown(X, [lh, lv])
        assert np.isclose(b["score"],
                          b["quality_sum"] + 2.0 * b["dissimilarity_sum"])
        assert b["n_clusterings"] == 2

    def test_orthogonal_truths_score_higher_than_duplicates(self, four_squares):
        X, lh, lv = four_squares
        obj = MultipleClusteringObjective(lam=1.0)
        assert obj.score(X, [lh, lv]) > obj.score(X, [lh, lh])

    def test_empty_rejected(self, four_squares):
        X, _, _ = four_squares
        with pytest.raises(ValidationError):
            MultipleClusteringObjective().quality_sum(X, [])

    def test_generator_read_once(self, four_squares):
        X, lh, lv = four_squares
        obj = MultipleClusteringObjective(lam=1.0)
        labelings = [lh, lv, (lh + lv) % 2]
        expected = obj.breakdown(X, labelings)
        assert expected["n_clusterings"] == 3
        assert obj.breakdown(X, iter(labelings)) == expected
        assert obj.score(X, iter(labelings)) == expected["score"]

    def test_no_shared_clustered_object_rejected(self, four_squares):
        X, lh, lv = four_squares
        half = np.arange(lh.shape[0]) < lh.shape[0] // 2
        left, right = np.where(half, lh, -1), np.where(half, -1, lv)
        with pytest.raises(ValidationError, match="no object"):
            MultipleClusteringObjective().dissimilarity_sum([left, right])


class TestParamsMixin:
    def test_get_set_params(self):
        from repro.cluster import KMeans
        km = KMeans(n_clusters=4, random_state=7)
        params = km.get_params()
        assert params["n_clusters"] == 4
        km.set_params(n_clusters=2)
        assert km.n_clusters == 2

    def test_unknown_param_rejected(self):
        from repro.cluster import KMeans
        with pytest.raises(ValidationError, match="invalid parameter"):
            KMeans().set_params(bogus=1)

    def test_repr_shows_params(self):
        from repro.cluster import KMeans
        assert "n_clusters=3" in repr(KMeans(n_clusters=3))

    def test_param_names_cached_per_class(self):
        class Base(ParamsMixin):
            def __init__(self, a=1, b=2):
                self.a, self.b = a, b

        class Narrowed(Base):
            def __init__(self, c=3):
                super().__init__()
                self.c = c

        class Inherits(Base):
            pass

        assert Base._param_names() == ["a", "b"]
        # the cache is keyed on the class: a subclass that overrides
        # __init__ gets its own names, one that does not shares them
        assert Narrowed._param_names() == ["c"]
        assert Inherits._param_names() == ["a", "b"]
        # each call returns a fresh list, so a caller's edit is its own
        names = Base._param_names()
        names.append("mutated")
        assert Base._param_names() == ["a", "b"]


class TestBaseClasses:
    def test_clustering_property_requires_fit(self):
        class Dummy(BaseClusterer):
            def fit(self, X):
                self.labels_ = np.zeros(len(X), dtype=int)
                return self
        d = Dummy()
        with pytest.raises(NotFittedError):
            _ = d.clustering_
        d.fit(np.zeros((3, 1)))
        assert d.clustering_.n_objects == 3

    def test_given_labels_normalisation(self):
        from repro.core import Clustering
        got = AlternativeClusterer._given_labels(Clustering([0, 1]))
        assert len(got) == 1 and list(got[0]) == [0, 1]
        got = AlternativeClusterer._given_labels([[0, 1], Clustering([1, 0])])
        assert len(got) == 2

    def test_given_none_rejected(self):
        with pytest.raises(ValidationError):
            AlternativeClusterer._given_labels(None)
