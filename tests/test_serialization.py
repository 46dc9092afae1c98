"""Fitted-estimator serialisation and strict RFC JSON emission.

Covers the three layers added for the serving PR:

* the tagged value codec (``repro.io.encode_value``/``decode_value``):
  numpy arrays (non-finite entries included), tuples, sets, dicts with
  non-string keys, convergence events, result containers, module-level
  functions, and nested helper objects;
* the estimator round-trip (``to_dict`` → strict JSON text →
  ``from_dict``): identical fitted state and predictions, constructor
  validation on decode, and the ``repro.*``-only import restriction;
* strict emission (``repro.io.dumps``/``sanitize_json`` and the
  journal): ``json.dumps`` defaults would write bare ``NaN``/
  ``Infinity`` tokens that strict parsers reject — the central policy
  encodes them as ``null``/string sentinels everywhere.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import io
from repro.cluster import KMeans
from repro.core import Clustering, SubspaceCluster, SubspaceClustering
from repro.core.base import ParamsMixin
from repro.exceptions import ValidationError
from repro.observability import ConvergenceEvent
from repro.subspace import SCHISM
from repro.subspace.schism import SchismThreshold


#: JSON-ready values as the codec hands them to ``dumps``: nested dicts,
#: lists and tuples over non-finite floats, NumPy float64 scalars and
#: non-ASCII text.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.floats().map(np.float64) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)),
    max_leaves=20)


def roundtrip(value):
    """encode -> strict text -> parse -> decode."""
    encoded = io.encode_value(value)
    text = io.dumps(encoded)
    return io.decode_value(json.loads(text))


def assert_strict(text):
    """The text must parse with bare-constant tokens rejected."""

    def reject(token):
        raise AssertionError(f"bare {token} token emitted")

    json.loads(text, parse_constant=reject)


class TestValueCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -3, "x", 1.5):
            assert roundtrip(value) == value

    def test_numpy_scalars_become_python(self):
        assert roundtrip(np.int64(7)) == 7
        assert isinstance(roundtrip(np.int64(7)), int)
        assert roundtrip(np.float64(2.5)) == 2.5
        assert roundtrip(np.bool_(True)) is True

    def test_nonfinite_floats_tagged(self):
        assert math.isnan(roundtrip(float("nan")))
        assert roundtrip(float("inf")) == math.inf
        assert roundtrip(float("-inf")) == -math.inf
        text = io.dumps(io.encode_value(float("nan")))
        assert_strict(text)

    def test_float_array_with_nonfinite_entries(self):
        a = np.array([[1.0, np.nan], [np.inf, -np.inf]])
        b = roundtrip(a)
        assert b.dtype == a.dtype and b.shape == a.shape
        assert np.array_equal(a, b, equal_nan=True)
        assert_strict(io.dumps(io.encode_value(a)))

    @pytest.mark.parametrize("array", [
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([True, False, True]),
        np.zeros((0, 4)),
        np.linspace(0, 1, 7, dtype=np.float32),
    ])
    def test_array_dtypes_and_shapes(self, array):
        b = roundtrip(array)
        assert b.dtype == array.dtype
        assert b.shape == array.shape
        assert np.array_equal(array, b)

    def test_fortran_order_array(self):
        a = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(roundtrip(a), a)

    def test_object_dtype_rejected(self):
        with pytest.raises(ValidationError):
            io.encode_value(np.array([object()]))

    def test_tuple_and_nested_containers(self):
        value = (1, [2.0, (3, 4)], {"a": (5,)})
        assert roundtrip(value) == value
        assert isinstance(roundtrip(value), tuple)

    def test_sets(self):
        assert roundtrip({3, 1, 2}) == {1, 2, 3}
        out = roundtrip(frozenset({"b", "a"}))
        assert out == frozenset({"a", "b"})
        assert isinstance(out, frozenset)

    def test_dict_with_tuple_and_int_keys(self):
        value = {(0, 1): 0.5, (2,): 1.0}
        assert roundtrip(value) == value
        assert roundtrip({3: [1, 2], 7: "x"}) == {3: [1, 2], 7: "x"}

    def test_dict_insertion_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(roundtrip(value)) == ["z", "a", "m"]

    def test_convergence_event(self):
        event = ConvergenceEvent(iteration=1, objective=2.5,
                                 delta=float("nan"))
        back = roundtrip(event)
        assert isinstance(back, ConvergenceEvent)
        assert back.iteration == 1 and back.objective == 2.5
        assert math.isnan(back.delta)

    def test_result_containers(self):
        clustering = Clustering([0, 0, 1, 1], name="c")
        back = roundtrip(clustering)
        assert isinstance(back, Clustering)
        assert np.array_equal(back.labels, clustering.labels)
        assert back.name == "c"

        cluster = SubspaceCluster(range(5), (0, 2), quality=0.8)
        back = roundtrip(cluster)
        assert isinstance(back, SubspaceCluster)
        assert back.objects == cluster.objects
        assert back.dims == cluster.dims
        assert back.quality == pytest.approx(0.8)

        result = SubspaceClustering([cluster], name="sc")
        back = roundtrip(result)
        assert isinstance(back, SubspaceClustering)
        assert len(back) == 1 and back.name == "sc"

    def test_nonfinite_subspace_quality(self):
        cluster = SubspaceCluster(range(3), (0,), quality=float("nan"))
        payload = io.encode_value(cluster)
        assert_strict(io.dumps(payload))
        assert math.isnan(io.decode_value(payload).quality)

    def test_repro_function_round_trips(self):
        fn = roundtrip(io.sanitize_json)
        assert fn is io.sanitize_json

    def test_foreign_function_rejected(self):
        with pytest.raises(ValidationError):
            io.encode_value(json.loads)

    @pytest.mark.parametrize("qualname", [
        # traversal through a module imported by a repro module
        "os.system",
        "importlib.import_module",
        "json.loads",
        # non-module attribute imported into a repro module
        "dumps",
    ])
    def test_decoder_confined_to_repro_definitions(self, qualname):
        # the repro.*-only restriction must hold for where the target
        # is *defined*, not just the import path it is reached through;
        # decode_value runs on untrusted HTTP bodies (POST /jobs)
        payload = {"__repro__": "function", "module": "repro.io",
                   "qualname": qualname}
        if qualname == "dumps":  # repro's own function: must still work
            assert io.decode_value(payload) is io.dumps
            return
        with pytest.raises(ValidationError):
            io.decode_value(payload)
        with pytest.raises(ValidationError):
            io.decode_value({"__repro__": "object", "module": "repro.io",
                             "qualname": qualname, "state": []})

    def test_object_decoder_rejects_foreign_classes(self):
        # classes imported into repro modules (from x import Y) are
        # reachable by plain getattr but defined elsewhere — refused
        with pytest.raises(ValidationError):
            io.decode_value({"__repro__": "object",
                             "module": "repro.robustness.pool",
                             "qualname": "deque", "state": []})

    def test_estimator_payload_rejects_foreign_classes(self):
        payload = {"kind": "repro.Estimator", "format": io.ESTIMATOR_FORMAT,
                   "module": "repro.serve.api",
                   "class": "ThreadingHTTPServer",
                   "params": {}, "fitted": {}}
        with pytest.raises(ValidationError):
            io.estimator_from_dict(payload)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            io.decode_value({"__repro__": "no-such-tag"})

    def test_untagged_dict_rejected(self):
        with pytest.raises(ValidationError):
            io.decode_value({"plain": "dict"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(ValidationError):
            io.encode_value(object())


class TestEstimatorRoundTrip:
    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(0)
        return np.concatenate([rng.normal(size=(25, 4)),
                               rng.normal(size=(25, 4)) + 4.0])

    def test_unfitted_round_trip(self):
        est = KMeans(n_clusters=4, random_state=3)
        back = KMeans.from_dict(json.loads(io.dumps(est.to_dict())))
        assert back.get_params() == est.get_params()
        assert back.labels_ is None

    def test_fitted_round_trip_identical_predictions(self, data):
        est = KMeans(n_clusters=2, random_state=0).fit(data)
        text = io.dumps(est.to_dict())
        assert_strict(text)
        back = KMeans.from_dict(json.loads(text))
        assert np.array_equal(back.labels_, est.labels_)
        assert np.array_equal(back.predict(data), est.predict(data))

    def test_from_dict_on_base_class(self, data):
        est = KMeans(n_clusters=2, random_state=0).fit(data)
        back = ParamsMixin.from_dict(est.to_dict())
        assert isinstance(back, KMeans)

    def test_from_dict_wrong_class_rejected(self, data):
        est = KMeans(n_clusters=2, random_state=0).fit(data)
        with pytest.raises(ValidationError):
            SCHISM.from_dict(est.to_dict())

    def test_nested_helper_objects_survive(self, data):
        est = SCHISM(n_intervals=4).fit(data)
        back = SCHISM.from_dict(json.loads(io.dumps(est.to_dict())))
        assert isinstance(back._clique_.threshold_fn, SchismThreshold)
        assert back.thresholds_ == est.thresholds_
        assert [c.objects for c in back.clusters_] == \
               [c.objects for c in est.clusters_]

    def test_non_repro_module_refused(self, data):
        payload = KMeans(n_clusters=2).to_dict()
        payload["module"] = "os.path"
        with pytest.raises(ValidationError):
            io.estimator_from_dict(payload)

    def test_unknown_format_refused(self):
        payload = KMeans(n_clusters=2).to_dict()
        payload["format"] = 999
        with pytest.raises(ValidationError):
            io.estimator_from_dict(payload)

    def test_tampered_params_fail_like_constructor_args(self, data):
        # params go through the constructor, so a tampered payload
        # behaves exactly like constructing with those params directly:
        # the library's own validation rejects it at fit time
        payload = KMeans(n_clusters=2).to_dict()
        payload["params"]["n_clusters"] = -1
        rebuilt = io.estimator_from_dict(payload)
        assert rebuilt.n_clusters == -1
        with pytest.raises(ValidationError):
            rebuilt.fit(data)

    def test_removed_param_names_in_error(self):
        # a MetaClustering saved while it still took a dissimilarity
        # callable
        payload = {
            "kind": "repro.Estimator", "format": 1,
            "module": "repro.originalspace.meta", "class": "MetaClustering",
            "params": {
                "dissimilarity": {"__repro__": "function",
                                  "module": "repro.metrics.clusterings",
                                  "qualname": "rand_dissimilarity"},
                "duplicate_threshold": 0.05, "n_base": 4, "n_clusters": 2,
                "n_meta_clusters": 3, "random_state": 0, "zipf_alpha": 1.0},
            "fitted": {"base_labelings_": None, "meta_labels_": None,
                       "labelings_": None, "duplication_rate_": None}}
        with pytest.raises(ValidationError, match="dissimilarity"):
            io.estimator_from_dict(payload)
        del payload["params"]["dissimilarity"]
        assert io.estimator_from_dict(payload).n_base == 4

    def test_save_load_json_estimator(self, data, tmp_path):
        est = KMeans(n_clusters=2, random_state=0).fit(data)
        path = io.save_json(est, tmp_path / "model.json")
        assert_strict(path.read_text(encoding="utf-8"))
        back = io.load_json(path)
        assert isinstance(back, KMeans)
        assert np.array_equal(back.labels_, est.labels_)


class TestStrictEmission:
    def test_sanitize_json(self):
        out = io.sanitize_json({"a": float("nan"),
                                "b": [float("inf"), 1.0],
                                "c": (float("-inf"),)})
        assert out == {"a": None, "b": ["Infinity", 1.0], "c": ["-Infinity"]}

    def test_dumps_never_emits_bare_tokens(self):
        text = io.dumps({"x": float("nan"), "y": float("inf")})
        assert_strict(text)
        assert json.loads(text) == {"x": None, "y": "Infinity"}

    def test_dumps_rejects_unsanitised_nan_by_construction(self):
        # a non-finite float makes the strict encoding raise, and the
        # sanitised retry converts it
        assert "NaN" not in io.dumps([float("nan")] * 3).replace(
            "null", "")

    @settings(max_examples=200, deadline=None)
    @given(obj=_JSON_VALUES, indent=st.sampled_from([None, 0, 2]),
           sort_keys=st.booleans(), ensure_ascii=st.booleans())
    def test_dumps_equals_sanitise_then_encode(self, obj, indent, sort_keys,
                                               ensure_ascii):
        kwargs = {"indent": indent, "sort_keys": sort_keys,
                  "ensure_ascii": ensure_ascii}
        assert io.dumps(obj, **kwargs) == json.dumps(
            io.sanitize_json(obj), allow_nan=False, **kwargs)

    def test_save_json_strict_for_nonfinite_quality(self, tmp_path):
        result = SubspaceClustering(
            [SubspaceCluster(range(3), (0,), quality=float("inf"))])
        path = io.save_json(result, tmp_path / "r.json")
        assert_strict(path.read_text(encoding="utf-8"))
        back = io.load_json(path)
        assert back[0].quality == math.inf

    def test_journal_bytes_are_strict(self, tmp_path):
        from repro.experiments.harness import ExperimentOutcome, ResultTable
        from repro.robustness.checkpoint import RunJournal

        table = ResultTable("t", ["metric", "value"])
        table.add(metric="nan", value=float("nan"))
        table.add(metric="inf", value=float("inf"))
        journal = RunJournal(tmp_path)
        journal.record(ExperimentOutcome(key="K", status="ok", table=table))
        for line in journal.path.read_text(
                encoding="utf-8").splitlines():
            assert_strict(line)
        reloaded = RunJournal(journal.path)
        assert "K" in reloaded

    def test_contract_tool_serialization_clause(self):
        import importlib.util
        import pathlib

        tool = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
            "check_estimator_contract.py"
        spec = importlib.util.spec_from_file_location("contract_tool", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        violations = module.check_serialization(
            "repro.cluster.KMeans", KMeans)
        assert violations == []
