"""Instrumentation layer: tracer spans, metrics, convergence telemetry.

Four layers under test:

* ``repro.observability`` itself — span nesting and JSONL round-trips,
  the metrics registry semantics, capture-scope isolation, and the
  disabled fast path;
* the estimator population — every estimator advertising ``n_iter_``
  must produce a ``convergence_trace_`` of exactly that length, with
  well-formed events and the monotonicity its docstring claims;
* the harness — ``run_experiments`` attaches a tracer, outcomes carry
  iteration counts / per-stage timings, and ``summarize_outcomes``
  reports them;
* the CI gate — the telemetry clause of
  ``tools/check_estimator_contract.py`` passes on the tree.
"""

import importlib.util
import logging
import math
import pathlib
import warnings

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.cluster import KMeans
from repro.core import IterativeAlternativePipeline, SubspaceCluster
from repro.exceptions import ValidationError
from repro.experiments import run_experiments, summarize_outcomes
from repro.observability import (
    ConvergenceEvent,
    MetricsRegistry,
    Tracer,
    capture_convergence,
    configure_logging,
    current_tracer,
    default_registry,
    emit_objective,
    get_logger,
    level_from_verbosity,
    read_jsonl,
    render_records,
    render_stage_table,
    reset_default_registry,
    slowest_stages,
    summarize_trace,
    trace_span,
)
from repro.robustness import RunFailure, RunGuard, budget_tick
from repro.subspace import ASCLU, OSCLU

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load_tool(stem):
    spec = importlib.util.spec_from_file_location(stem,
                                                  _TOOLS / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


contract = _load_tool("check_estimator_contract")


# ---------------------------------------------------------------------------
# CI gates


def test_telemetry_contract_clause_passes():
    violations = []
    for name, cls in contract.iter_estimators():
        violations.extend(contract.check_telemetry(name, cls))
    assert violations == []


# ---------------------------------------------------------------------------
# estimator telemetry
#
# Monotone direction each estimator's docstring claims; None marks the
# documented non-monotone optimisers (no direction assertion beyond
# well-formedness). "constant" is always acceptable — tiny data may
# converge without ever changing the objective.

DIRECTIONS = {
    "KMeans": "nonincreasing",
    "FuzzyCMeans": "nonincreasing",
    "SpectralClustering": "nonincreasing",
    "GaussianMixtureEM": "nondecreasing",
    "KernelKMeans": "nondecreasing",
    "MinCEntropy": "nondecreasing",
    "ADCOAlternative": "nondecreasing",
    "ConditionalInformationBottleneck": "nonincreasing",
    "ConstrainedKMeans": None,
    "KMedoids": None,
    "DecorrelatedKMeans": None,
    "CAMI": None,
    "COALA": None,
    "FlexibleAlternativeClustering": None,
    "OrthogonalClustering": None,
    "CoEM": None,
    "MultipleSpectralViews": None,
}


def _telemetry_cases():
    cases = []
    for name, cls in contract.iter_estimators():
        try:
            inst = cls()
        except Exception:  # noqa: BLE001 - contract tool covers these
            continue
        if not hasattr(inst, "n_iter_"):
            continue
        if contract.clean_fit_args(cls) is None:
            continue
        cases.append(pytest.param(cls, id=cls.__name__))
    return cases


def _check_trace_wellformed(trace, n_iter):
    assert trace is not None
    assert len(trace) == n_iter
    for i, ev in enumerate(trace):
        assert isinstance(ev, ConvergenceEvent)
        assert ev.iteration == i + 1
        assert math.isfinite(ev.objective)
    if trace:
        assert math.isnan(trace[0].delta)
    for prev, ev in zip(trace, trace[1:]):
        assert ev.delta == pytest.approx(ev.objective - prev.objective,
                                         abs=1e-9)


@pytest.mark.parametrize("cls", _telemetry_cases())
def test_convergence_trace_matches_n_iter(cls):
    inst = cls()
    args = contract.clean_fit_args(cls)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst.fit(*args)
    _check_trace_wellformed(inst.convergence_trace_, inst.n_iter_)
    assert cls.__name__ in DIRECTIONS, (
        f"{cls.__name__} gained telemetry - add it to DIRECTIONS with "
        "its documented monotonicity"
    )
    expected = DIRECTIONS[cls.__name__]
    if expected is not None:
        shape = summarize_trace(inst.convergence_trace_)["shape"]
        assert shape in (expected, "constant", "empty")


def _subspace_candidates():
    return [
        SubspaceCluster(range(0, 40), (0, 1)),
        SubspaceCluster(range(40, 80), (2, 3)),
        SubspaceCluster(range(0, 30), (0, 1)),  # redundant concept
        SubspaceCluster(range(80, 120), (4, 5)),
    ]


def test_osclu_trace_is_running_objective():
    est = OSCLU(alpha=0.5, beta=0.34).fit(_subspace_candidates())
    _check_trace_wellformed(est.convergence_trace_, est.n_iter_)
    assert summarize_trace(est.convergence_trace_)["shape"] in (
        "nondecreasing", "constant")
    assert est.convergence_trace_[-1].objective == pytest.approx(
        est.objective_)


def test_asclu_forwards_inner_telemetry():
    known = [SubspaceCluster(range(0, 40), (0, 1))]
    est = ASCLU(alpha=0.5, beta=0.34).fit(_subspace_candidates(), known)
    _check_trace_wellformed(est.convergence_trace_, est.n_iter_)


def test_pipeline_trace_counts_rounds(two_truths):
    from repro.transform import OrthogonalProjectionTransform

    X, truths, views = two_truths
    pipe = IterativeAlternativePipeline(
        clusterer=KMeans(n_clusters=3, random_state=0),
        transformer=OrthogonalProjectionTransform(),
        n_solutions=2,
    ).fit(X)
    _check_trace_wellformed(pipe.convergence_trace_, pipe.n_iter_)


def test_capture_scopes_isolate_nested_fits(blobs3):
    X, _ = blobs3
    with capture_convergence() as outer:
        emit_objective(10.0)
        KMeans(n_clusters=3, random_state=0).fit(X)  # opens its own scope
        emit_objective(5.0)
    assert [ev.objective for ev in outer.events] == [10.0, 5.0]
    assert outer.events[1].delta == pytest.approx(-5.0)


def test_record_convergence_updates_default_registry(blobs3):
    X, _ = blobs3
    reset_default_registry()
    try:
        KMeans(n_clusters=3, random_state=0).fit(X)
        registry = default_registry()
        assert registry.counter("fits_total").value == 1
        assert registry.counter("fits_total.KMeans").value == 1
        assert registry.histogram("fit_iterations").count == 1
    finally:
        reset_default_registry()


def test_summarize_trace_shapes():
    def trace(*objectives):
        events = []
        prev = None
        for i, obj in enumerate(objectives):
            delta = math.nan if prev is None else obj - prev
            events.append(ConvergenceEvent(i + 1, obj, delta))
            prev = obj
        return events

    assert summarize_trace([])["shape"] == "empty"
    assert summarize_trace(trace(3.0))["shape"] == "constant"
    assert summarize_trace(trace(3.0, 2.0, 2.0))["shape"] == "nonincreasing"
    assert summarize_trace(trace(1.0, 2.0))["shape"] == "nondecreasing"
    s = summarize_trace(trace(1.0, 3.0, 2.0))
    assert s["shape"] == "mixed"
    assert s["total_change"] == pytest.approx(1.0)
    assert s["n_iterations"] == 3


# ---------------------------------------------------------------------------
# tracer


def test_tracer_nests_spans_and_counts_ticks():
    tracer = Tracer()
    with tracer:
        assert current_tracer() is tracer
        with tracer.span("outer", key="F1"):
            with trace_span("inner"):
                budget_tick(n=3)
            budget_tick()
    assert current_tracer() is None
    (outer,) = tracer.spans
    assert outer.name == "outer"
    assert outer.attrs == {"key": "F1"}
    assert outer.n_ticks == 1
    (inner,) = outer.children
    assert inner.name == "inner"
    assert inner.n_ticks == 3
    assert outer.total_ticks() == 4
    assert outer.duration >= inner.duration


def test_tracer_rejects_double_activation():
    tracer = Tracer()
    with tracer:
        with pytest.raises(ValidationError):
            tracer.__enter__()


def test_tracer_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer:
        with tracer.span("sweep"):
            for _ in range(2):
                with tracer.span("fit", algo="kmeans"):
                    budget_tick(n=5)
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(path) == 3
    records = read_jsonl(path)
    assert records == tracer.to_records()
    assert [r["depth"] for r in records] == [0, 1, 1]
    assert records[0]["path"] == "sweep"
    assert records[1]["path"] == "sweep/fit"
    assert records[1]["n_ticks"] == 5
    assert records[1]["attrs"] == {"algo": "kmeans"}


def test_numpy_scalars_export_as_python_values():
    attrs = {"n": np.int64(3), "f": np.float32(0.5), "b": np.bool_(True)}
    expected = {"n": 3, "f": 0.5, "b": True}
    tracer = Tracer()
    with tracer:
        with tracer.span("fit", **attrs):
            pass
    [record] = tracer.to_records()
    failure = RunFailure.from_exception(ValueError("x"), context=attrs)
    for exported in (record["attrs"], failure.to_dict()["context"]):
        assert exported == expected
        assert {k: type(v) for k, v in exported.items()} == \
            {"n": int, "f": float, "b": bool}


def test_read_jsonl_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "ok", "path": "ok", "depth": 0}\nnot json\n')
    with pytest.raises(ValidationError):
        read_jsonl(path)


def test_render_records_collapses_repeated_siblings():
    tracer = Tracer()
    with tracer:
        with tracer.span("sweep"):
            for _ in range(6):
                with tracer.span("fit"):
                    pass
            with tracer.span("score"):
                pass
    text = tracer.render_tree(collapse=4)
    assert "fit x6" in text
    assert "score" in text
    # collapse=10 keeps every sibling on its own line
    assert "fit x6" not in render_records(tracer.to_records(), collapse=10)


def test_slowest_stages_orders_by_self_time():
    tracer = Tracer()
    with tracer:
        with tracer.span("sweep"):
            with tracer.span("fit"):
                budget_tick(n=2)
            with tracer.span("fit"):
                pass
    stages = slowest_stages(tracer.to_records())
    paths = [s["path"] for s in stages]
    assert set(paths) == {"sweep", "sweep/fit"}
    fit = next(s for s in stages if s["path"] == "sweep/fit")
    assert fit["count"] == 2
    assert fit["ticks"] == 2
    sweep = next(s for s in stages if s["path"] == "sweep")
    # self time excludes the child fits
    assert sweep["self"] <= sweep["total"]
    assert "stage" in render_stage_table(stages)


def test_traced_fit_creates_span_only_when_active(blobs3):
    X, _ = blobs3
    est = KMeans(n_clusters=3, random_state=0)
    tracer = Tracer()
    with tracer:
        est.fit(X)
    assert [s.name for s in tracer.spans] == ["KMeans.fit"]
    # ticks cover every restart, so at least the winning restart's count
    assert tracer.spans[0].n_ticks >= est.n_iter_


def test_fast_path_is_noop_without_tracer():
    assert current_tracer() is None
    with trace_span("nothing") as span:
        assert span is None
    budget_tick(n=5, objective=1.0)  # no guard, no tracer, no capture


def test_profile_memory_records_peaks():
    tracer = Tracer(profile_memory=True)
    with tracer:
        with tracer.span("alloc"):
            data = np.zeros((256, 1024))  # ~2 MiB
            del data
    (span,) = tracer.spans
    assert span.peak_bytes is not None
    assert span.peak_bytes >= 2 * 1024 * 1024
    assert "peak_kb" in tracer.to_records()[0]


# ---------------------------------------------------------------------------
# metrics registry


def test_registry_instruments_and_snapshot():
    reg = MetricsRegistry()
    reg.record("runs")
    reg.record("runs", 2)
    reg.record("depth", 7, kind="gauge")
    reg.record("latency", 3.0, kind="histogram")
    snap = reg.snapshot()
    assert snap["runs"] == {"kind": "counter", "value": 3.0}
    assert snap["depth"]["value"] == 7.0
    assert snap["latency"]["count"] == 1
    assert len(reg) == 3 and "runs" in reg
    assert "runs: counter 3" in reg.render()
    reg.reset()
    assert len(reg) == 0
    assert reg.render() == "(no metrics recorded)"


def test_registry_binds_one_kind_per_name():
    reg = MetricsRegistry()
    reg.counter("n")
    with pytest.raises(ValidationError):
        reg.gauge("n")
    with pytest.raises(ValidationError):
        reg.record("n", 1.0, kind="histogram")
    with pytest.raises(ValidationError):
        reg.record("n", kind="nope")
    with pytest.raises(ValidationError):
        reg.counter("")


def test_counter_only_goes_up():
    reg = MetricsRegistry()
    with pytest.raises(ValidationError):
        reg.counter("n").inc(-1)


def test_histogram_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == {"le_1": 1, "le_10": 2, "le_inf": 3}
    assert snap["min"] == 0.5 and snap["max"] == 50.0
    assert h.mean == pytest.approx(55.5 / 3)
    with pytest.raises(ValidationError):
        reg.histogram("bad", buckets=(3.0, 1.0))
    with pytest.raises(ValidationError):
        reg.histogram("bad2", buckets=())


# ---------------------------------------------------------------------------
# logging


def test_get_logger_namespaces():
    assert get_logger("cluster").name == "repro.cluster"
    assert get_logger("repro.cluster").name == "repro.cluster"


def test_level_from_verbosity():
    assert level_from_verbosity(0) == logging.WARNING
    assert level_from_verbosity(1) == logging.INFO
    assert level_from_verbosity(2) == logging.DEBUG
    assert level_from_verbosity(9) == logging.DEBUG


def test_configure_logging_is_idempotent():
    root = logging.getLogger("repro")
    before = list(root.handlers)
    try:
        configure_logging("INFO")
        configure_logging("DEBUG")
        ours = [h for h in root.handlers
                if getattr(h, "_repro_observability_handler", False)]
        assert len(ours) == 1
        assert root.level == logging.DEBUG
    finally:
        for h in list(root.handlers):
            if h not in before:
                root.removeHandler(h)


# ---------------------------------------------------------------------------
# guard + harness + CLI integration


def test_runguard_populates_timings_and_telemetry():
    tracer = Tracer()

    def work():
        with trace_span("step"):
            budget_tick(n=4)
        return 42

    guard = RunGuard(label="exp", tracer=tracer)
    result = guard.run(work)
    assert result.value == 42
    assert result.telemetry["ticks"] == 4
    assert result.telemetry["spans"] == 1
    assert result.telemetry["elapsed"] >= 0
    assert set(result.timings) == {"step"}
    assert "ticks=4" in repr(result)


def test_run_experiments_attaches_tracer_and_iterations(blobs3):
    X, _ = blobs3

    def experiment():
        from repro.experiments import ResultTable

        km = KMeans(n_clusters=3, random_state=0).fit(X)
        return ResultTable("t", ["inertia"]).add(inertia=km.inertia_)

    tracer = Tracer()
    outcomes = run_experiments({"E1": experiment, "E2": experiment},
                               tracer=tracer)
    assert all(o.ok for o in outcomes)
    assert all(o.iterations > 0 for o in outcomes)
    assert all(o.timings == {"KMeans.fit": pytest.approx(
        o.timings["KMeans.fit"])} for o in outcomes)
    assert [s.name for s in tracer.spans] == ["E1", "E2"]
    table = summarize_outcomes(outcomes)
    assert table.columns == ["experiment", "status", "seconds", "attempts",
                             "iterations", "error"]
    assert table.column("iterations") == [o.iterations for o in outcomes]
    rendered = table.render()
    assert "iterations" in rendered and "attempts" in rendered


def test_run_experiments_failure_keeps_iteration_count():
    def bad():
        budget_tick(n=2)
        raise ValueError("boom")

    (outcome,) = run_experiments({"E1": bad})
    assert not outcome.ok
    assert outcome.iterations == 2


def test_cli_run_writes_trace_and_report_renders_it(tmp_path, capsys):
    trace = tmp_path / "sweep.jsonl"
    assert cli_main(["run", "F6", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert trace.exists()
    assert cli_main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "F6" in out
    assert "stage" in out


def test_cli_report_rejects_missing_trace(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_cli_verbose_flag_parses(capsys):
    assert cli_main(["-vv", "taxonomy"]) == 0
    root = logging.getLogger("repro")
    assert root.level == logging.DEBUG
    for h in list(root.handlers):
        if getattr(h, "_repro_observability_handler", False):
            root.removeHandler(h)
