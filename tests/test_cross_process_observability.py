"""Cross-process observability: trace propagation, shard merge, metrics.

The acceptance path from the ISSUE, end to end:

* a ``MetricsRegistry`` survives a multithreaded hammer without losing
  increments (the serve handler threads and the scheduler dispatcher
  share one registry), and ``merge()`` folds worker snapshots in with
  counter/gauge/histogram semantics;
* a ``TraceContext`` crosses the process boundary: a served job's
  ``GET /jobs/<id>`` trace and a ``--jobs N`` CLI sweep both render a
  *single* causal tree — request → scheduler → worker → fit — with a
  constant ``trace_id`` and per-worker attribution;
* a SIGKILLed worker's partial trace shard (torn trailing line) merges
  without poisoning the tree;
* ``GET /metrics`` speaks Prometheus text exposition format v0.0.4;
* the ``tools/check_trace_schema.py`` CI gate passes on the tree.
"""

import importlib.util
import json
import pathlib
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.exceptions import ValidationError
from repro.experiments.harness import ResultTable, run_experiments
from repro.observability import (
    LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    TraceContext,
    Tracer,
    merge_records,
    prometheus_name,
    read_jsonl,
    render_records,
    reset_default_registry,
    trace_shard_path,
    trace_shard_paths,
    write_records_jsonl,
)
from repro.serve import JobScheduler, ModelRegistry, make_server
from tests.faults import hard_crash

pytestmark = pytest.mark.filterwarnings("ignore")

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load_tool(stem):
    spec = importlib.util.spec_from_file_location(stem,
                                                  _TOOLS / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


trace_schema = _load_tool("check_trace_schema")


def _table(name="t", **cells):
    table = ResultTable(name, list(cells) or ["x"])
    table.add(**(cells or {"x": 1.0}))
    return table


def _exp_ok():
    return _table()


# ---------------------------------------------------------------------------
# MetricsRegistry: thread safety, merge semantics, Prometheus rendering


class TestMetricsRegistry:
    def test_threaded_hammer_loses_nothing(self):
        """Regression: unsynchronized read-modify-write used to drop
        increments under thread churn (serve handler threads all write
        the default registry concurrently)."""
        registry = MetricsRegistry()
        n_threads, n_iter = 8, 400
        barrier = threading.Barrier(n_threads)

        def hammer(tid):
            barrier.wait()
            for i in range(n_iter):
                registry.counter("hammer.total").inc()
                registry.histogram("hammer.hist",
                                   buckets=(1.0, 2.0)).observe(i % 3)
                # create-on-first-use churn: distinct names race the
                # instrument-creation path itself
                registry.counter(f"hammer.churn.{i % 5}").inc()
                registry.gauge("hammer.gauge").set(tid)

        threads = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        expected = n_threads * n_iter
        assert snap["hammer.total"]["value"] == expected
        assert snap["hammer.hist"]["count"] == expected
        churn = sum(snap[f"hammer.churn.{i}"]["value"] for i in range(5))
        assert churn == expected
        assert snap["hammer.gauge"]["value"] in range(n_threads)

    def test_merge_semantics(self):
        worker = MetricsRegistry()
        worker.counter("jobs.done").inc(3)
        worker.gauge("depth").set(7)
        hist = worker.histogram("latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        snapshot = worker.snapshot()

        driver = MetricsRegistry()
        driver.counter("jobs.done").inc(2)
        driver.histogram("latency", buckets=(0.1, 1.0)).observe(0.5)
        driver.merge(snapshot)

        merged = driver.snapshot()
        assert merged["jobs.done"]["value"] == 5  # counters add
        assert merged["depth"]["value"] == 7  # gauge appears
        assert merged["latency"]["count"] == 3  # histograms add bucket-wise
        assert merged["latency"]["buckets"]["le_0.1"] == 1
        assert merged["latency"]["buckets"]["le_1"] == 2
        assert merged["latency"]["buckets"]["le_inf"] == 3
        # merging the same snapshot again adds again (merge is a fold,
        # not an idempotent union — callers keep one snapshot per slot)
        driver.merge(snapshot)
        assert driver.snapshot()["jobs.done"]["value"] == 8
        # gauges: last write wins
        other = MetricsRegistry()
        other.gauge("depth").set(1)
        driver.merge(other.snapshot())
        assert driver.snapshot()["depth"]["value"] == 1

    def test_merge_rejects_mismatched_bounds(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValidationError):
            a.merge(b.snapshot())

    def test_merge_rejects_kind_mismatch(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        b = MetricsRegistry()
        b.gauge("x").set(1)
        with pytest.raises(ValidationError):
            a.merge(b.snapshot())

    def test_prometheus_name_mapping(self):
        assert (prometheus_name("serve.jobs.submitted", "counter")
                == "repro_serve_jobs_submitted_total")
        assert (prometheus_name("pool.queue.depth", "gauge")
                == "repro_pool_queue_depth")
        assert (prometheus_name("serve.http.seconds", "histogram")
                == "repro_serve_http_seconds")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("serve.jobs.submitted").inc(2)
        registry.gauge("pool.queue.depth").set(4)
        hist = registry.histogram("serve.http.seconds",
                                  buckets=LATENCY_BUCKETS)
        hist.observe(0.002)
        hist.observe(7.0)
        text = registry.to_prometheus()
        assert "# TYPE repro_serve_jobs_submitted_total counter" in text
        assert "repro_serve_jobs_submitted_total 2" in text
        assert "repro_pool_queue_depth 4" in text
        assert 'repro_serve_http_seconds_bucket{le="0.005"} 1' in text
        assert 'repro_serve_http_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_serve_http_seconds_count 2" in text
        # cumulative: each bucket count >= the previous one
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines() if "_bucket{" in line]
        assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# Trace identity and merge


class TestTraceIdentity:
    def test_every_record_carries_the_identity_triple(self):
        tracer = Tracer()
        with tracer, tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = tracer.to_records()
        assert len(records) == 2
        for rec in records:
            assert rec["trace_id"] == tracer.trace_id
            assert len(rec["span_id"]) == 16
        outer = next(r for r in records if r["name"] == "outer")
        inner = next(r for r in records if r["name"] == "inner")
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]

    def test_trace_context_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        back = TraceContext.from_dict(json.loads(json.dumps(ctx.to_dict())))
        assert back == ctx

    def test_merge_records_is_idempotent_on_duplicates(self):
        """The same span can arrive twice (result pipe + shard file);
        the merge keeps one copy."""
        tracer = Tracer()
        with tracer, tracer.span("root"):
            with tracer.span("child"):
                pass
        records = tracer.to_records()
        merged = merge_records([records, list(records)])
        assert len(merged) == 2
        assert [r["name"] for r in merged] == ["root", "child"]
        assert merged[1]["parent_id"] == merged[0]["span_id"]

    def test_merge_records_reroots_orphans(self):
        rec = {"name": "lost", "path": "lost", "depth": 3, "start": 0.0,
               "duration": 1.0, "n_ticks": 0, "trace_id": "f" * 32,
               "span_id": "a" * 16, "parent_id": "b" * 16}
        (merged,) = merge_records([[rec]])
        assert merged["depth"] == 0  # orphan becomes a root
        assert merged["path"] == "lost"


# ---------------------------------------------------------------------------
# Propagation through run_experiments (serial and pooled)


class TestSweepPropagation:
    def test_serial_trace_contexts_parent_the_key_spans(self):
        driver = Tracer()
        with driver:
            with driver.span("driver"):
                ctx = driver.context()
        outcomes = run_experiments({"K": _exp_ok},
                                   trace_contexts={"K": ctx})
        (outcome,) = outcomes
        assert outcome.ok
        assert outcome.spans, "traced outcome shipped no span records"
        for rec in outcome.spans:
            assert rec["trace_id"] == ctx.trace_id
        roots = [r for r in outcome.spans if r["parent_id"] == ctx.span_id]
        assert roots, "no key span linked back to the driver context"
        merged = merge_records([driver.to_records(), outcome.spans])
        top = [r for r in merged if r["parent_id"] is None]
        assert [r["name"] for r in top] == ["driver"]

    def test_pooled_sweep_merges_to_one_tree_despite_sigkill(self, tmp_path):
        """jobs=2 with a worker SIGKILLed mid-task: the merged trace is
        still one causal tree and the surviving keys keep their worker
        attribution."""
        trace = tmp_path / "sweep.jsonl"
        tracer = Tracer()
        outcomes = run_experiments(
            {"OK1": _exp_ok, "OK2": _exp_ok, "CRASH": hard_crash}, jobs=2,
            tracer=tracer, trace_path=trace)
        tracer.write_jsonl(trace)

        by_key = {o.key: o for o in outcomes}
        assert by_key["OK1"].ok and by_key["OK2"].ok
        assert by_key["CRASH"].failure.kind == "crashed"

        records = read_jsonl(trace)
        trace_ids = {r["trace_id"] for r in records}
        assert trace_ids == {tracer.trace_id}
        by_id = {r["span_id"]: r for r in records}
        assert len(by_id) == len(records)  # shard + pipe copies deduped
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["sweep"]
        for rec in records:
            if rec["parent_id"] is not None:
                assert rec["parent_id"] in by_id
        workers = {r["worker"] for r in records if r.get("worker")
                   is not None}
        assert workers  # per-worker attribution survived the merge
        ok_spans = {r["name"] for r in records if r.get("worker") is not None}
        assert {"OK1", "OK2"} <= ok_spans
        # shards were absorbed into the merged file and removed
        assert trace_shard_paths(trace) == []
        rendered = render_records(records)
        assert "sweep" in rendered and "@w" in rendered

    def test_trace_shard_write_error_keeps_the_worker(self, tmp_path):
        """A shard that cannot be written (here its directory is
        missing) is logged, not fatal: both fits stay ok and their
        spans still reach the driver over the pipe."""
        tracer = Tracer()
        outcomes = run_experiments(
            {"A": _exp_ok, "B": _exp_ok}, jobs=2, tracer=tracer,
            trace_path=tmp_path / "gone" / "trace.jsonl")
        assert [o.status for o in outcomes] == ["ok", "ok"]
        names = {r["name"] for r in tracer.to_records()}
        assert {"A", "B"} <= names

    def test_torn_shard_recovery(self, tmp_path):
        tracer = Tracer()
        with tracer, tracer.span("whole"):
            pass
        shard = trace_shard_path(tmp_path / "t.jsonl", 0)
        write_records_jsonl(shard, tracer.to_records())
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write('{"name": "torn", "span_id": "de')
        recovered = read_jsonl(shard, recover=True)
        assert [r["name"] for r in recovered] == ["whole"]
        # without recovery the torn line is an error, not silence
        with pytest.raises(ValueError):
            read_jsonl(shard)
        # a shard that was never written is skipped by the merge
        merged = Tracer.merge_shards(
            [shard, trace_shard_path(tmp_path / "t.jsonl", 1)])
        assert [r["name"] for r in merged] == ["whole"]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        """Recovery is for torn *trailing* writes only; corruption in
        the middle of a shard is real damage and must be loud."""
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"name": "x", "span_id": "a" }\n')
        with pytest.raises(ValueError):
            read_jsonl(path, recover=True)


# ---------------------------------------------------------------------------
# Serving layer: /metrics and the request -> worker trace


def _dataset():
    rng = np.random.default_rng(7)
    return np.concatenate([rng.normal(size=(30, 4)),
                           rng.normal(size=(30, 4)) + 5.0])


@pytest.fixture()
def served(tmp_path):
    """A live server whose scheduler fits on the jobs=2 pool, so the
    trace and the metrics genuinely cross process boundaries."""
    reset_default_registry()
    registry = ModelRegistry(tmp_path / "models", max_entries=32)
    scheduler = JobScheduler(registry, jobs=2, queue_limit=4).start()
    server = make_server("127.0.0.1", 0, scheduler=scheduler,
                         model_registry=registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url, scheduler, registry
    finally:
        scheduler.shutdown(drain=False, timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _request(url, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _submit_and_finish(url):
    status, _, body = _request(f"{url}/jobs", {
        "estimator": "KMeans", "dataset": _dataset().tolist(),
        "params": {"n_clusters": 2}, "seed": 11})
    assert status == 202
    job_id = body["job"]["id"]
    deadline = time.time() + 60
    while time.time() < deadline:
        _, _, body = _request(f"{url}/jobs/{job_id}")
        if body["job"]["status"] in ("done", "failed"):
            return body["job"]
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")


class TestServeObservability:
    def test_get_metrics_prometheus_exposition(self, served):
        url, _, _ = served
        job = _submit_and_finish(url)
        assert job["status"] == "done"
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = resp.read().decode("utf-8")
        # pool-health gauge, merged from the sweep pool
        assert "# TYPE repro_pool_queue_depth gauge" in text
        assert "repro_pool_workers_spawned_total" in text
        # latency histogram with buckets
        assert "# TYPE repro_serve_http_seconds histogram" in text
        assert 'repro_serve_http_seconds_bucket{le="+Inf"}' in text
        assert "repro_serve_jobs_submitted_total 1" in text
        # worker registries merged back across the process boundary
        assert "repro_pool_task_seconds_bucket" in text
        # endpoint is advertised
        _, _, root = _request(url)
        assert "GET /metrics" in root["endpoints"]

    def test_served_job_renders_single_causal_tree(self, served):
        url, _, _ = served
        job = _submit_and_finish(url)
        assert job["status"] == "done"
        trace = job.get("trace")
        assert trace, "done job carries no trace payload"
        records = trace["records"]
        assert {r["trace_id"] for r in records} == {trace["trace_id"]}
        by_id = {r["span_id"]: r for r in records}
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["request"]
        names = {r["name"] for r in records}
        assert "scheduler" in names
        assert any(n.endswith(".fit") for n in names)
        for rec in records:
            if rec["parent_id"] is not None:
                assert rec["parent_id"] in by_id
        assert any(r.get("worker") is not None for r in records)
        rendered = render_records(records)
        assert "request" in rendered and "@w" in rendered


# ---------------------------------------------------------------------------
# CLI end to end + the CI gate


class TestCliAndGate:
    def test_cli_pooled_trace_merges_worker_spans(self, tmp_path, capsys):
        """Regression: ``run --trace FILE --jobs N`` used to write only
        the driver's sweep skeleton, silently dropping worker spans."""
        trace = tmp_path / "sweep.jsonl"
        assert cli_main(["run", "F6", "--jobs", "2",
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        records = read_jsonl(trace)
        assert {r["trace_id"] for r in records} == {records[0]["trace_id"]}
        assert any(r.get("worker") is not None for r in records)
        assert trace_shard_paths(trace) == []
        assert cli_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "F6" in out and "@w" in out

    def test_trace_schema_checker_passes(self):
        assert trace_schema.main([]) == 0
