"""The ``sweep`` workload: one parent process runs a grid of a few
hundred short guarded fits through ``run_experiments(jobs=nproc)`` with
a fresh journal and trace file each time — the shape of the A-series
parameter studies.

Each task fits one panel estimator at a seed derived from the workload
seed on small pinned planted-truth data, so per-task costs (pool
dispatch and heartbeats, journal rewrites, trace-shard export) are a
large share of the work.
"""

from __future__ import annotations

import os
import pathlib
import time
import warnings

from common import (fit_output, median, objectives_match, quantile,
                    recovery, stable_seed)
from panel import make_data

#: estimators in the grid and their task counts. Their fit costs are
#: about 1, 5 and 9 ms, so the task p50 falls in the middle of the
#: GaussianMixtureEM tasks and the p90 inside the KMeans tasks, not on
#: a boundary between two estimators.
GRID = (("KMedoids", 60), ("GaussianMixtureEM", 120), ("KMeans", 60))
#: planted-truth datasets the tasks cycle through, and their size
DATASETS = 4
TASK_N = 150
#: grid-size factor of the warm-up sweep
WARM_SCALE = 0.1


class Grid:
    """The pinned task grid for one seed."""

    def __init__(self, seed, scale=1.0):
        from repro.serve.scheduler import servable_estimators

        servable = servable_estimators()
        n = max(int(TASK_N * scale), 40)
        self.n = n
        self.data = [make_data(n, stable_seed("sweep", i))
                     for i in range(DATASETS)]
        self.tasks = {}
        for name, count in GRID:
            for i in range(max(int(count * scale), 2)):
                key = f"{name}-{i:03d}"
                self.tasks[key] = (servable[name], i % DATASETS,
                                   stable_seed(seed, "sweep", key))

    def layer(self, key):
        return self.tasks[key][0].__module__.split(".")[1]

    def experiments(self, recorder=None):
        """``{key: zero-argument task}``; with a recorder each fit is a
        ``fit`` span (recorded in the worker that runs it)."""
        return {key: _task(self, key, recorder) for key in self.tasks}


def _task(grid, key, recorder):
    cls, data_index, seed = grid.tasks[key]
    X, _ = grid.data[data_index]
    attrs = {"layer": cls.__module__.split(".")[1], "tier": "sweep",
             "estimator": cls.__name__}

    def fit():
        estimator = cls(random_state=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimator.fit(X)
        return estimator

    def body():
        from repro.experiments.harness import ResultTable

        start = time.perf_counter()
        estimator = (fit() if recorder is None
                     else recorder.call("fit", fit, (), {}, attrs=attrs))
        fit_s = time.perf_counter() - start
        digest, objective, _ = fit_output(estimator, grid.n)
        table = ResultTable(key, ["digest", "objective", "labels", "n_iter",
                                  "fit_s"])
        table.add(digest=digest, objective=objective,
                  labels=estimator.labels_.tolist(),
                  n_iter=int(getattr(estimator, "n_iter_", 0) or 0),
                  fit_s=fit_s)
        return table

    return body


def run_sweep(grid, workdir, label, recorder=None):
    """One ``run_experiments`` call; ``(seconds, outcomes)``.

    The timed region is the call plus the trace export it leaves to the
    caller (``Tracer.write_jsonl``), which is what ``repro run --jobs N
    --trace FILE`` pays."""
    from repro.experiments.harness import run_experiments
    from repro.observability import Tracer

    journal = workdir / f"journal-{label}"
    trace_path = workdir / f"trace-{label}.jsonl"
    experiments = grid.experiments(recorder)
    tracer = Tracer()
    start = time.perf_counter()
    outcomes = run_experiments(experiments, jobs=os.cpu_count(),
                               journal=journal, tracer=tracer,
                               trace_path=trace_path, keep_going=True)
    tracer.write_jsonl(trace_path)
    return time.perf_counter() - start, outcomes


class Checker:
    """Checks each sweep as it completes and keeps only what the metrics
    need, so memory does not grow with the number of sweeps a run fits
    in (``peak_rss_mb`` must not depend on the host's speed).

    A task fails when its outcome is not ok; at the default seed, when
    its labels or objective differ from the reference; at any seed, when
    it disagrees with the first sweep or its recovery is below the
    floor.
    """

    def __init__(self, grid, reference, seed, default_seed):
        self.grid = grid
        self.reference = reference
        self.exact = seed == default_seed
        self.failures = []
        self._first = {}

    def add(self, outcomes):
        """Check one sweep; ``[(key, elapsed, fit_s, n_iter)]`` of its ok
        tasks."""
        rows = []
        for outcome in outcomes:
            key = f"sweep/{outcome.key}/{self.grid.n}"
            if not outcome.ok:
                self.failures.append(f"{key}: {outcome.status}")
                continue
            row = outcome.table.rows[0]
            rows.append((outcome.key, outcome.elapsed, row["fit_s"],
                         row["n_iter"]))
            got = (row["digest"], row["objective"])
            if key in self._first:
                if got != self._first[key]:
                    self.failures.append(f"{key}: differs between sweeps")
                continue
            self._first[key] = got
            ref = self.reference.get(key)
            if self.exact and ref is not None and (
                    row["digest"] != ref["digest"]
                    or not objectives_match(row["objective"],
                                            ref["objective"])):
                self.failures.append(f"{key}: differs from reference")
                continue
            cls, data_index, _ = self.grid.tasks[outcome.key]
            floor = self.reference.get(
                f"sweep-floor/{cls.__name__}/{self.grid.n}")
            if floor is not None:
                score = recovery([row["labels"]],
                                 self.grid.data[data_index][1])
                if score < floor:
                    self.failures.append(f"{key}: recovery {score:.3f} "
                                         f"below floor {floor}")
        return rows


def run(ctx):
    from common import peak_rss_mb, setup_seconds
    from spans import Recorder, install

    grid = Grid(ctx.seed, ctx.scale)
    warm_grid = Grid(ctx.seed, scale=ctx.scale * WARM_SCALE)
    run_sweep(warm_grid, ctx.workdir, "warm")  # fork, imports, first pages
    setup_s, host = setup_seconds(ctx)
    if ctx.setup_only:
        return {"setup_s": setup_s}

    recorder = Recorder()
    spans_dir = pathlib.Path(ctx.workdir) / "spans"
    spans_dir.mkdir()
    checker = Checker(grid, ctx.reference, ctx.seed, ctx.default_seed)
    plain, traced = [], []
    host.cpus = sorted(os.sched_getaffinity(0))  # the pool uses them all
    window = host.open()
    deadline = time.perf_counter() + ctx.seconds
    while (not plain or (ctx.trace and not traced)
           or time.perf_counter() < deadline):
        label = len(plain) + len(traced)
        if ctx.trace and len(traced) < len(plain):
            installation = install(recorder, dump_dir=spans_dir)
            try:
                seconds, outcomes = run_sweep(grid, ctx.workdir, label,
                                              recorder)
            finally:
                installation.remove()
            traced.append((seconds, checker.add(outcomes)))
        else:
            seconds, outcomes = run_sweep(grid, ctx.workdir, label)
            plain.append((seconds, checker.add(outcomes)))
            host.sample()  # the pool has stopped: probe the host
        del outcomes
    slowdown = host.close(window)
    failures = checker.failures
    # end-to-end timings are normalised by the run's host slowdown
    raw_s = [seconds for seconds, _ in plain]
    sweep_s = [seconds / slowdown for seconds in raw_s]
    elapsed = [row[1] / slowdown for _, rows in plain for row in rows]
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (1000 * quantile(elapsed, 0.5), "ms"),
        "op_p90_ms": (1000 * quantile(elapsed, 0.9), "ms"),
        "throughput_ops": (len(grid.tasks) / median(sweep_s), "1/s"),
    }
    attempted = len(grid.tasks) * (len(plain) + len(traced))
    report = [f"sweep: {len(grid.tasks)} tasks on {os.cpu_count()} jobs, "
              f"{len(plain)} untraced and {len(traced)} traced sweeps, "
              f"untraced median {median(raw_s):.3f}s raw, "
              f"{median(sweep_s):.3f}s normalised by the {host.describe()}"]
    layers = {}
    if ctx.trace:
        layers = _layer_metrics(grid, plain, traced, recorder, spans_dir)
        layers["failed_frac"] = (len(failures) / attempted, "ratio")
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failures": failures, "report": report}


def _layer_metrics(grid, plain, traced, recorder, spans_dir):
    from repro.observability.registry import default_registry
    from spans import Summary, load_spans

    summary = Summary()
    summary.add_process(recorder.spans, default_tier="sweep")
    for path in sorted(spans_dir.glob("spans-*.json")):
        summary.add_process(load_spans(path), default_tier="sweep")
    count = len(traced)
    jobs = os.cpu_count()
    layers = {}
    fit_s = {}
    task_s = 0.0
    guard_s = 0.0
    iters = 0
    for _, rows in traced:
        for key, elapsed, seconds, n_iter in rows:
            fit_s.setdefault(key.rsplit("-", 1)[0], []).append(seconds)
            task_s += elapsed
            guard_s += elapsed - seconds
            iters += n_iter
    for key in grid.tasks:
        name = key.rsplit("-", 1)[0]
        layers[f"fit_s.{grid.layer(key)}.{name}.sweep"] = (
            median(fit_s[name]), "s")
    traced_s = median([seconds for seconds, _ in traced])
    plain_s = median([seconds for seconds, _ in plain])
    task_s /= count
    capacity = jobs * sum(seconds for seconds, _ in traced) / count
    worker_io = (sum(summary.durations["checkpoint.record"])
                 + sum(summary.durations["tracer.export"])) / count
    layers["fit_iters.sweep"] = (iters / count, "count")
    calls, self_s, nbytes = summary.linalg.get("sweep", (0, 0.0, 0))
    layers["linalg.calls.sweep"] = (calls / count, "count")
    layers["linalg.self_s.sweep"] = (self_s / count, "s")
    layers["linalg.bytes.sweep"] = (nbytes / count, "B")
    layers["harness.task_s"] = (task_s, "s")
    layers["pool.capacity_s"] = (capacity, "s")
    layers["pool.overhead_s"] = (capacity - task_s, "s")
    layers["pool.efficiency"] = (task_s / capacity, "ratio")
    histogram = default_registry().histogram("pool.task.seconds")
    layers["pool.task_p50_ms"] = (1000 * (histogram.quantile(0.5) or 0.0),
                                  "ms")
    records = summary.durations["checkpoint.record"]
    layers["checkpoint.records"] = (len(records) / count, "count")
    layers["checkpoint.record_s"] = (sum(records) / count, "s")
    layers["checkpoint.bytes_written"] = (
        summary.bytes["checkpoint.record"] / count, "B")
    layers["tracer.export_s"] = (
        sum(summary.durations["tracer.export"]) / count, "s")
    layers["sweep_s"] = (plain_s, "s")
    for layer, seconds in summary.layer_self.items():
        layers[f"self_s.{layer}"] = (seconds / count, "s")
    layers["self_s.experiments.harness"] = (guard_s / count, "s")
    layers["self_s.robustness.pool"] = (
        capacity - task_s - worker_io, "s")
    layers["trace.base_s"] = (plain_s, "s")
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    return layers
