"""Experiment harness: fault-tolerant sweeps and their summaries.

Every experiment in EXPERIMENTS.md is a ``run_*`` function returning a
:class:`ResultTable`; the benchmark scripts print the table so the
tutorial's figures/tables can be regenerated with one command. The
record types, :class:`ResultTable` and :class:`ExperimentOutcome`, live
in :mod:`repro.robustness.outcome` and are re-exported here.

:func:`run_experiments` executes a batch of them under a
:class:`~repro.robustness.RunGuard`: each experiment gets its own
budget/retry policy, failures become :class:`ExperimentOutcome` records
with a ``status`` instead of aborting the sweep, and
:func:`summarize_outcomes` renders the per-experiment status table.

Three opt-in hardening layers (see ``docs/robustness.md``):

* ``isolate=True`` runs the sweep on the pool of
  :mod:`repro.robustness.pool` with one long-lived worker subprocess
  (respawned after a kill or crash) and a ``hard_timeout`` deadline —
  a hang that never reaches a ``budget_tick``, or an outright crash
  (segfault, SIGKILL, OOM-kill), becomes a structured
  ``"timeout"``/``"crashed"`` failure and the sweep continues;
* ``journal=...`` checkpoints every completed outcome durably
  (:class:`~repro.robustness.RunJournal`), so a killed sweep resumes
  where it stopped: previously-succeeded keys are surfaced as status
  ``"skipped"`` with their tables intact and are not recomputed;
* ``jobs=N`` (``0`` = all cores) runs the grid on ``N`` workers of the
  same pool — always isolated, with crash quarantine
  (``crash_retries``), shared-memory data passing (``shared_data``),
  and per-key deterministic seeds (``base_seed``) so a parallel sweep
  is bit-identical to an in-process one and to any killed-and-resumed
  continuation.

There are two schedulers, in-process (``jobs=1`` without ``isolate``)
and the pool (everything else), and one task body that both run every
key through (``repro.robustness.pool._run_task``).
"""

from __future__ import annotations

import contextlib
import time

from ..exceptions import ValidationError
from ..observability.logs import get_logger
from ..observability.tracer import (
    Tracer,
    current_tracer,
    read_jsonl,
    trace_shard_paths,
)
from ..robustness.checkpoint import RunJournal
from ..robustness.outcome import ExperimentOutcome, ResultTable
from ..robustness.pool import (
    SharedDataset,
    _PoolRun,
    _run_task,
    derive_seed,
    resolve_jobs,
)

__all__ = ["ExperimentOutcome", "ResultTable", "run_experiments",
           "summarize_outcomes", "timed"]

logger = get_logger("experiments")

def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _skipped_outcome(key, prior_outcome):
    """Surface a journaled ``"ok"`` outcome as status ``"skipped"``."""
    return ExperimentOutcome(
        key=key, status="skipped", table=prior_outcome.table,
        elapsed=prior_outcome.elapsed,
        attempts=prior_outcome.attempts,
        iterations=prior_outcome.iterations,
        timings=prior_outcome.timings,
        peak_kb=prior_outcome.peak_kb,
    )


def _readonly_arrays(shared_data):
    """``{name: read-only view}``, matching what pool workers see."""
    if not shared_data:
        return None
    import numpy as np

    arrays = {}
    for name, array in shared_data.items():
        view = np.ascontiguousarray(array).view()
        view.flags.writeable = False
        arrays[name] = view
    return arrays


def _resume_prepass(experiments, journal, callback):
    """What both execution paths do before running anything.

    Keys the journal already holds as ``"ok"`` become ``"skipped"``
    outcomes, streamed to ``callback`` right away. Returns
    ``(skipped, grid)``: ``{key: outcome}`` and ``{key: run_fn}`` for
    every other key.
    """
    prior = journal.outcomes if journal is not None else {}
    skipped = {}
    grid = {}
    for key, experiment_fn in experiments.items():
        prior_outcome = prior.get(key)
        if prior_outcome is not None and prior_outcome.status == "ok":
            outcome = _skipped_outcome(key, prior_outcome)
            skipped[key] = outcome
            logger.info("experiment %s: skipped (journaled ok in %s)",
                        key, journal.path)
            if callback is not None:
                callback(outcome)
            continue
        grid[key] = experiment_fn
    return skipped, grid


def _run_in_process(grid, *, keep_going, max_seconds, max_retries, journal,
                    callback, shared_data, base_seed, tracer,
                    trace_contexts, deadlines):
    """The in-process branch of :func:`run_experiments` (no isolation).

    Keys run one after another under a cooperative
    :class:`~repro.robustness.RunGuard`; each outcome is journaled and
    streamed as it completes. Returns ``{key: outcome}``.
    """
    arrays = _readonly_arrays(shared_data)
    ran = {}
    with contextlib.ExitStack() as stack:
        if current_tracer() is not tracer:
            stack.enter_context(tracer)
        for key, run_fn in grid.items():
            # a key with a trace context joins the caller's trace:
            # a per-key tracer parented under the remote context
            ctx = trace_contexts.get(key)
            key_tracer = tracer if ctx is None else Tracer(
                profile_memory=tracer.profile_memory,
                trace_id=ctx.get("trace_id"),
                parent_id=ctx.get("span_id"),
            )
            outcome = _run_task(
                key, run_fn, seed=derive_seed(key, base_seed),
                arrays=arrays, max_seconds=max_seconds,
                max_retries=max_retries, deadline=deadlines.get(key),
                tracer=key_tracer, keep_spans=ctx is not None,
            )
            if outcome.spans:
                tracer.add_foreign_records(outcome.spans)
            logger.info(
                "experiment %s: %s in %.3fs (%d iterations, "
                "%d attempts)", key, outcome.status, outcome.elapsed,
                outcome.iterations, outcome.attempts,
            )
            ran[key] = outcome
            if journal is not None:
                journal.record(outcome)
            if callback is not None:
                callback(outcome)
            if not outcome.ok and not keep_going:
                logger.warning("stopping sweep after failure in %s", key)
                break
    return ran


def _run_on_pool(grid, *, jobs, keep_going, max_seconds, max_retries,
                 hard_timeout, crash_retries, journal, callback,
                 shared_data, base_seed, tracer, trace_path, trace_contexts,
                 deadlines):
    """The isolated branch of :func:`run_experiments` (``isolate`` or
    ``jobs > 1``): places ``shared_data`` in shared memory once and
    runs the grid on the worker pool of :mod:`repro.robustness.pool`.
    Returns ``{key: outcome}``.

    Tracing: with a ``tracer`` and ``trace_path`` the parent opens one
    ``sweep`` span whose :class:`~repro.observability.TraceContext`
    every worker joins, folds worker span records back in as outcomes
    stream (so a Ctrl-C keeps what completed), and finally absorbs the
    durable per-slot trace shards — merged by span id, so a span that
    arrived both ways counts once — then removes them. On an
    interrupt the shards stay on disk next to ``trace_path`` for
    post-mortem merging via ``Tracer.merge_shards``.
    """
    if not grid:
        return {}
    fold = callback
    with contextlib.ExitStack() as stack:
        sweep_trace = None
        if tracer is not None and trace_path is not None:
            if current_tracer() is not tracer:
                stack.enter_context(tracer)
            sweep_span = stack.enter_context(
                tracer.span("sweep", jobs=jobs, keys=len(grid)))
            sweep_trace = {"trace_id": tracer.trace_id,
                           "span_id": sweep_span.span_id}

        if tracer is not None:
            def fold(outcome):
                if outcome.spans:
                    tracer.add_foreign_records(outcome.spans)
                if callback is not None:
                    callback(outcome)

        shared = (stack.enter_context(SharedDataset.create(shared_data))
                  if shared_data else None)
        ran = _PoolRun(
            grid, jobs=jobs, max_seconds=max_seconds,
            max_retries=max_retries, hard_timeout=hard_timeout,
            crash_retries=crash_retries, journal=journal, callback=fold,
            shared_descriptor=None if shared is None
            else shared.descriptor(),
            base_seed=base_seed,
            profile_memory=tracer is not None and tracer.profile_memory,
            keep_going=keep_going, trace=sweep_trace,
            trace_path=trace_path, trace_contexts=trace_contexts,
            deadlines=deadlines,
        ).run()
    if tracer is not None and trace_path is not None:
        # clean completion: absorb the durable shards (idempotent
        # with the piped copies) and leave no worker files behind
        for shard in trace_shard_paths(trace_path):
            tracer.add_foreign_records(read_jsonl(shard, recover=True))
            shard.unlink()
    return ran


def run_experiments(experiments, *, keep_going=True, max_seconds=None,
                    max_retries=0, callback=None,
                    tracer=None, isolate=False, hard_timeout=None,
                    journal=None, jobs=1, crash_retries=0, shared_data=None,
                    base_seed=0, trace_contexts=None, trace_path=None,
                    deadlines=None):
    """Run a mapping of ``{key: experiment_fn}`` fault-tolerantly.

    Parameters
    ----------
    experiments : mapping of str -> callable
        Each callable takes no arguments and returns a ResultTable.
    keep_going : bool
        When true (the default), a failing experiment is recorded and
        the sweep continues; when false the sweep stops at the first
        failure (outcomes collected so far are still returned).
    max_seconds : float or None
        Per-experiment wall-clock budget, enforced cooperatively at
        optimiser iteration boundaries (see ``repro.robustness``).
    max_retries : int
        Extra attempts per experiment after a retryable failure.
    callback : callable or None
        Invoked with each :class:`ExperimentOutcome` as it completes
        (the CLI uses this for streaming output). Keys skipped on
        resume are streamed first, before anything runs.
    tracer : Tracer or None
        Tracer collecting one span tree per experiment. In-process, a
        sweep-local :class:`~repro.observability.Tracer` is created
        when None, so outcomes always carry iteration counts and
        per-stage timings; pass your own to keep the spans (e.g. for
        ``--trace FILE``). Isolated workers trace themselves and ship
        the summary back with the outcome; their spans reach
        ``tracer`` only with ``trace_path`` or ``trace_contexts``.
        Tracemalloc peaks are captured when ``tracer.profile_memory``
        is set, in workers too.
    isolate : bool
        Run the sweep on the pool of :mod:`repro.robustness.pool` even
        at ``jobs=1``: one long-lived worker subprocess, respawned
        after a kill or crash. A worker that dies (segfault, SIGKILL,
        nonzero exit) becomes a structured ``"crashed"`` failure and
        the sweep continues. ``jobs > 1`` always isolates.
    hard_timeout : float or None
        Hard per-experiment wall-clock deadline (seconds, positive).
        Unlike ``max_seconds`` it needs no cooperation: the worker is
        killed outright and recorded as a ``"timeout"`` failure.
        Implies nothing about ``max_seconds`` — use both (cooperative
        budget a bit below the hard deadline) for defense in depth.
        Requires an isolated sweep (``isolate`` or ``jobs > 1``).
    journal : RunJournal, str, Path, or None
        Crash-safe checkpoint store. Keys whose journaled outcome was
        ``"ok"`` are not re-executed — they are surfaced as status
        ``"skipped"`` with the prior table — and every fresh outcome
        is recorded durably as soon as it completes, so a sweep killed
        at any point resumes without recomputation. A path constructs
        a resuming :class:`~repro.robustness.RunJournal`. The journal
        starts writing (:meth:`RunJournal.begin`: its directory, and the
        discard of a ``resume=False`` journal's predecessor) only once
        every other argument has passed its checks, so a rejected call
        creates no checkpoint directory and leaves a prior journal
        intact.
    jobs : int
        Worker-process count. ``1`` (the default) runs in-process
        unless ``isolate`` is set; ``0`` or ``None`` means all cores;
        ``N > 1`` runs the grid on ``N`` workers of the work-stealing
        pool of :mod:`repro.robustness.pool`. Scheduling never affects
        results: seeds derive from experiment keys, so any ``jobs``
        value yields an equivalent sweep.
    crash_retries : int
        Isolated sweeps only: a key that crashes its worker more than
        this many times is quarantined as ``failed/crashed`` and never
        rescheduled (a per-key circuit breaker).
    shared_data : mapping of str -> ndarray, or None
        Arrays every experiment may read via
        :func:`repro.robustness.shared_arrays`. Isolated, they travel
        through ``multiprocessing.shared_memory`` once (one physical
        copy for N workers); in-process they are installed as
        read-only views.
    base_seed : int
        Root of the per-key deterministic seeds exposed to experiment
        bodies via :func:`repro.robustness.experiment_seed`
        (``derive_seed(key, base_seed)``).
    trace_contexts : mapping of str -> TraceContext/dict, or None
        Per-key trace contexts for cross-process trace propagation: an
        experiment with a context runs under a tracer that joins that
        trace (its root spans parented under the context's span), and
        its span records come back on ``outcome.spans`` — this is how
        a served job's request trace reaches the fit that it
        triggered, across the pool's process boundary.
    deadlines : mapping of str -> float, or None
        Per-key wall-clock deadlines in *remaining seconds from this
        call*. They are pinned to the monotonic clock once, as the
        first thing this call does, before the journal is loaded and
        resumed keys are streamed to ``callback``; both schedulers use
        those instants. Everything after that counts, queue time
        included: a key still pending when its deadline passes fails
        as ``timeout`` (context ``deadline_expired``) without running.
        A running key is bounded by the tighter of its deadline and
        ``max_seconds`` / ``hard_timeout``: cooperatively in-process,
        and by the pool's hard worker-kill when isolated (plus the
        cooperative budget shipped with the task). This is how a
        served request's ``deadline_ms`` reaches the fit that it
        triggered.
    trace_path : str, Path, or None
        Destination the caller will export the sweep trace to. For an
        isolated sweep this makes the flag truthful: the parent opens
        a ``sweep`` span, every worker joins its context and maintains
        a durable per-slot span shard next to ``trace_path`` (its
        first export atomically replaces a stale shard, later ones
        append and ``fsync`` that task's spans before the outcome is
        reported), and worker spans are merged back into ``tracer``
        (streamed with outcomes, shards absorbed at the end — after an
        interrupt the shards remain for ``Tracer.merge_shards``).
        Requires ``tracer`` for the merged spans to land anywhere; the
        caller still writes the file. In-process spans land in
        ``tracer`` directly.

    Returns
    -------
    list of ExperimentOutcome
        In grid order.
    """
    start = time.monotonic()  # every deadline counts from here
    deadline_at = {}
    for key, value in (deadlines or {}).items():
        if value is None:
            continue
        if not float(value) > 0:
            raise ValidationError(
                f"deadline for {key!r} must be positive, got {value}")
        deadline_at[key] = start + float(value)
    jobs = resolve_jobs(jobs)
    trace_contexts = {
        key: (ctx.to_dict() if hasattr(ctx, "to_dict") else dict(ctx))
        for key, ctx in (trace_contexts or {}).items()
    }
    if crash_retries < 0:
        raise ValidationError(
            f"crash_retries must be >= 0, got {crash_retries}"
        )
    isolate = isolate or jobs > 1
    if hard_timeout is not None:
        if not isolate:
            raise ValidationError(
                "hard_timeout requires isolate=True (or jobs > 1): a hard "
                "deadline can only be enforced by killing a worker process"
            )
        if not float(hard_timeout) > 0:
            raise ValidationError(
                f"hard_timeout must be positive, got {hard_timeout}"
            )
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)
    if journal is not None:
        journal.begin()
    skipped, grid = _resume_prepass(experiments, journal, callback)
    if isolate:
        ran = _run_on_pool(
            grid, jobs=jobs, keep_going=keep_going,
            max_seconds=max_seconds, max_retries=max_retries,
            hard_timeout=hard_timeout, crash_retries=crash_retries,
            journal=journal, callback=callback, shared_data=shared_data,
            base_seed=base_seed, tracer=tracer, trace_path=trace_path,
            trace_contexts=trace_contexts, deadlines=deadline_at,
        )
    else:
        ran = _run_in_process(
            grid, keep_going=keep_going, max_seconds=max_seconds,
            max_retries=max_retries, journal=journal, callback=callback,
            shared_data=shared_data, base_seed=base_seed,
            tracer=tracer if tracer is not None else Tracer(),
            trace_contexts=trace_contexts, deadlines=deadline_at,
        )
    done = {**skipped, **ran}
    return [done[key] for key in experiments if key in done]


def summarize_outcomes(outcomes):
    """Status-per-experiment summary as a :class:`ResultTable`.

    Includes elapsed wall-clock, attempts, and cooperative iteration
    counts alongside the status so slow or retry-heavy experiments are
    visible at a glance. A failure's ``kind`` is folded into the status
    column (``failed/timeout``, ``failed/crashed``) so hard kills are
    distinguishable from in-process errors; resumed keys show as
    ``skipped``.
    """
    table = ResultTable(
        "run summary",
        ["experiment", "status", "seconds", "attempts", "iterations",
         "error"],
    )
    for outcome in outcomes:
        error = ""
        status = outcome.status
        if outcome.failure is not None:
            if outcome.failure.kind != "error":
                status = f"{status}/{outcome.failure.kind}"
            error = f"{outcome.failure.error_type}: {outcome.failure.message}"
            if len(error) > 60:
                error = error[:57] + "..."
        table.add(experiment=outcome.key, status=status,
                  seconds=outcome.elapsed, attempts=outcome.attempts,
                  iterations=outcome.iterations, error=error)
    return table
