"""Job scheduling for the serving layer.

:class:`JobScheduler` owns the bounded request queue and the dispatch
loop that turns queued requests into ``run_experiments`` sweeps — the
same fault-tolerant harness the CLI uses, so per-job cooperative
budgets (:class:`~repro.robustness.RunGuard`), retries, and the
``jobs=N`` work-stealing pool all apply to served traffic unchanged.

Flow of one request:

1. :meth:`JobScheduler.submit` computes the request's
   :func:`~repro.serve.registry.model_key`. A registry hit returns a
   ``done`` job immediately (no refit). A key already queued or running
   coalesces onto the in-flight job. Otherwise the request joins the
   pending queue — or :class:`QueueFullError` is raised when the queue
   is at capacity, which the HTTP layer maps to ``429``. A request
   body seen before is answered by :meth:`JobScheduler.submit_repeat`
   from its digest when its model is still cached.
2. The dispatcher thread drains the pending queue in batches into
   ``run_experiments({job_id: fit_closure}, jobs=..., max_seconds=...)``.
3. Each fit closure writes its fitted model to the
   :class:`~repro.serve.registry.ModelRegistry` *before* reporting
   metrics (write-before-report, like journal shards), so a model is
   durably cached by the time its job turns ``done``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import threading
import time

import numpy as np

from ..core.taxonomy import ESTIMATOR_PACKAGES
from ..exceptions import MultiClustError, ValidationError
from ..observability.logs import get_logger
from ..observability.registry import LATENCY_BUCKETS, default_registry
from ..observability.tracer import Tracer, merge_records
from .registry import (ModelRegistry, coerce_given_labels,
                       dataset_fingerprint, model_key)

__all__ = ["Job", "JobScheduler", "QueueFullError", "servable_estimators"]

logger = get_logger("repro.serve.scheduler")

#: Completed jobs kept for status polling before the oldest are pruned.
_MAX_FINISHED = 1024

_FINISHED = ("done", "failed")

#: What :meth:`JobScheduler.submit` derived from one request: enough to
#: answer a repeat of it from the cache without the request's arrays.
#: ``deadline`` is in seconds from submission, after the clamp.
_Request = collections.namedtuple(
    "_Request", "key fingerprint estimator params seed deadline")


class QueueFullError(MultiClustError):
    """Raised by :meth:`JobScheduler.submit` when the pending queue is
    at capacity; the HTTP layer turns this into ``429 Too Many
    Requests`` so overload sheds load instead of queueing unboundedly.
    """


@functools.lru_cache(maxsize=None)
def _fit_signature(cls):
    """``(family, requires_given)`` for an estimator class, introspected
    once per class."""
    parameters = inspect.signature(cls.fit).parameters
    params = [p for p in parameters if p != "self"]
    first = params[0] if params else "X"
    requires_given = any(
        name in ("given", "labels")
        and parameters[name].default is inspect.Parameter.empty
        for name in params[1:])
    return first, requires_given


def servable_estimators():
    """Estimators reachable over the API: ``{class name: class}``.

    Servable means "fits a single data matrix" (``fit(X, ...)``) —
    candidate-set and labeling-ensemble estimators need richer inputs
    than the dataset-matrix request schema carries.
    """
    table = {}
    for pkg_name in ESTIMATOR_PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if not (inspect.isclass(obj) and hasattr(obj, "fit")
                    and hasattr(obj, "get_params")):
                continue
            family, _ = _fit_signature(obj)
            if family == "X":
                table[name] = obj
    return table


class Job:
    """One served fit request and its lifecycle state."""

    def __init__(self, job_id, key, fingerprint, estimator, params, seed):
        self.id = job_id
        self.key = key
        self.fingerprint = fingerprint
        self.estimator = estimator
        self.params = params
        self.seed = seed
        self.status = "queued"
        self.submitted_at = time.time()
        self.finished_at = None
        #: absolute epoch deadline (``submit``'s ``deadline`` seconds
        #: from submission, post-clamp); None = no deadline
        self.deadline_at = None
        self.cached = False
        self.coalesced = False
        self.metrics = {}
        self.error = None
        # cross-process tracing: the submitting request's trace
        # identity, and the span records accumulated for this job
        # (request + scheduler + worker-fit spans)
        self.trace_id = None
        self.trace_parent = None
        self.trace_records = []
        # per-job fit inputs; dropped once the job leaves the queue so
        # finished jobs don't pin request-sized arrays in memory
        self.X = None
        self.given = None

    def to_dict(self):
        """JSON-safe status view served by ``GET /jobs/<id>``."""
        payload = {
            "id": self.id,
            "status": self.status,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "estimator": self.estimator,
            "seed": self.seed,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "metrics": dict(self.metrics),
        }
        if self.error is not None:
            payload["error"] = dict(self.error)
        if self.status == "done":
            payload["model_url"] = f"/models/{self.key}"
        if self.trace_records:
            # one merged causal tree: request -> scheduler -> worker
            # fit spans, all sharing the request's trace_id
            payload["trace"] = {
                "trace_id": self.trace_id,
                "records": merge_records([self.trace_records]),
            }
        return payload


def _deadline_blame(job, failure):
    """True when a job's failure is attributable to *its own* deadline.

    A timeout-kill or cooperative budget stop on a job whose
    ``deadline_at`` has passed (or whose failure is explicitly tagged
    ``deadline_expired`` by the harness) is the client's deadline at
    work; anything else is a server-side failure and keeps its kind.
    """
    if job.deadline_at is None:
        return False
    context = getattr(failure, "context", None) or {}
    if context.get("deadline_expired"):
        return True
    if time.time() < job.deadline_at:
        return False
    return (getattr(failure, "kind", "") == "timeout"
            or getattr(failure, "error_type", "") == "BudgetExceededError")


def _make_fit_closure(cls, params, X, given, key, fingerprint, seed,
                      cache_dir, max_entries, max_bytes=None):
    """Build the zero-argument experiment body for one job.

    Runs inside a RunGuard (and, with ``jobs>1``, inside a pool worker
    process): fits, serialises, and durably registers the model before
    returning a metrics table. If the registry write degraded to
    memory (full/failing disk), the payload travels back in the result
    row (``model_payload``) — a pool worker's in-memory overlay dies
    with the worker, so the parent must adopt the model itself.
    """

    def fit_and_register():
        from ..experiments.harness import ResultTable
        from ..io import estimator_to_dict

        estimator = cls(**params)
        start = time.perf_counter()
        if given is not None:
            estimator.fit(X, given)
        else:
            estimator.fit(X)
        fit_seconds = time.perf_counter() - start
        payload = {
            "key": key,
            "fingerprint": fingerprint,
            "estimator": cls.__name__,
            "seed": seed,
            "fit_seconds": fit_seconds,
            "model": estimator_to_dict(estimator),
        }
        registry = ModelRegistry(cache_dir, max_entries=max_entries,
                                 max_bytes=max_bytes)
        registry.put(key, payload)
        table = ResultTable(f"serve {key[:12]}",
                            ["key", "fit_seconds", "n_iter",
                             "model_payload"])
        table.add(key=key, fit_seconds=round(fit_seconds, 6),
                  n_iter=getattr(estimator, "n_iter_", None),
                  model_payload=(payload if registry.degraded else None))
        return table

    return fit_and_register


class JobScheduler:
    """Bounded queue + dispatcher feeding ``run_experiments``.

    Parameters
    ----------
    registry : ModelRegistry — the model cache jobs publish into.
    jobs : int — parallelism handed to ``run_experiments`` (1 = fit in
        the dispatcher thread under a RunGuard; N>1 = the work-stealing
        pool with process isolation).
    queue_limit : int — pending-queue capacity; beyond it ``submit``
        raises :class:`QueueFullError`.
    max_seconds : float or None — per-job cooperative budget.
    max_retries : int — extra attempts per job on retryable failures.
    max_deadline : float or None — cap (seconds) on client-requested
        per-job deadlines; a request asking for more is clamped, so a
        client cannot hold a worker longer than the operator allows.
    shedder : LoadShedder or None — adaptive admission control;
        ``None`` keeps only the fixed ``queue_limit`` 429.
    breaker : CircuitBreaker or None — per-model-key circuit breaker
        over crash/timeout refit failures.
    """

    def __init__(self, registry, jobs=1, queue_limit=32, max_seconds=None,
                 max_retries=0, max_deadline=None, shedder=None,
                 breaker=None):
        if int(queue_limit) < 1:
            raise ValidationError("queue_limit must be >= 1")
        if max_deadline is not None and not float(max_deadline) > 0:
            raise ValidationError(
                f"max_deadline must be positive, got {max_deadline}")
        self.registry = registry
        self.jobs = int(jobs)
        self.queue_limit = int(queue_limit)
        self.max_seconds = max_seconds
        self.max_retries = int(max_retries)
        self.max_deadline = (None if max_deadline is None
                             else float(max_deadline))
        self.shedder = shedder
        self.breaker = breaker
        self._estimators = servable_estimators()
        self._metrics = default_registry()
        self._cond = threading.Condition()
        self._pending = collections.deque()
        self._jobs = collections.OrderedDict()
        self._finished = 0  # done/failed jobs among self._jobs
        # sha256 of a raw request body -> its _Request, LRU-bounded
        # like the registry it points into
        self._memo = collections.OrderedDict()
        self._inflight = {}
        # job id -> (Tracer, open scheduler-span context manager);
        # written and consumed by the dispatcher thread only
        self._job_traces = {}
        self._paused = False
        self._stop = False
        self._drain = True
        self._counter = 0
        self._thread = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Start the dispatcher thread; returns self."""
        if self._thread is not None:
            raise ValidationError("scheduler already started")
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-dispatcher",
                                        daemon=True)
        self._thread.start()
        return self

    def shutdown(self, drain=True, timeout=None):
        """Stop the dispatcher.

        With ``drain`` (the default — what SIGTERM triggers), queued
        jobs are still executed before the thread exits; without it,
        still-queued jobs fail with a ``shutdown`` error.
        """
        with self._cond:
            self._stop = True
            self._drain = bool(drain)
            if not drain:
                while self._pending:
                    job = self._pending.popleft()
                    self._finish(job, "failed",
                                 error={"kind": "shutdown",
                                        "message": "scheduler stopped"})
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def pause(self):
        """Hold dispatch (queued jobs stay queued); for tests and ops."""
        with self._cond:
            self._paused = True

    def resume(self):
        """Undo :meth:`pause`."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    # -- submission --------------------------------------------------------

    def resolve_estimator(self, name):
        """The servable estimator class for ``name`` (or raise)."""
        cls = self._estimators.get(str(name))
        if cls is None:
            raise ValidationError(
                f"unknown or unservable estimator {name!r}; servable: "
                f"{sorted(self._estimators)}")
        return cls

    def submit(self, estimator, X, params=None, given=None, seed=None,
               trace=None, deadline=None, digest=None):
        """Queue a fit request; returns its :class:`Job`.

        Cache hits and in-flight duplicates return immediately-
        resolved/coalesced jobs; a full queue raises
        :class:`QueueFullError`. ``trace`` is the submitting request's
        :class:`~repro.observability.TraceContext` (or its dict form):
        the job's scheduler and worker-fit spans join that trace, so
        ``GET /jobs/<id>`` can render one causal tree from the HTTP
        request down to the fit iterations. ``deadline`` (seconds from
        now, clamped to ``max_deadline``) bounds the job's total
        wall-clock including queue time; a job that misses it fails
        with error kind ``"deadline"`` (HTTP ``504``), its worker
        reaped like a ``hard_timeout`` kill. ``digest`` is the sha256
        of the raw request body these arguments were decoded from:
        once the submit succeeds, :meth:`submit_repeat` answers that
        body again without decoding it.
        """
        cls = self.resolve_estimator(estimator)
        if deadline is not None:
            deadline = float(deadline)
            if not deadline > 0:
                raise ValidationError(
                    f"deadline must be positive, got {deadline}")
            if self.max_deadline is not None:
                deadline = min(deadline, self.max_deadline)
        params = dict(params or {})
        unknown = set(params) - set(cls._param_names())
        if unknown:
            raise ValidationError(
                f"invalid parameters for {cls.__name__}: {sorted(unknown)}")
        _, requires_given = _fit_signature(cls)
        if requires_given and given is None:
            raise ValidationError(
                f"{cls.__name__}.fit requires given labels; "
                "pass \"given\" in the request")
        X = np.asarray(X, dtype=np.float64)
        if given is not None:
            # validated int64 coercion: the fit below must use exactly
            # the bytes the fingerprint hashed, or two requests that
            # truncate alike would share one cache entry
            given = coerce_given_labels(given)
        if seed is not None and "random_state" in cls._param_names():
            params.setdefault("random_state", int(seed))
        fingerprint = dataset_fingerprint(X, given=given)
        request = _Request(model_key(fingerprint, cls.__name__, params, seed),
                           fingerprint, cls.__name__, params, seed, deadline)
        # Checksum-verifying cache probe, deliberately *outside* the
        # condition lock (it reads the payload bytes). A corrupt entry
        # is quarantined right here, so the request falls through to a
        # refit instead of 404ing later at GET /models/<key>.
        if self.registry.verify(request.key):
            job = self._cached_job(request, trace)
        else:
            job = self._enqueue(request, trace, X, given)
        if digest is not None:
            with self._cond:
                self._memo[digest] = request
                self._memo.move_to_end(digest)
                while len(self._memo) > self.registry.max_entries:
                    self._memo.popitem(last=False)
        return job

    def submit_repeat(self, digest, trace=None):
        """The cached job for a request body that :meth:`submit` already
        accepted under ``digest``, or ``None``.

        The entry is still checksum-verified (a corrupt one is
        quarantined), so ``None`` also means "not cached (any more)":
        the caller then decodes the body and calls :meth:`submit`.
        """
        with self._cond:
            request = self._memo.get(digest)
            if request is None:
                return None
            self._memo.move_to_end(digest)
        if not self.registry.verify(request.key):
            return None
        return self._cached_job(request, trace)

    def _new_job(self, request, trace):
        """A fresh :class:`Job` for ``request``; the caller holds the
        condition."""
        self._counter += 1
        job = Job(f"job-{self._counter:08d}", request.key,
                  request.fingerprint, request.estimator,
                  dict(request.params), request.seed)
        if request.deadline is not None:
            job.deadline_at = time.time() + request.deadline
        if trace is not None:
            ctx = (trace.to_dict() if hasattr(trace, "to_dict")
                   else dict(trace))
            job.trace_id = ctx.get("trace_id")
            job.trace_parent = ctx.get("span_id")
        self._metrics.counter("serve.jobs.submitted").inc()
        return job

    def _cached_job(self, request, trace):
        """A ``done`` job answered from the registry: nothing is fitted."""
        with self._cond:
            job = self._new_job(request, trace)
            job.status = "done"
            job.cached = True
            job.finished_at = time.time()
            self._metrics.counter("serve.cache.hits").inc()
            self._remember(job)
            return job

    def _enqueue(self, request, trace, X, given):
        """Coalesce ``request`` onto its in-flight job, or queue a fit."""
        with self._cond:
            job = self._new_job(request, trace)
            inflight = self._inflight.get(job.key)
            if inflight is not None and inflight.status in ("queued",
                                                            "running"):
                inflight.coalesced = True
                self._metrics.counter("serve.jobs.coalesced").inc()
                return inflight
            if self._stop:
                raise QueueFullError("scheduler is shutting down")
            if self.breaker is not None:
                # a refit is about to be queued: a key that keeps
                # crashing workers is refused at the front door
                # (cache hits and coalesces above never reach here)
                self.breaker.check(job.key)
            if self.shedder is not None:
                self.shedder.check(len(self._pending), self.jobs)
            if len(self._pending) >= self.queue_limit:
                self._metrics.counter("serve.queue.rejected").inc()
                raise QueueFullError(
                    f"pending queue full ({self.queue_limit} jobs)")
            job.X = X
            job.given = given
            self._pending.append(job)
            self._inflight[job.key] = job
            self._remember(job)
            self._metrics.counter("serve.cache.misses").inc()
            self._metrics.gauge("serve.queue.depth").set(len(self._pending))
            self._cond.notify_all()
            return job

    def get_job(self, job_id):
        """The :class:`Job` for ``job_id``, or ``None``."""
        with self._cond:
            return self._jobs.get(str(job_id))

    def attach_trace(self, job_id, records):
        """Prepend span records (the HTTP request's own spans) to a
        job's trace; returns False when the job is unknown."""
        with self._cond:
            job = self._jobs.get(str(job_id))
            if job is None:
                return False
            job.trace_records = list(records) + job.trace_records
            return True

    def stats(self):
        """Queue/lifecycle counts for ``GET /healthz`` and ``/stats``."""
        with self._cond:
            counts = collections.Counter(j.status
                                         for j in self._jobs.values())
            stats = {
                "queue_depth": len(self._pending),
                "queue_limit": self.queue_limit,
                "jobs": self.jobs,
                "paused": self._paused,
                "queued": counts.get("queued", 0),
                "running": counts.get("running", 0),
                "done": counts.get("done", 0),
                "failed": counts.get("failed", 0),
                "models_cached": len(self.registry),
            }
            depth = stats["queue_depth"]
        # readiness extras (no I/O beyond a dir listing; computed
        # outside the condition lock)
        stats["cache_mode"] = ("degraded-memory" if self.registry.degraded
                               else "disk")
        if self.shedder is not None:
            stats["shedder"] = self.shedder.state(depth, self.jobs)
        if self.breaker is not None:
            stats["breaker_open_keys"] = self.breaker.open_keys()
        return stats

    # -- dispatch ----------------------------------------------------------

    def _remember(self, job):
        """Retain ``job`` for status polling. Beyond ``_MAX_FINISHED``
        finished jobs the oldest-submitted finished ones are dropped;
        unfinished jobs never are. ``_jobs`` is in submission order, so
        the walk stops at the first ``excess`` finished jobs: it passes
        only the unfinished jobs older than those, at most the queued
        and running ones. Its callers already hold the (reentrant)
        condition."""
        with self._cond:
            self._jobs[job.id] = job
            if job.status in _FINISHED:
                self._finished += 1
            excess = self._finished - _MAX_FINISHED
            if excess <= 0:
                return
            stale = []
            for retained in self._jobs.values():
                if retained.status in _FINISHED:
                    stale.append(retained.id)
                    if len(stale) == excess:
                        break
            for job_id in stale:
                del self._jobs[job_id]
            self._finished -= len(stale)

    def _finish(self, job, status, metrics=None, error=None):
        # every caller already holds the condition (it is reentrant);
        # taking it here too makes the _inflight mutation safe even
        # from a future lock-free call site
        with self._cond:
            if job.status not in _FINISHED:
                self._finished += 1
            job.status = status
            job.finished_at = time.time()
            job.metrics.update(metrics or {})
            job.error = error
            job.X = None
            job.given = None
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def _loop(self):
        from ..experiments.harness import run_experiments

        while True:
            with self._cond:
                while not self._stop and (self._paused or not self._pending):
                    self._cond.wait()
                if self._stop and (not self._drain or not self._pending):
                    return
                if self._paused and not self._stop:
                    continue
                batch = []
                now = time.time()
                while self._pending:
                    job = self._pending.popleft()
                    if (job.deadline_at is not None
                            and now >= job.deadline_at):
                        # expired while queued: 504 without burning a
                        # worker on work nobody is waiting for
                        self._metrics.counter(
                            "serve.jobs.deadline_expired").inc()
                        self._finish(job, "failed", error={
                            "kind": "deadline",
                            "error_type": "WorkerTimeoutError",
                            "message": "deadline expired while queued",
                        })
                        continue
                    batch.append(job)
                self._metrics.gauge("serve.queue.depth").set(0)
                for job in batch:
                    job.status = "running"
            experiments = {
                job.id: _make_fit_closure(
                    self.resolve_estimator(job.estimator), job.params,
                    job.X, job.given, job.key, job.fingerprint, job.seed,
                    self.registry.cache_dir, self.registry.max_entries,
                    self.registry.max_bytes)
                for job in batch
            }
            by_id = {job.id: job for job in batch}
            trace_contexts = {}
            for job in batch:
                if job.trace_id is None:
                    continue
                # a scheduler span per traced job, left open while the
                # fit runs; the fit's worker tracer parents under it
                tracer = Tracer(trace_id=job.trace_id,
                                parent_id=job.trace_parent)
                open_span = tracer.span(
                    "scheduler", job=job.id,
                    queue_seconds=round(
                        max(time.time() - job.submitted_at, 0.0), 6))
                span = open_span.__enter__()
                self._job_traces[job.id] = (tracer, open_span)
                trace_contexts[job.id] = {"trace_id": job.trace_id,
                                          "span_id": span.span_id}
            deadlines = {
                job.id: max(job.deadline_at - time.time(), 1e-3)
                for job in batch if job.deadline_at is not None
            }
            try:
                run_experiments(
                    experiments,
                    keep_going=True,
                    max_seconds=self.max_seconds,
                    max_retries=self.max_retries,
                    jobs=self.jobs,
                    trace_contexts=trace_contexts,
                    deadlines=deadlines,
                    callback=lambda outcome: self._on_outcome(
                        by_id.get(outcome.key), outcome),
                )
            except Exception:
                logger.exception("dispatch batch failed")
                with self._cond:
                    for job in batch:
                        if job.status == "running":
                            self._finish(job, "failed",
                                         error={"kind": "dispatch",
                                                "message": "batch dispatch "
                                                           "error"})
            finally:
                for job in batch:  # close spans of jobs that never
                    entry = self._job_traces.pop(job.id, None)  # reported
                    if entry is not None:
                        entry[1].__exit__(None, None, None)

    def _on_outcome(self, job, outcome):
        if job is None:
            return
        trace_records = []
        entry = self._job_traces.pop(job.id, None)
        if entry is not None:
            tracer, open_span = entry
            open_span.__exit__(None, None, None)
            trace_records = tracer.to_records()
        if outcome.spans:
            trace_records = trace_records + list(outcome.spans)
        if outcome.ok:
            rows = getattr(outcome.table, "rows", None)
            stranded = rows[0].get("model_payload") if rows else None
            if stranded is not None:
                # the worker's registry write degraded to its (now
                # dead) process memory; adopt the model here — outside
                # the condition lock, it is a disk write — so
                # GET /models/<key> can still serve it
                self.registry.put(job.key, stranded)
            elif self.registry.degraded:
                # the worker wrote its entry to disk fine, so the disk
                # has recovered: flush this process's overlay back out
                self.registry.heal()
        with self._cond:
            if trace_records:
                job.trace_records.extend(trace_records)
            if outcome.ok:
                metrics = {"seconds": outcome.elapsed,
                           "attempts": outcome.attempts,
                           "iterations": outcome.iterations}
                rows = getattr(outcome.table, "rows", None)
                if rows:
                    metrics["fit_seconds"] = rows[0].get("fit_seconds")
                    metrics["n_iter"] = rows[0].get("n_iter")
                self._metrics.counter("serve.jobs.fitted").inc()
                self._metrics.histogram(
                    "serve.fit.seconds", buckets=LATENCY_BUCKETS
                ).observe(float(outcome.elapsed or 0.0))
                if self.breaker is not None:
                    self.breaker.record_success(job.key)
                self._finish(job, "done", metrics=metrics)
            else:
                failure = outcome.failure
                kind = getattr(failure, "kind", "error")
                if _deadline_blame(job, failure):
                    # the request's own deadline (not the server's
                    # budget) killed the fit: surface as "deadline" so
                    # the HTTP layer answers 504, not 500
                    kind = "deadline"
                    self._metrics.counter(
                        "serve.jobs.deadline_expired").inc()
                elif (self.breaker is not None
                      and kind in ("crashed", "timeout")):
                    # a fit that took a worker down (not one the client
                    # gave up on) counts toward opening the circuit
                    self.breaker.record_failure(job.key)
                self._metrics.counter("serve.jobs.failed").inc()
                self._finish(job, "failed",
                             metrics={"seconds": outcome.elapsed,
                                      "attempts": outcome.attempts},
                             error={
                                 "kind": kind,
                                 "error_type": getattr(failure, "error_type",
                                                       ""),
                                 "message": getattr(failure, "message", ""),
                             })
            self._cond.notify_all()
