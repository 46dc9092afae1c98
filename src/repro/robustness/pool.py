"""Fault-contained sweep pool: work-stealing over the grid.

``run_experiments`` runs every isolated sweep on this pool: ``jobs=N``
runs the grid across ``N`` worker subprocesses, and ``isolate=True`` at
``jobs=1`` is the same pool with one long-lived worker (respawned after
a kill or crash). A worker runs each key through the harness's task
body, the one the in-process scheduler uses too. Either way every
experiment gets these guarantees:

* **work stealing** — workers pull the next pending experiment the
  moment they go idle, so a slow key never stalls the rest of the grid
  behind a static partition;
* **fault containment** — each worker is a subprocess in its *own
  process group* with a heartbeat pipe and a hard per-task wall-clock
  deadline; the parent's monitor loop reaps hung workers
  (SIGTERM → SIGKILL via :func:`~repro.robustness.workers.reap_process`),
  respawns replacements, and keeps the sweep going; an idle worker
  whose parent died (even by SIGKILL) notices and exits;
* **crash quarantine** — an experiment that kills its worker is retried
  on a fresh worker at most ``crash_retries`` times; past that the key
  is recorded as ``failed/crashed`` (context ``quarantined``) and never
  rescheduled — a circuit breaker per key, not per run;
* **shared-memory data passing** — :class:`SharedDataset` places the
  sweep's arrays in ``multiprocessing.shared_memory`` once; workers
  reconstruct read-only NumPy views instead of receiving N pickled
  copies (:func:`shared_arrays` inside an experiment body);
* **deterministic seeding** — :func:`derive_seed` hashes the
  *experiment key* (never the scheduling slot or completion order) into
  a seed installed for the experiment body (:func:`experiment_seed`),
  so a parallel sweep is bit-identical to an in-process one and to any
  resumed continuation;
* **order-independent resume** — each worker journals its own outcomes
  durably (``journal.worker-<slot>.jsonl``: one appended and
  ``fsync``\\ ed line per outcome) *before* reporting them, and
  :class:`~repro.robustness.RunJournal` merges the shards on load, so
  ``--resume`` is correct regardless of which process died mid-write.
  Per-slot trace shards follow the same discipline: a worker's first
  export atomically replaces any stale shard, later ones append only
  that task's spans.

Ctrl-C SIGTERMs every worker's process group, leaves the durable
shards in place for resume, and propagates ``KeyboardInterrupt`` so
the CLI exits 130.
"""

from __future__ import annotations

import contextvars
import hashlib
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Optional

import numpy as np

from ..exceptions import ValidationError
from ..observability.logs import get_logger
from ..observability.tracer import Tracer
from .checkpoint import RunJournal
from .workers import (
    reap_process,
    worker_failure_record,
    _own_process_group,
    _pick_context,
    _signal_name,
)

__all__ = [
    "SharedDataset",
    "derive_seed",
    "experiment_seed",
    "resolve_jobs",
    "shared_arrays",
]

logger = get_logger("repro.robustness.pool")

#: Monitor-loop poll interval while waiting on worker pipes (seconds).
_POLL_SECONDS = 0.05

#: How often an idle worker checks that its parent is still alive. Under
#: ``fork`` a worker inherits the parent's ends of the pipes, so a dead
#: parent never shows up as EOF; a changed parent pid is the signal.
_ORPHAN_CHECK_SECONDS = 0.5

#: Least time between two liveness messages a busy worker sends.
_HEARTBEAT_SECONDS = 1.0


# ---------------------------------------------------------------------------
# Deterministic per-key seeds


_CURRENT_SEED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_experiment_seed", default=None
)

_SHARED_ARRAYS: contextvars.ContextVar = contextvars.ContextVar(
    "repro_shared_arrays", default=None
)


def derive_seed(key, base_seed=0):
    """Deterministic 32-bit seed for one experiment key.

    The seed is a function of ``(base_seed, key)`` only — never of the
    scheduling slot, worker id, or completion order — so the same grid
    produces the same seeds under ``jobs=1``, ``jobs=N``, and any
    resumed continuation.
    """
    digest = hashlib.sha256(
        f"{int(base_seed)}:{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "little")


def experiment_seed(default=None):
    """The per-key seed installed for the currently running experiment.

    Inside an experiment body run by ``run_experiments``, in-process
    or on the pool, this returns
    ``derive_seed(key, base_seed)`` for the experiment's own key;
    outside a sweep it returns ``default``.
    """
    seed = _CURRENT_SEED.get()
    return default if seed is None else seed


def shared_arrays():
    """The sweep's shared dataset as ``{name: read-only ndarray}``.

    Populated by ``run_experiments(shared_data=...)`` — via
    :class:`SharedDataset` under the pool, directly for in-process sweeps —
    and empty outside a sweep.
    """
    arrays = _SHARED_ARRAYS.get()
    return {} if arrays is None else dict(arrays)


def install_experiment_context(run_fn, seed, arrays):
    """Wrap ``run_fn`` so it executes with seed/shared-data installed.

    The wrapper sets the contextvars *at call time* (inside whatever
    process ends up running the experiment), so it works identically
    in-process, under ``fork``, and under ``spawn``.
    """
    def wrapped():
        seed_token = _CURRENT_SEED.set(seed)
        data_token = _SHARED_ARRAYS.set(arrays)
        try:
            return run_fn()
        finally:
            _CURRENT_SEED.reset(seed_token)
            _SHARED_ARRAYS.reset(data_token)

    return wrapped


# ---------------------------------------------------------------------------
# Shared-memory dataset passing


class SharedDataset:
    """A named set of NumPy arrays placed in shared memory once.

    The parent calls :meth:`create` before spawning workers; each
    worker calls :meth:`attach` on the :meth:`descriptor` and gets
    zero-copy **read-only** views, so N workers see one physical copy
    of the dataset instead of N pickled ones.

    The creator owns the segments: call :meth:`unlink` (or use the
    instance as a context manager) when the sweep is done. Workers only
    :meth:`close` their attachments.
    """

    def __init__(self, segments, views, owner):
        self._segments = segments
        self._views = views
        self._owner = owner

    @classmethod
    def create(cls, arrays):
        """Copy ``{name: array}`` into fresh shared-memory segments."""
        from multiprocessing import shared_memory

        segments, views = {}, {}
        try:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(array.nbytes, 1)
                )
                segments[name] = shm
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=shm.buf)
                view[...] = array
                view.flags.writeable = False
                views[name] = view
        except BaseException:  # re-raised below, so interrupts pass through
            cls(segments, views, owner=True).unlink()
            raise
        return cls(segments, views, owner=True)

    def descriptor(self):
        """JSON-safe recipe workers use to :meth:`attach`."""
        return {
            name: {
                "segment": shm.name,
                "shape": list(self._views[name].shape),
                "dtype": str(self._views[name].dtype),
            }
            for name, shm in self._segments.items()
        }

    @classmethod
    def attach(cls, descriptor):
        """Reconstruct read-only views from a :meth:`descriptor`."""
        from multiprocessing import shared_memory

        segments, views = {}, {}
        for name, spec in descriptor.items():
            try:
                shm = shared_memory.SharedMemory(
                    name=spec["segment"], track=False
                )
            except TypeError:  # Python < 3.13: no track parameter
                shm = shared_memory.SharedMemory(name=spec["segment"])
            segments[name] = shm
            view = np.ndarray(tuple(spec["shape"]),
                              dtype=np.dtype(spec["dtype"]), buffer=shm.buf)
            view.flags.writeable = False
            views[name] = view
        return cls(segments, views, owner=False)

    def arrays(self):
        """``{name: read-only ndarray}`` backed by the shared segments."""
        return dict(self._views)

    def close(self):
        """Drop this process's mapping (the data stays for others)."""
        self._views = {}
        for shm in self._segments.values():
            try:
                shm.close()
            except OSError: # shm close on teardown; the segment is unlinked separately
                pass

    def unlink(self):
        """Close and destroy the segments (creator only)."""
        segments = dict(self._segments)
        self.close()
        self._segments = {}
        if not self._owner:
            return
        for shm in segments.values():
            try:
                shm.unlink()
            except (OSError, FileNotFoundError): # another process already unlinked the segment
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.unlink()
        return False


# ---------------------------------------------------------------------------
# Worker side


class _WorkerTracer(Tracer):
    """Tracer for pool workers: iteration ticks double as heartbeats.

    Every ``budget_tick`` inside the worker both feeds the span tree
    (so ``iterations``/``timings`` ship back with the outcome) and
    refreshes the parent's liveness clock through the worker pipe.
    """

    def __init__(self, heartbeat, profile_memory=False, **kwargs):
        super().__init__(profile_memory=profile_memory, **kwargs)
        self._heartbeat = heartbeat

    def add_ticks(self, n=1):
        super().add_ticks(n)
        self._heartbeat()


def _pool_worker_main(conn, slot, experiments, config):
    """Long-lived worker: pull tasks, journal durably, report back.

    The worker places itself in its own process group (so the parent
    can kill the whole tree, and a terminal Ctrl-C does not hit it
    directly), attaches the shared dataset, and loops on the task pipe
    until told to shut down or until its parent is gone. Every
    completed outcome is journaled to this worker's own shard
    *before* it is reported, so a parent (or worker) death after the
    journal write can never lose the result.
    """
    from ..experiments.harness import _run_task
    from ..observability.registry import (
        default_registry,
        reset_default_registry,
    )
    from ..observability.tracer import TraceShard

    _own_process_group()
    parent_pid = os.getppid()
    # under fork the worker inherits the parent registry's contents;
    # start from zero so the snapshot shipped back with each outcome
    # holds only this worker's work and merges without double counting
    reset_default_registry()
    shared = None
    arrays = None
    if config["shared_descriptor"]:
        shared = SharedDataset.attach(config["shared_descriptor"])
        arrays = shared.arrays()
    journal = None
    if config.get("shard_path"):
        journal = RunJournal(config["shard_path"])
    trace_shard = (TraceShard(config["trace_shard_path"])
                   if config.get("trace_shard_path") else None)

    last_sent = [0.0]

    def heartbeat():
        now = time.monotonic()
        if now - last_sent[0] >= _HEARTBEAT_SECONDS:
            last_sent[0] = now
            try:
                conn.send(("heartbeat", now))
            except (BrokenPipeError, OSError):
                pass  # parent already gone; keep finishing the task

    exitcode = 0
    try:
        while True:
            try:
                if not conn.poll(_ORPHAN_CHECK_SECONDS):
                    if os.getppid() != parent_pid:
                        break  # parent died (even by SIGKILL): exit
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent is gone: stop pulling work
            if message[0] == "shutdown":
                break
            _, key, seed, trace, budget = message
            trace = trace or config["trace"]
            trace_kwargs = {}
            if trace is not None:
                trace_kwargs = {"trace_id": trace.get("trace_id"),
                                "parent_id": trace.get("span_id"),
                                "tags": {"worker": slot,
                                         "pid": os.getpid()}}
            tracer = _WorkerTracer(heartbeat,
                                   profile_memory=config["profile_memory"],
                                   **trace_kwargs)
            outcome = _run_task(
                key, experiments[key], seed=seed, arrays=arrays,
                max_seconds=config["max_seconds"],
                max_retries=config["max_retries"],
                # the parent sends the time left before the key's
                # deadline; pin it to this process's clock on receipt
                deadline=None if budget is None
                else time.monotonic() + budget,
                tracer=tracer, keep_spans=trace is not None,
            )
            if outcome.spans is not None and trace_shard is not None:
                # durable span shard: survives this worker (or the
                # driver) being SIGKILLed before the pipe delivery
                trace_shard.export(outcome.spans)
            if journal is not None:
                journal.record(outcome)  # durable before it is reported
            try:
                conn.send(("outcome", key, outcome.to_dict(),
                           default_registry().snapshot()))
            except (BrokenPipeError, OSError):
                break  # parent is gone; the shard already has the outcome
    except BaseException as exc:  # repro: noqa[RL004] - reports broken plumbing, then exits nonzero
        logger.warning("pool worker %d broke: %s: %s",
                       slot, type(exc).__name__, exc)
        exitcode = 1
    finally:
        if shared is not None:
            shared.close()
        try:
            conn.close()
        except OSError: # pipe close right before os._exit; nothing to report to
            pass
    os._exit(exitcode)


# ---------------------------------------------------------------------------
# Parent side: the monitor/scheduler loop


@dataclass
class _PoolWorker:
    """Parent-side record of one live worker subprocess."""

    slot: int
    process: Any
    conn: Any
    task: Optional[str] = None
    deadline: Optional[float] = None
    task_limit: Optional[float] = None
    assigned_at: Optional[float] = None
    last_heartbeat: Optional[float] = None
    tasks_done: int = 0

    @property
    def idle(self):
        return self.task is None


def resolve_jobs(jobs):
    """Normalise a ``jobs`` request: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return max(os.cpu_count() or 1, 1)
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ValidationError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs < 0:
        raise ValidationError(f"jobs must be >= 0 (0 = all cores), "
                              f"got {jobs}")
    return jobs


class _PoolRun:
    """One grid execution: scheduling state plus the monitor loop.

    ``run_experiments`` has checked every argument; ``deadlines`` maps
    keys to the monotonic instants it pinned. The loop records
    pool-health metrics (``pool.queue.depth``, ``pool.tasks.steals``,
    ``pool.task.seconds``, ...) and, when the run ends, merges each
    worker's last metrics snapshot into the driver's registry.
    """

    def __init__(self, experiments, *, jobs, max_seconds, max_retries,
                 hard_timeout, crash_retries, journal, callback,
                 shared_descriptor, base_seed, profile_memory, keep_going,
                 trace, trace_path, trace_contexts, deadlines):
        from ..observability.registry import default_registry

        self.experiments = dict(experiments)
        self.jobs = jobs
        self.config = {
            "max_seconds": max_seconds,
            "max_retries": max_retries,
            "profile_memory": profile_memory,
            "shared_descriptor": shared_descriptor,
            "trace": trace,
        }
        self.hard_timeout = hard_timeout
        #: key -> absolute monotonic deadline; a key past its deadline
        #: is killed like a hard_timeout (or failed outright while
        #: still pending), whichever bound is tighter
        self.deadlines = deadlines
        self.crash_retries = crash_retries
        self.journal = journal
        self.callback = callback
        self.base_seed = base_seed
        self.keep_going = keep_going
        self.trace_path = trace_path
        self.trace_contexts = trace_contexts
        self.ctx = _pick_context()
        self.pending = deque(self.experiments)
        self.results = {}
        self.crash_counts = {}
        self.workers = {}
        self._next_slot = 0
        self.metrics = default_registry()
        #: last cumulative registry snapshot per worker slot; merged
        #: into the driver registry once, when the run winds down
        self.worker_snapshots = {}

    # -- worker lifecycle ------------------------------------------------

    def _spawn_worker(self):
        from ..observability.tracer import trace_shard_path

        slot = self._next_slot
        self._next_slot += 1
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        config = dict(self.config)
        if self.journal is not None:
            config["shard_path"] = str(self.journal.shard_path(slot))
        if self.trace_path is not None:
            config["trace_shard_path"] = str(
                trace_shard_path(self.trace_path, slot))
        process = self.ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, slot, self.experiments, config),
            daemon=True, name=f"repro-pool-{slot}",
        )
        process.start()
        child_conn.close()
        try:  # close the startup race: the child does the same first thing
            os.setpgid(process.pid, process.pid)
        except (OSError, AttributeError): # setpgid race with the child; it sets its own group first thing
            pass
        worker = _PoolWorker(slot=slot, process=process, conn=parent_conn)
        self.workers[slot] = worker
        self.metrics.counter("pool.workers.spawned").inc()
        self.metrics.gauge("pool.workers.alive").set(len(self.workers))
        logger.debug("spawned pool worker %d (pid %s)", slot, process.pid)
        return worker

    def _ensure_workers(self):
        want = min(self.jobs, len(self.pending) + self._in_flight())
        while len(self.workers) < want:
            self._spawn_worker()

    def _in_flight(self):
        return sum(1 for w in self.workers.values() if not w.idle)

    def _discard_worker(self, worker, *, kill):
        self.workers.pop(worker.slot, None)
        if kill:
            reap_process(worker.process)
        else:
            worker.process.join()
        try:
            worker.conn.close()
        except OSError: # reaping a dead worker; its pipe may already be closed
            pass

    # -- outcome plumbing ------------------------------------------------

    def _record(self, outcome, *, parent_journal):
        """Register a finished key (and journal it when parent-owned)."""
        self.results[outcome.key] = outcome
        if parent_journal and self.journal is not None:
            self.journal.record(outcome)
        logger.info("experiment %s: %s in %.3fs (pool)",
                    outcome.key, outcome.status, outcome.elapsed)
        if self.callback is not None:
            self.callback(outcome)
        if not outcome.ok and not self.keep_going and self.pending:
            logger.warning("stopping sweep dispatch after failure in %s",
                           outcome.key)
            self.pending.clear()

    def _assign(self, worker):
        key = self.pending.popleft()
        now = time.monotonic()
        key_deadline = self.deadlines.get(key)
        if key_deadline is not None and now >= key_deadline:
            # the deadline expired while the key sat in the queue: fail
            # it without burning a worker on work nobody is waiting for
            self._record_expired(key, key_deadline)
            self._update_gauges()
            return
        worker.task = key
        worker.assigned_at = now
        worker.last_heartbeat = None  # silence is measured per task
        limits = [limit for limit in
                  (self.hard_timeout,
                   None if key_deadline is None else key_deadline - now)
                  if limit is not None]
        worker.task_limit = min(limits) if limits else None
        worker.deadline = (None if worker.task_limit is None
                           else now + worker.task_limit)
        if worker.tasks_done:
            # an idle worker pulling work beyond its first task is a
            # steal in work-stealing terms: the grid was not statically
            # partitioned, this worker outran its share
            self.metrics.counter("pool.tasks.steals").inc()
        # the remaining deadline budget also travels to the worker as a
        # cooperative bound, so a budget-aware fit stops on its own a
        # little before the parent would have to kill it
        budget = None if key_deadline is None else key_deadline - now
        worker.conn.send(("task", key, derive_seed(key, self.base_seed),
                          self.trace_contexts.get(key), budget))
        self._update_gauges()

    def _record_expired(self, key, key_deadline):
        from ..experiments.harness import _expired_outcome

        logger.warning("experiment %s: deadline expired %.3gs ago while "
                       "queued; not running it", key,
                       time.monotonic() - key_deadline)
        self.metrics.counter("pool.tasks.expired").inc()
        self._record(_expired_outcome(key), parent_journal=True)

    def _update_gauges(self):
        self.metrics.gauge("pool.queue.depth").set(len(self.pending))
        self.metrics.gauge("pool.tasks.in_flight").set(self._in_flight())

    def _handle_outcome(self, worker, key, payload, snapshot):
        from ..experiments.harness import ExperimentOutcome
        from ..observability.registry import LATENCY_BUCKETS

        outcome = ExperimentOutcome.from_dict(payload)
        # cumulative per-worker snapshot: keep only the latest and
        # merge once at the end, never per message
        self.worker_snapshots[worker.slot] = snapshot
        worker.tasks_done += 1
        if key == worker.task:
            if worker.assigned_at is not None:
                self.metrics.histogram(
                    "pool.task.seconds", buckets=LATENCY_BUCKETS
                ).observe(time.monotonic() - worker.assigned_at)
            worker.task = None
            worker.deadline = None
            worker.task_limit = None
        self._update_gauges()
        # worker-journaled outcomes reach the main journal at consolidation
        self._record(outcome, parent_journal=False)

    def _handle_death(self, worker):
        """A worker process died; classify, reschedule or quarantine."""
        self._drain(worker)
        key = worker.task
        self._discard_worker(worker, kill=True)  # joins: exitcode is now set
        exitcode = worker.process.exitcode
        self.metrics.counter("pool.workers.respawned").inc()
        self.metrics.gauge("pool.workers.alive").set(len(self.workers))
        if key is None:
            logger.warning("idle pool worker %d died (exitcode=%s)",
                           worker.slot, exitcode)
            return
        crashes = self.crash_counts.get(key, 0) + 1
        self.crash_counts[key] = crashes
        if crashes <= self.crash_retries:
            logger.warning(
                "experiment %s crashed its worker (%d/%d); rescheduling",
                key, crashes, self.crash_retries + 1,
            )
            self.pending.append(key)
            return
        failure = worker_failure_record(
            key, status="crashed",
            elapsed=time.monotonic() - worker.assigned_at,
            exitcode=exitcode, signal_name=_signal_name(exitcode),
            hard_timeout=self.hard_timeout,
            extra_context={"crashes": crashes,
                           "quarantined": self.crash_retries > 0},
        )
        from ..experiments.harness import ExperimentOutcome

        self._record(
            ExperimentOutcome(key=key, status="failed", failure=failure,
                              elapsed=failure.elapsed),
            parent_journal=True,
        )

    def _handle_timeout(self, worker):
        key = worker.task
        limit = (self.hard_timeout if worker.task_limit is None
                 else worker.task_limit)
        elapsed = time.monotonic() - worker.assigned_at
        silence = (None if worker.last_heartbeat is None
                   else time.monotonic() - worker.last_heartbeat)
        logger.warning("experiment %s exceeded the hard deadline %.3gs; "
                       "killing worker %d", key, limit,
                       worker.slot)
        self._discard_worker(worker, kill=True)
        self.metrics.counter("pool.tasks.timeouts").inc()
        self.metrics.counter("pool.workers.respawned").inc()
        self.metrics.gauge("pool.workers.alive").set(len(self.workers))
        key_deadline = self.deadlines.get(key)
        extra = ({"deadline_expired": True}
                 if key_deadline is not None
                 and time.monotonic() >= key_deadline else None)
        failure = worker_failure_record(
            key, status="timeout", elapsed=elapsed,
            exitcode=worker.process.exitcode,
            signal_name=_signal_name(worker.process.exitcode),
            hard_timeout=limit, heartbeat_age=silence,
            extra_context=extra,
        )
        from ..experiments.harness import ExperimentOutcome

        self._record(
            ExperimentOutcome(key=key, status="failed", failure=failure,
                              elapsed=elapsed),
            parent_journal=True,
        )

    def _drain(self, worker):
        """Pull whatever the worker managed to send before dying."""
        try:
            while worker.conn.poll(0):
                self._dispatch_message(worker, worker.conn.recv())
        except (EOFError, OSError): # draining a dead worker's pipe; EOF is the expected end
            pass

    def _dispatch_message(self, worker, message):
        tag = message[0]
        if tag == "heartbeat":
            worker.last_heartbeat = time.monotonic()
        elif tag == "outcome":
            self._handle_outcome(worker, *message[1:])

    # -- the monitor loop ------------------------------------------------

    def run(self):
        try:
            self._loop()
        except KeyboardInterrupt:
            logger.warning("interrupt: SIGTERMing %d pool worker group(s)",
                           len(self.workers))
            self._shutdown(kill=True)
            raise
        except BaseException:
            self._shutdown(kill=True)
            raise
        finally:
            # fold the final cumulative per-worker metrics snapshots in
            # (even on interrupt: completed work should stay counted)
            for snapshot in self.worker_snapshots.values():
                self.metrics.merge(snapshot)
            self.worker_snapshots.clear()
            self.metrics.gauge("pool.workers.alive").set(len(self.workers))
        self._shutdown(kill=False)
        self.metrics.gauge("pool.workers.alive").set(len(self.workers))
        if self.journal is not None:
            self.journal.consolidate()
        return self.results

    def _loop(self):
        while self.pending or self._in_flight():
            self._ensure_workers()
            for worker in list(self.workers.values()):
                if worker.idle and self.pending:
                    self._assign(worker)
            timeout = _POLL_SECONDS
            now = time.monotonic()
            for worker in self.workers.values():
                if worker.deadline is not None:
                    timeout = min(timeout, max(worker.deadline - now, 0.0))
            waitables = {}
            for worker in self.workers.values():
                waitables[worker.conn] = worker
                waitables[worker.process.sentinel] = worker
            if not waitables:
                continue
            ready = _mp_connection.wait(list(waitables), timeout=timeout)
            dead = {}
            for item in ready:
                worker = waitables[item]
                if item is worker.process.sentinel:
                    dead[worker.slot] = worker
                    continue
                try:
                    while worker.conn.poll(0):
                        self._dispatch_message(worker, worker.conn.recv())
                except (EOFError, OSError):
                    dead[worker.slot] = worker
            for worker in dead.values():
                if worker.slot in self.workers:
                    self._handle_death(worker)
            now = time.monotonic()
            for worker in list(self.workers.values()):
                if worker.deadline is not None and now >= worker.deadline:
                    self._handle_timeout(worker)

    def _shutdown(self, *, kill):
        for worker in list(self.workers.values()):
            if not kill:
                try:
                    worker.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    kill = True
            self._discard_worker(worker, kill=kill)
