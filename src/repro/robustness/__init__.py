"""Fault-tolerant run layer: budgets, retries, graceful degradation.

A production multi-clustering service runs ~20 optimisers over arbitrary
user data; any one of them can hit a degenerate seed, a singular
covariance, or an empty cluster. This subsystem makes such runs
*bounded* (wall-clock / iteration budgets enforced cooperatively inside
every optimiser loop), *recoverable* (retry-with-reseed for stochastic
fits), and *observable* (structured :class:`RunFailure` records instead
of raw tracebacks).

Three hard-enforcement modules complement the cooperative layer:
:mod:`repro.robustness.pool` is the work-stealing pool of killable
worker subprocesses on which ``run_experiments`` runs an isolated sweep
(``--isolate`` or ``--jobs N``), each in its own process group, under
a hard wall-clock deadline (covering hangs and crashes that never reach
a ``budget_tick``), with crash quarantine, shared-memory data passing,
and per-key deterministic seeds so parallel == in-process == resumed,
bit for bit;
:mod:`repro.robustness.workers` holds the process-group reaping and
failure records it is built on; and
:mod:`repro.robustness.checkpoint` journals completed outcomes with
fsynced appends so an interrupted sweep resumes without recomputation.
The outcomes they carry, and the tables inside them, are the records
of :mod:`repro.robustness.outcome`. The run layer imports nothing from
``repro.experiments``; the harness builds on it.

See ``docs/robustness.md`` for the full guide.
"""

from .checkpoint import RunJournal, canonical_summary, load_journal_records
from .guard import (
    KNOWN_FAILURE_KINDS,
    RunBudget,
    RunFailure,
    RunGuard,
    RunResult,
    active_budget,
    budget_tick,
)
from .pool import (
    SharedDataset,
    derive_seed,
    experiment_seed,
    resolve_jobs,
    shared_arrays,
)
from .workers import reap_process, worker_failure_record

__all__ = [
    "KNOWN_FAILURE_KINDS",
    "RunBudget",
    "RunFailure",
    "RunGuard",
    "RunResult",
    "RunJournal",
    "SharedDataset",
    "active_budget",
    "budget_tick",
    "canonical_summary",
    "derive_seed",
    "experiment_seed",
    "load_journal_records",
    "reap_process",
    "resolve_jobs",
    "shared_arrays",
    "worker_failure_record",
]
