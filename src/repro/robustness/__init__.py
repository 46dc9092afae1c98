"""Fault-tolerant run layer: budgets, retries, graceful degradation.

A production multi-clustering service runs ~20 optimisers over arbitrary
user data; any one of them can hit a degenerate seed, a singular
covariance, or an empty cluster. This subsystem makes such runs
*bounded* (wall-clock / iteration budgets enforced cooperatively inside
every optimiser loop), *recoverable* (retry-with-reseed for stochastic
fits), and *observable* (structured :class:`RunFailure` records instead
of raw tracebacks). :mod:`repro.robustness.faults` provides the fault
injection used to prove every estimator fails structurally, never with
an unhandled NumPy error.

Three hard-enforcement modules complement the cooperative layer:
:mod:`repro.robustness.workers` runs each experiment in a killable
subprocess (its own process group) with a hard wall-clock deadline
(covering hangs and crashes that never reach a ``budget_tick``),
:mod:`repro.robustness.checkpoint` journals completed outcomes with
fsynced appends so an interrupted sweep resumes without recomputation,
and :mod:`repro.robustness.pool` runs the whole grid concurrently on a
work-stealing pool of such workers (``--jobs N``) with crash
quarantine, shared-memory data passing, and per-key deterministic
seeds so parallel == serial == resumed, bit for bit.

See ``docs/robustness.md`` for the full guide.
"""

from .checkpoint import RunJournal, canonical_summary, load_journal_records
from .faults import (
    DATA_FAULTS,
    CrashingEstimator,
    FlakyEstimator,
    HangingEstimator,
    StallingEstimator,
    adversarial_cluster_count,
    collapse_to_single_point,
    faulty_variants,
    hang,
    hard_crash,
    inject_constant_feature,
    inject_duplicate_rows,
    inject_inf_cells,
    inject_nan_cells,
    oom,
)
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
    run_pool,
    shared_arrays,
)
from .workers import (
    WorkerResult,
    failure_from_worker,
    reap_process,
    run_in_worker,
    worker_failure_record,
)

__all__ = [
    "KNOWN_FAILURE_KINDS",
    "RunBudget",
    "RunFailure",
    "RunGuard",
    "RunResult",
    "RunJournal",
    "SharedDataset",
    "WorkerResult",
    "active_budget",
    "budget_tick",
    "canonical_summary",
    "derive_seed",
    "experiment_seed",
    "failure_from_worker",
    "load_journal_records",
    "reap_process",
    "resolve_jobs",
    "run_in_worker",
    "run_pool",
    "shared_arrays",
    "worker_failure_record",
    "DATA_FAULTS",
    "CrashingEstimator",
    "FlakyEstimator",
    "HangingEstimator",
    "StallingEstimator",
    "adversarial_cluster_count",
    "collapse_to_single_point",
    "faulty_variants",
    "hang",
    "hard_crash",
    "inject_constant_feature",
    "inject_duplicate_rows",
    "inject_inf_cells",
    "inject_nan_cells",
    "oom",
]
