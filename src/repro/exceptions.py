"""Exception types used across the :mod:`repro` library.

The hierarchy is intentionally shallow: callers that want to catch any
library error can catch :class:`MultiClustError`; everything else derives
from it.
"""


class MultiClustError(Exception):
    """Base class for all errors raised by the library."""


class NotFittedError(MultiClustError):
    """Raised when results are requested from an estimator before ``fit``."""


class ValidationError(MultiClustError, ValueError):
    """Raised when user-supplied data or parameters are invalid."""


class BudgetExceededError(MultiClustError):
    """Raised when a :class:`repro.robustness.RunBudget` is exhausted.

    Iterative optimisers check the active budget cooperatively (once per
    outer iteration), so a fit running under a
    :class:`repro.robustness.RunGuard` stops shortly after its wall-clock
    or iteration budget is spent instead of running unbounded.
    """


class WorkerTimeoutError(MultiClustError):
    """Raised (as a record) when an isolated worker exceeds its hard deadline.

    Unlike :class:`BudgetExceededError` — which relies on the optimiser
    cooperating via ``budget_tick`` — this marks a sweep-pool worker
    (``--isolate`` or ``--jobs N``) that had to be killed from the
    outside because it stopped responding entirely (see
    :mod:`repro.robustness.pool`).
    """


class WorkerCrashError(MultiClustError):
    """Raised (as a record) when an isolated worker process died.

    Covers nonzero exits and signal deaths (segfault, SIGKILL) of the
    sweep-pool worker running an experiment under ``--isolate`` or
    ``--jobs N``.
    """


class IntegrityError(MultiClustError):
    """Raised (or recorded) when stored bytes fail their content checksum.

    Serving-layer storage — :class:`repro.serve.ModelRegistry` entries
    and :class:`repro.robustness.RunJournal` lines — carries an in-band
    sha256 over the canonical payload bytes. A mismatch means silent
    corruption (bit rot, torn write that still parses, hand editing):
    the entry is quarantined and recomputed, never served.
    """


class FaultInjectedError(MultiClustError):
    """Raised by the fault-injection harness to force a structured failure.

    Never raised in normal operation; used by
    :mod:`repro.robustness.faults` and the ``--inject-fault`` CLI flag to
    prove that the failure-handling paths work end to end.
    """


class ConvergenceWarning(UserWarning):
    """Issued when an iterative optimiser stops before converging."""
