"""Fault injection for the robustness tests.

Three families of faults:

* **Data faults** — pure functions that corrupt a clean data matrix in a
  controlled way (NaN/Inf cells, constant features, duplicate rows,
  collapsing everything to a single point). :data:`DATA_FAULTS` is the
  registry the fault-injection test suite parametrises over, and
  :func:`faulty_variants` yields every corrupted copy of a matrix.
* **Estimator faults** — wrappers simulating misbehaving optimisers:
  :class:`StallingEstimator` spins without progress (tripping a
  :class:`~repro.robustness.RunBudget`), :class:`FlakyEstimator` fails
  deterministically until its ``random_state`` has been bumped enough
  times (exercising the retry-with-reseed policy of
  :class:`~repro.robustness.RunGuard`).
* **Hard faults** — failures that *defeat* the cooperative layer and
  can only be handled by process isolation
  (:mod:`repro.robustness.pool`): :func:`hang` spins without ever
  calling ``budget_tick`` (no budget can interrupt it; only a hard
  wall-clock kill can), :func:`hard_crash` dies by signal or bare
  ``os._exit`` the way a segfault or the OOM killer would, skipping all
  ``except`` blocks, and :func:`oom` allocates until an address-space
  cap trips and then dies the same way. :class:`HangingEstimator` and
  :class:`CrashingEstimator` wrap them in the estimator contract.

A test builds a faulty experiment body from these itself: it passes
``hang``, ``hard_crash``, ``oom`` or a function raising
:class:`FaultInjectedError` to ``run_experiments`` as the experiment.

Every injector is deterministic given ``random_state`` so failures are
reproducible.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

from repro.core.base import BaseClusterer
from repro.exceptions import MultiClustError
from repro.robustness import budget_tick
from repro.utils.validation import check_random_state

__all__ = [
    "FaultInjectedError",
    "inject_nan_cells",
    "inject_inf_cells",
    "inject_constant_feature",
    "inject_duplicate_rows",
    "collapse_to_single_point",
    "adversarial_cluster_count",
    "faulty_variants",
    "hang",
    "hard_crash",
    "oom",
    "DATA_FAULTS",
    "StallingEstimator",
    "FlakyEstimator",
    "HangingEstimator",
    "CrashingEstimator",
]


class FaultInjectedError(MultiClustError):
    """Raised by an injected fault to force a structured failure.

    Never raised by the library itself; the robustness tests raise it
    to prove that the failure-handling paths work end to end.
    """


def _as_matrix(X):
    X = np.array(X, dtype=np.float64, copy=True)
    if X.ndim != 2 or X.size == 0:
        raise FaultInjectedError("fault injection needs a non-empty 2-d matrix")
    return X


def inject_nan_cells(X, *, n_cells=1, random_state=0):
    """Overwrite ``n_cells`` random cells with NaN."""
    X = _as_matrix(X)
    rng = check_random_state(random_state)
    flat = rng.choice(X.size, size=min(int(n_cells), X.size), replace=False)
    X.ravel()[flat] = np.nan
    return X


def inject_inf_cells(X, *, n_cells=1, random_state=0):
    """Overwrite ``n_cells`` random cells with +/- infinity."""
    X = _as_matrix(X)
    rng = check_random_state(random_state)
    flat = rng.choice(X.size, size=min(int(n_cells), X.size), replace=False)
    X.ravel()[flat] = rng.choice([np.inf, -np.inf], size=flat.size)
    return X


def inject_constant_feature(X, *, feature=0, value=1.0):
    """Make one column constant (zero variance)."""
    X = _as_matrix(X)
    X[:, int(feature) % X.shape[1]] = float(value)
    return X


def inject_duplicate_rows(X, *, fraction=0.5, random_state=0):
    """Replace a fraction of rows with copies of other rows."""
    X = _as_matrix(X)
    rng = check_random_state(random_state)
    n = X.shape[0]
    n_dup = max(1, int(round(fraction * n)))
    targets = rng.choice(n, size=min(n_dup, n), replace=False)
    sources = rng.integers(n, size=targets.size)
    X[targets] = X[sources]
    return X


def collapse_to_single_point(X):
    """Every row becomes the first row (zero spread everywhere)."""
    X = _as_matrix(X)
    X[:] = X[0]
    return X


def adversarial_cluster_count(X):
    """A cluster count guaranteed to exceed the sample count."""
    return int(np.asarray(X).shape[0]) + 1


#: Registry of named data faults: name -> injector taking (X) -> X_faulty.
#: These are the degenerate-but-representable inputs every estimator must
#: survive structurally (clean success, ValidationError, or RunFailure).
DATA_FAULTS = {
    "nan_cell": lambda X: inject_nan_cells(X, n_cells=2, random_state=0),
    "inf_cell": lambda X: inject_inf_cells(X, n_cells=2, random_state=0),
    "constant_feature": lambda X: inject_constant_feature(X, feature=1),
    "duplicate_rows": lambda X: inject_duplicate_rows(X, fraction=0.5,
                                                      random_state=0),
    "single_point": collapse_to_single_point,
}


def faulty_variants(X, *, faults=None):
    """Yield ``(name, X_faulty)`` for every registered (or named) fault."""
    names = list(DATA_FAULTS) if faults is None else list(faults)
    for name in names:
        yield name, DATA_FAULTS[name](X)


class StallingEstimator(BaseClusterer):
    """Simulated optimiser stall: ``fit`` spins without making progress.

    Calls :func:`~repro.robustness.budget_tick` every poll, so under a
    :class:`~repro.robustness.RunGuard` wall-clock budget the stall is
    interrupted with ``BudgetExceededError`` almost immediately. Without
    a guard it gives up after ``stall_seconds`` (a safety valve, not a
    feature) and then fits trivially.
    """

    def __init__(self, stall_seconds=5.0, poll_seconds=0.001):
        self.stall_seconds = stall_seconds
        self.poll_seconds = poll_seconds
        self.labels_ = None
        self.n_iter_ = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        deadline = time.perf_counter() + float(self.stall_seconds)
        ticks = 0
        while time.perf_counter() < deadline:
            budget_tick()
            ticks += 1
            time.sleep(float(self.poll_seconds))
        self.labels_ = np.zeros(X.shape[0], dtype=np.int64)
        self.n_iter_ = ticks
        return self


def hang(seconds=300.0, poll_seconds=0.05):
    """Spin for ``seconds`` WITHOUT ever calling ``budget_tick``.

    This is the failure mode cooperative budgets cannot touch: a hang
    inside a tight loop (or C extension) that never reaches an
    iteration boundary. Under ``--isolate --hard-timeout`` the worker
    running it is killed at the deadline and recorded as a
    ``"timeout"`` failure; without isolation only Ctrl-C (the sleep is
    interruptible) or the ``seconds`` safety valve ends it — after
    which it raises so a drill can never be mistaken for success.
    """
    deadline = time.perf_counter() + float(seconds)
    while time.perf_counter() < deadline:
        time.sleep(float(poll_seconds))
    raise FaultInjectedError(
        f"hang injector expired after {seconds}s without being reaped "
        "(expected a hard timeout to kill this process first)"
    )


def oom(limit_mb=256, chunk_mb=8):
    """Allocate unboundedly until the process dies the way OOM kills do.

    Simulates a worker eaten by the kernel's OOM killer — the fault
    that defeats every ``except`` block and leaves no goodbye on the
    pipe. To keep the drill from taking down the *host* (a real
    unbounded allocation would swap-thrash the whole machine before the
    kernel acts), the process first caps its own address space with
    ``RLIMIT_AS`` at roughly ``limit_mb`` MiB above current usage, then
    allocates and touches memory in ``chunk_mb`` chunks until the cap
    trips, and finally delivers itself the same uncatchable ``SIGKILL``
    the OOM killer sends. Platforms without :mod:`resource` skip the
    allocation phase and go straight to the kill — the observable
    failure (death by SIGKILL mid-allocation) is identical.
    """
    try:
        import resource
    except ImportError:
        resource = None
    blocks = []
    if resource is not None:
        try:
            current = _current_vm_bytes()
            cap = current + int(limit_mb) * 1024 * 1024
            soft, hard = resource.getrlimit(resource.RLIMIT_AS)
            if hard != resource.RLIM_INFINITY:
                cap = min(cap, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            chunk = int(chunk_mb) * 1024 * 1024
            while True:
                block = bytearray(chunk)
                block[::4096] = b"x" * len(block[::4096])  # touch pages
                blocks.append(block)
        except MemoryError:
            pass  # the cap tripped: now die the way the kernel would
        except (OSError, ValueError):  # rlimits unavailable; still exercise the kill signal
            pass
    del blocks
    hard_crash(signal.SIGKILL)


def _current_vm_bytes():
    """Current virtual-memory size (Linux ``/proc``; 0 elsewhere)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[0])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0


def hard_crash(signum=signal.SIGKILL):
    """Kill the current process the way a segfault would.

    Sends ``signum`` to ``os.getpid()`` (default ``SIGKILL`` — cannot
    be caught, blocked, or cleaned up after), falling back to a bare
    ``os._exit(137)`` should the signal somehow not dispatch. No
    ``except`` block, ``finally``, or atexit handler runs: the only
    layer that can turn this into a structured failure is the parent of
    an isolated worker.
    """
    os.kill(os.getpid(), signum)
    os._exit(137)  # unreachable unless the signal was blocked


class HangingEstimator(BaseClusterer):
    """Simulated hard hang: ``fit`` never reaches a ``budget_tick``.

    Unlike :class:`StallingEstimator` (which cooperates and is stopped
    by a :class:`~repro.robustness.RunBudget`), this estimator models
    the adversarial case — stuck inside an inner loop — and is only
    recoverable by the hard-timeout kill of an isolated worker.
    """

    def __init__(self, hang_seconds=300.0, poll_seconds=0.05):
        self.hang_seconds = hang_seconds
        self.poll_seconds = poll_seconds
        self.labels_ = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        hang(self.hang_seconds, self.poll_seconds)
        return self  # unreachable: hang() raises at the safety valve


class CrashingEstimator(BaseClusterer):
    """Simulated hard crash: ``fit`` kills its own process.

    Models a segfault / OOM-kill inside native code. Only meaningful
    under process isolation, where the parent records a ``"crashed"``
    failure; calling ``fit`` in-process terminates the interpreter.
    """

    def __init__(self, signum=signal.SIGKILL):
        self.signum = signum
        self.labels_ = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        hard_crash(self.signum)
        return self  # unreachable


class FlakyEstimator(BaseClusterer):
    """Fails deterministically until reseeded ``n_failures`` times.

    ``fit`` raises :class:`FaultInjectedError` while
    ``random_state < seed0 + n_failures``. :meth:`RunGuard.fit
    <repro.robustness.RunGuard.fit>` bumps ``random_state`` by one per
    retry, so a guard with ``max_retries >= n_failures`` succeeds on the
    attempt whose seed crosses the threshold — a deterministic stand-in
    for a stochastic optimiser that only converges under some seeds.
    """

    def __init__(self, n_failures=1, random_state=0):
        self.n_failures = n_failures
        self.random_state = random_state
        self.labels_ = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        seed = 0 if self.random_state is None else int(self.random_state)
        if seed < int(self.n_failures):
            raise FaultInjectedError(
                f"injected failure (seed {seed} < {self.n_failures})"
            )
        self.labels_ = np.zeros(X.shape[0], dtype=np.int64)
        return self
