"""Budgets, retries, and structured failure records for estimator runs.

Three cooperating pieces make any ``fit`` bounded and recoverable:

* :class:`RunBudget` — a wall-clock / iteration budget. Iterative
  optimisers across the library call :func:`budget_tick` once per outer
  iteration; when a budget is active and spent, the tick raises
  :class:`~repro.exceptions.BudgetExceededError`, so a runaway or
  stalled optimisation stops at the next iteration boundary instead of
  running unbounded. Without an active budget a tick costs a few
  nanoseconds.
* :class:`RunFailure` / :class:`RunResult` — structured records of what
  happened: either a value or a failure with error type, message,
  traceback, elapsed time, and attempt count. Harness code stores these
  in result tables instead of letting exceptions abort a whole sweep.
* :class:`RunGuard` — the policy object tying the two together. It can
  be used three ways::

      guard = RunGuard(max_seconds=30.0, max_retries=2)

      # 1. guarded call: never raises on caught errors
      result = guard.run(estimator.fit, X)

      # 2. retry-with-reseed for stochastic optimisers: each retry
      #    clones the estimator with a bumped random_state and an
      #    wall-clock budget doubled per attempt
      result = guard.fit(estimator, X)

      # 3. context manager (single attempt, captures the exception)
      with RunGuard(max_seconds=5.0) as g:
          estimator.fit(X)
      if not g.result.ok:
          print(g.result.failure)

It can also decorate a function, turning its return value into a
:class:`RunResult`::

    @RunGuard(max_seconds=5.0)
    def run_once():
        return estimator.fit(X)

``ValidationError`` is never retried — bad input stays bad under a new
seed — but it is still captured as a failure so sweeps keep going.
"""

from __future__ import annotations

import contextvars
import functools
import numbers
import time
import traceback as _tb
from dataclasses import dataclass, field
from typing import Any, Optional

from ..exceptions import BudgetExceededError, MultiClustError, ValidationError
from ..observability.logs import get_logger
from ..observability.telemetry import emit_objective
from ..observability.tracer import _ACTIVE_TRACER, _json_safe

__all__ = [
    "KNOWN_FAILURE_KINDS",
    "RunBudget",
    "RunFailure",
    "RunResult",
    "RunGuard",
    "active_budget",
    "budget_tick",
]

#: Every ``RunFailure.kind`` the run layer can produce. ``"error"`` is a
#: Python exception caught in-process; ``"timeout"`` and ``"crashed"``
#: are parent-side verdicts about a killed or dead worker process —
#: produced by both the serial isolation path
#: (:mod:`repro.robustness.workers`) and the parallel pool
#: (:mod:`repro.robustness.pool`), which additionally marks a
#: repeatedly-crashing key with ``context["quarantined"]``.
#: ``tools/check_outcome_schema.py`` asserts each kind survives the
#: journal round-trip and is rendered.
KNOWN_FAILURE_KINDS = ("error", "timeout", "crashed")

logger = get_logger("repro.robustness")

_ACTIVE_BUDGET: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_budget", default=None
)


def active_budget():
    """The innermost active :class:`RunBudget`, or ``None``."""
    return _ACTIVE_BUDGET.get()


def _span_summary(span):
    """(timings, telemetry) for a closed attempt span; (None, None) w/o one.

    ``timings`` maps each direct-child stage name to inclusive seconds
    (same-name children summed); ``telemetry`` holds iteration ticks,
    descendant span count, elapsed seconds, and peak memory when the
    tracer profiled it.
    """
    if span is None:
        return None, None
    timings = {}
    for child in span.children:
        if child.duration is not None:
            timings[child.name] = timings.get(child.name, 0.0) + child.duration

    def n_spans(s):
        return 1 + sum(n_spans(c) for c in s.children)

    telemetry = {
        "ticks": span.total_ticks(),
        "spans": n_spans(span) - 1,
        "elapsed": span.duration,
    }
    if span.peak_bytes is not None:
        telemetry["peak_kb"] = round(span.peak_bytes / 1024.0, 1)
    return (timings or None), telemetry


def budget_tick(n=1, objective=None):
    """Cooperative budget/telemetry checkpoint for iterative optimisers.

    Library optimisation loops call this once per outer iteration.
    Raises :class:`~repro.exceptions.BudgetExceededError` when the
    enclosing :class:`RunGuard` budget is spent; no-op otherwise.

    ``objective`` is the loop's current objective value. When given it
    is forwarded to the observability layer
    (:func:`repro.observability.emit_objective`), feeding the
    ``convergence_trace_`` of the estimator being fitted — the same call
    site serves budgets, convergence telemetry, and tracer iteration
    counts. With everything disabled a tick costs three ``ContextVar``
    reads.
    """
    budget = _ACTIVE_BUDGET.get()
    if budget is not None:
        budget.tick(n)
    if objective is not None:
        emit_objective(objective)
    tracer = _ACTIVE_TRACER.get()
    if tracer is not None:
        tracer.add_ticks(n)


class RunBudget:
    """A wall-clock and/or iteration budget, checked cooperatively.

    Parameters
    ----------
    max_seconds : float or None
        Wall-clock allowance from construction time.
    max_ticks : int or None
        Allowance of :meth:`tick` calls (outer optimiser iterations).

    The budget starts running on construction; :meth:`tick` and
    :meth:`check` raise :class:`BudgetExceededError` once spent.
    """

    def __init__(self, max_seconds=None, max_ticks=None):
        if max_seconds is not None:
            max_seconds = float(max_seconds)
            if not max_seconds > 0:
                raise ValidationError(
                    f"max_seconds must be positive, got {max_seconds}"
                )
        if max_ticks is not None:
            if not isinstance(max_ticks, numbers.Integral) or max_ticks < 1:
                raise ValidationError(
                    f"max_ticks must be a positive integer, got {max_ticks!r}"
                )
            max_ticks = int(max_ticks)
        self.max_seconds = max_seconds
        self.max_ticks = max_ticks
        self.started_at = time.perf_counter()
        self.ticks = 0

    def elapsed(self):
        """Seconds since the budget started."""
        return time.perf_counter() - self.started_at

    def check(self):
        """Raise :class:`BudgetExceededError` if the wall clock is spent."""
        if self.max_seconds is not None and self.elapsed() > self.max_seconds:
            raise BudgetExceededError(
                f"wall-clock budget of {self.max_seconds:.4g}s exhausted "
                f"after {self.elapsed():.4g}s"
            )

    def tick(self, n=1):
        """Count ``n`` iterations and enforce both allowances."""
        self.ticks += n
        if self.max_ticks is not None and self.ticks > self.max_ticks:
            raise BudgetExceededError(
                f"iteration budget of {self.max_ticks} ticks exhausted"
            )
        self.check()

    def __repr__(self):
        return (f"RunBudget(max_seconds={self.max_seconds}, "
                f"max_ticks={self.max_ticks}, elapsed={self.elapsed():.3f}, "
                f"ticks={self.ticks})")


@dataclass
class RunFailure:
    """Structured record of a failed (guarded) run.

    ``kind`` classifies how the failure was observed: ``"error"`` for an
    exception caught in-process, ``"timeout"`` for a worker killed at
    its hard wall-clock deadline, ``"crashed"`` for a worker process
    that died (nonzero exit or signal). See :data:`KNOWN_FAILURE_KINDS`.
    """

    label: str
    error_type: str
    message: str
    traceback: str
    elapsed: float
    attempts: int
    context: dict = field(default_factory=dict)
    kind: str = "error"

    @classmethod
    def from_exception(cls, exc, *, label="", elapsed=0.0, attempts=1,
                       context=None):
        """Build a failure record from a caught exception."""
        return cls(
            label=str(label),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                _tb.format_exception(type(exc), exc, exc.__traceback__)
            ),
            elapsed=float(elapsed),
            attempts=int(attempts),
            context=dict(context or {}),
        )

    def to_dict(self):
        """JSON-serialisable dict (journal / worker-pipe schema)."""
        return {
            "label": self.label,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "elapsed": self.elapsed,
            "attempts": self.attempts,
            "context": _json_safe(self.context),
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"RunFailure record must be a dict, got {type(data).__name__}"
            )
        kind = str(data.get("kind", "error"))
        if kind not in KNOWN_FAILURE_KINDS:
            raise ValidationError(
                f"unknown RunFailure kind {kind!r}; "
                f"expected one of {KNOWN_FAILURE_KINDS}"
            )
        return cls(
            label=str(data.get("label", "")),
            error_type=str(data.get("error_type", "Exception")),
            message=str(data.get("message", "")),
            traceback=str(data.get("traceback", "")),
            elapsed=float(data.get("elapsed", 0.0)),
            attempts=int(data.get("attempts", 1)),
            context=dict(data.get("context") or {}),
            kind=kind,
        )

    def __str__(self):
        where = f"[{self.label}] " if self.label else ""
        how = f"{self.kind}: " if self.kind != "error" else ""
        mark = " [quarantined]" if self.context.get("quarantined") else ""
        return (f"{where}{how}{self.error_type}: {self.message} "
                f"(attempts={self.attempts}, elapsed={self.elapsed:.2f}s)"
                f"{mark}")

    def __repr__(self):
        message = self.message
        if len(message) > 60:
            message = message[:57] + "..."
        label = f"label={self.label!r}, " if self.label else ""
        kind = f"kind={self.kind!r}, " if self.kind != "error" else ""
        return (f"RunFailure({label}{kind}{self.error_type}: {message!r}, "
                f"attempts={self.attempts}, elapsed={self.elapsed:.2f}s)")


@dataclass
class RunResult:
    """Outcome of a guarded run: a value or a :class:`RunFailure`.

    ``timings`` and ``telemetry`` are populated when the guard ran under
    a :class:`~repro.observability.Tracer` (see :class:`RunGuard`):
    ``timings`` maps child-stage names to inclusive seconds, and
    ``telemetry`` summarises iteration ticks / span counts / peak memory
    of the run.
    """

    status: str  # "ok" | "failed"
    value: Any = None
    failure: Optional[RunFailure] = None
    elapsed: float = 0.0
    attempts: int = 1
    timings: Optional[dict] = None
    telemetry: Optional[dict] = None

    @property
    def ok(self):
        return self.status == "ok"

    def unwrap(self):
        """Return the value, re-raising a library error on failure."""
        if self.ok:
            return self.value
        raise MultiClustError(f"guarded run failed: {self.failure}")

    def __repr__(self):
        if self.ok:
            body = f"ok, value={type(self.value).__name__}"
        else:
            body = f"failed, {self.failure!r}"
        extra = ""
        if self.telemetry:
            ticks = self.telemetry.get("ticks")
            if ticks is not None:
                extra = f", ticks={ticks}"
        return (f"RunResult({body}, elapsed={self.elapsed:.2f}s, "
                f"attempts={self.attempts}{extra})")


class RunGuard:
    """Enforce budgets and retry policy around estimator fits.

    Parameters
    ----------
    max_seconds : float or None
        Per-attempt wall-clock budget. Retry attempt ``i`` receives
        ``max_seconds * 2**i`` (exponential backoff on budget), so a
        stochastic optimiser that timed out gets more room under its
        new seed.
    max_ticks : int or None
        Per-attempt iteration budget (outer optimiser iterations,
        counted via :func:`budget_tick`).
    max_retries : int
        Extra attempts after the first failure. :meth:`fit` reseeds the
        estimator between attempts; :meth:`run` simply re-invokes.
    label : str
        Identifies the run in :class:`RunFailure` records.
    tracer : :class:`repro.observability.Tracer` or None
        When given, every attempt runs inside a span named after
        ``label`` (attempt number in the span attrs) and the returned
        :class:`RunResult` carries per-stage ``timings`` and a
        ``telemetry`` summary (iteration ticks, span count, peak
        memory).

    Notes
    -----
    Every ``Exception`` becomes a failure; ``KeyboardInterrupt`` and
    ``SystemExit`` propagate. ``ValidationError`` and
    ``NotImplementedError`` are captured but never retried: invalid
    input does not become valid under a new seed.
    """

    _NO_RETRY = (ValidationError, NotImplementedError)

    def __init__(self, max_seconds=None, max_ticks=None, max_retries=0,
                 label="", tracer=None):
        if max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_seconds = max_seconds
        self.max_ticks = max_ticks
        self.max_retries = int(max_retries)
        self.label = label
        self.tracer = tracer
        self.result = None
        self._token = None
        self._entered_at = None

    # -- budgets ---------------------------------------------------------

    def _attempt_budget(self, attempt):
        """Fresh budget for attempt ``attempt`` (0-based), with backoff."""
        seconds = self.max_seconds
        if seconds is not None:
            seconds = seconds * 2.0 ** attempt
        if seconds is None and self.max_ticks is None:
            return None
        return RunBudget(max_seconds=seconds, max_ticks=self.max_ticks)

    # -- guarded execution ----------------------------------------------

    def _execute(self, attempt_fn, *, context=None):
        """Run ``attempt_fn(attempt)`` under per-attempt budgets."""
        tracer = self.tracer
        if tracer is not None and _ACTIVE_TRACER.get() is not tracer:
            with tracer:
                return self._execute_attempts(attempt_fn, context=context)
        return self._execute_attempts(attempt_fn, context=context)

    def _execute_attempts(self, attempt_fn, *, context=None):
        start = time.perf_counter()
        last_exc = None
        attempts = 0
        span = None
        for attempt in range(self.max_retries + 1):
            attempts = attempt + 1
            budget = self._attempt_budget(attempt)
            token = None
            if budget is not None:
                token = _ACTIVE_BUDGET.set(budget)
            try:
                if self.tracer is not None:
                    with self.tracer.span(self.label or "guarded_run",
                                          attempt=attempt) as span:
                        value = attempt_fn(attempt)
                else:
                    value = attempt_fn(attempt)
                timings, telemetry = _span_summary(span)
                return RunResult(
                    status="ok", value=value,
                    elapsed=time.perf_counter() - start, attempts=attempts,
                    timings=timings, telemetry=telemetry,
                )
            except Exception as exc:
                last_exc = exc
                if isinstance(exc, self._NO_RETRY):
                    logger.debug(
                        "%s: %s is not retryable, giving up",
                        self.label or "guarded run", type(exc).__name__,
                    )
                    break
                if attempt < self.max_retries:
                    logger.debug(
                        "%s: attempt %d/%d failed (%s: %s), retrying",
                        self.label or "guarded run", attempts,
                        self.max_retries + 1, type(exc).__name__, exc,
                    )
            finally:
                if token is not None:
                    _ACTIVE_BUDGET.reset(token)
        elapsed = time.perf_counter() - start
        failure = RunFailure.from_exception(
            last_exc, label=self.label, elapsed=elapsed, attempts=attempts,
            context=context,
        )
        logger.debug("%s: failed after %d attempt(s): %s",
                     self.label or "guarded run", attempts, failure)
        timings, telemetry = _span_summary(span)
        return RunResult(status="failed", failure=failure, elapsed=elapsed,
                         attempts=attempts, timings=timings,
                         telemetry=telemetry)

    def run(self, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` guarded; return a :class:`RunResult`.

        Caught exceptions become failures instead of propagating. Plain
        retries re-invoke ``fn`` unchanged — use :meth:`fit` for the
        reseeding policy.
        """
        return self._execute(lambda attempt: fn(*args, **kwargs))

    def fit(self, estimator, *fit_args, **fit_kwargs):
        """Guarded ``estimator.fit`` with retry-with-reseed.

        The first attempt fits ``estimator`` in place. Each retry clones
        it via ``get_params`` and, when the estimator has an int-or-None
        ``random_state`` parameter, bumps the seed so the optimiser
        explores a different basin; the wall-clock budget grows by
        a factor of 2 per attempt. Returns a :class:`RunResult` whose
        value is the fitted estimator.
        """
        def attempt_fn(attempt):
            est = estimator
            if attempt > 0 and hasattr(estimator, "get_params"):
                params = estimator.get_params()
                seed = params.get("random_state", "missing")
                if seed is None or isinstance(seed, numbers.Integral):
                    params["random_state"] = (
                        (0 if seed is None else int(seed)) + attempt
                    )
                est = type(estimator)(**params)
            return est.fit(*fit_args, **fit_kwargs)

        context = {"estimator": type(estimator).__name__,
                   "params": getattr(estimator, "get_params", dict)()}
        return self._execute(attempt_fn, context=context)

    # -- decorator form --------------------------------------------------

    def __call__(self, fn):
        """Decorate ``fn`` so calls return :class:`RunResult`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(fn, *args, **kwargs)
        return wrapper

    # -- context-manager form (single attempt) ---------------------------

    def __enter__(self):
        self.result = None
        self._entered_at = time.perf_counter()
        budget = self._attempt_budget(0)
        self._token = _ACTIVE_BUDGET.set(budget) if budget is not None else None
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            _ACTIVE_BUDGET.reset(self._token)
            self._token = None
        elapsed = time.perf_counter() - self._entered_at
        if exc is None:
            self.result = RunResult(status="ok", elapsed=elapsed)
            return False
        if isinstance(exc, Exception):
            failure = RunFailure.from_exception(
                exc, label=self.label, elapsed=elapsed, attempts=1
            )
            self.result = RunResult(status="failed", failure=failure,
                                    elapsed=elapsed)
            return True
        return False
