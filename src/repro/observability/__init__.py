"""Instrumentation layer: tracing spans, metrics, convergence telemetry.

Zero-dependency observability for the whole library, disabled by
default and cooperatively fed by the same :func:`repro.robustness.budget_tick`
seam the fault-tolerance layer uses:

* :class:`Tracer` — nested wall-clock spans (``experiment ->
  estimator.fit -> substep``) with optional ``tracemalloc`` peak-memory
  capture, JSONL export, a rendered text tree, and slowest-stage tables;
* :class:`MetricsRegistry` — process-local counters, gauges, and
  fixed-bucket histograms, updated through :func:`record`;
* convergence telemetry — every iterative optimiser emits
  ``(iteration, objective, delta)`` events, stored as
  ``convergence_trace_`` on the fitted estimator and summarised by
  :func:`summarize_trace`;
* :func:`get_logger` / :func:`configure_logging` — named stdlib loggers
  per subsystem (``repro.cluster``, ``repro.experiments``, ...).

See ``docs/observability.md`` for the full guide, including the
measured overhead of the disabled fast path.
"""

from .catalog import METRIC_FAMILIES, METRICS
from .logs import configure_logging, get_logger, level_from_verbosity
from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    prometheus_name,
    record,
    reset_default_registry,
)
from .telemetry import (
    ConvergenceCapture,
    ConvergenceEvent,
    capture_convergence,
    emit_objective,
    record_convergence,
    summarize_trace,
)
from .tracer import (
    Span,
    TraceContext,
    Tracer,
    current_trace_context,
    current_tracer,
    merge_records,
    new_trace_id,
    render_records,
    render_stage_table,
    slowest_stages,
    trace_span,
    traced_fit,
    write_records_jsonl,
)

__all__ = [
    # tracer
    "Span",
    "TraceContext",
    "Tracer",
    "current_tracer",
    "current_trace_context",
    "new_trace_id",
    "trace_span",
    "traced_fit",
    "write_records_jsonl",
    "merge_records",
    "render_records",
    "render_stage_table",
    "slowest_stages",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "METRIC_FAMILIES",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "prometheus_name",
    "default_registry",
    "reset_default_registry",
    "record",
    # telemetry
    "ConvergenceEvent",
    "ConvergenceCapture",
    "capture_convergence",
    "emit_objective",
    "record_convergence",
    "summarize_trace",
    # logging
    "get_logger",
    "configure_logging",
    "level_from_verbosity",
]
