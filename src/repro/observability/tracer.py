"""Nested tracing spans with wall-clock and optional peak-memory capture.

A :class:`Tracer` records a tree of :class:`Span` objects — typically
``experiment -> estimator.fit -> substep`` — with per-span wall-clock
duration, cooperative iteration counts (fed by
:func:`repro.robustness.budget_tick`), and, when ``profile_memory`` is
on, the ``tracemalloc`` peak attributable to each span. The result can
be exported as JSONL (one record per span, machine-readable) and
rendered as a text tree or a slowest-stage table.

Every span carries distributed-tracing identity: a ``trace_id`` shared
by everything causally downstream of one root operation, its own
``span_id``, and a ``parent_id``. A :class:`TraceContext` captures
``(trace_id, span_id)`` at any point and can cross a process boundary
as a plain dict; a tracer constructed from it parents its root spans
under the remote span, so :func:`merge_records` /
:meth:`Tracer.merge_shards` can reassemble driver and worker span
records into one causal tree afterwards.

Fast path: when no tracer is active, :func:`trace_span` and
:func:`add_ticks` cost a single ``ContextVar.get`` — estimators are
instrumented unconditionally and the whole layer stays disabled by
default.

Usage::

    tracer = Tracer()
    with tracer:                        # activates for this context
        with tracer.span("experiment", key="F1"):
            estimator.fit(X)            # fit spans nest automatically
    print(tracer.render_tree())
    tracer.write_jsonl("trace.jsonl")

Loading back::

    records = read_jsonl("trace.jsonl")
    print(render_records(records))
    print(render_stage_table(slowest_stages(records)))
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import numbers
import os
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..exceptions import ValidationError
from .logs import get_logger

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "current_tracer",
    "current_trace_context",
    "trace_span",
    "traced_fit",
    "new_trace_id",
    "read_jsonl",
    "write_records_jsonl",
    "TraceShard",
    "merge_records",
    "trace_shard_path",
    "trace_shard_paths",
    "render_records",
    "slowest_stages",
    "render_stage_table",
]

logger = get_logger("repro.observability.tracer")

_ACTIVE_TRACER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_tracer", default=None
)


def current_tracer():
    """The tracer activated in this context, or ``None``."""
    return _ACTIVE_TRACER.get()


def new_trace_id():
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def _new_span_id():
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """A point in a trace that work elsewhere can attach under.

    ``trace_id`` names the whole causal tree; ``span_id`` the span that
    becomes the remote work's parent (``None`` parents at the root).
    The dict form is what actually crosses pipes and worker ``config``
    dicts — both are accepted wherever a context is expected.
    """

    trace_id: str
    span_id: Optional[str] = None

    def to_dict(self):
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, data):
        """Build from a dict / TraceContext / ``None`` (passed through)."""
        if data is None or isinstance(data, cls):
            return data
        if not isinstance(data, dict) or "trace_id" not in data:
            raise ValidationError(
                "TraceContext dict needs a 'trace_id' key, got "
                f"{data!r}")
        return cls(trace_id=str(data["trace_id"]),
                   span_id=data.get("span_id"))


def current_trace_context():
    """The active tracer's innermost :class:`TraceContext`, or ``None``."""
    tracer = _ACTIVE_TRACER.get()
    return None if tracer is None else tracer.context()


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("name", "attrs", "start", "end", "children", "n_ticks",
                 "peak_bytes", "span_id", "parent_id", "_running_peak")

    def __init__(self, name, start, attrs=None, parent_id=None):
        self.name = str(name)
        self.attrs = dict(attrs or {})
        self.start = start
        self.end = None
        self.children = []
        self.n_ticks = 0
        self.peak_bytes = None
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self._running_peak = 0

    @property
    def duration(self):
        """Seconds spent inside the span (``None`` while still open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def total_ticks(self):
        """Cooperative iteration ticks in this span and all descendants."""
        return self.n_ticks + sum(c.total_ticks() for c in self.children)

    def __repr__(self):
        dur = "open" if self.end is None else f"{self.duration:.3f}s"
        return (f"Span({self.name!r}, {dur}, ticks={self.n_ticks}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects a forest of :class:`Span` trees for one run.

    Parameters
    ----------
    profile_memory : bool
        Capture per-span ``tracemalloc`` peaks. Starts ``tracemalloc``
        when entering the tracer context (and stops it again if this
        tracer started it). Roughly 2-4x slower fits — off by default.
    trace_id : str or None
        Join an existing trace (a :class:`TraceContext` carried across
        a process boundary); a fresh id is minted when ``None``.
    parent_id : str or None
        Remote parent span: root spans of this tracer record it as
        their ``parent_id``, so a cross-process merge nests them under
        the originating span.
    tags : dict or None
        Flat JSON-safe attribution stamped onto every exported record
        (e.g. ``{"worker": 3, "pid": 12345}``).

    Use as a context manager to activate: inside the ``with`` block,
    instrumented code (``traced_fit`` estimators, ``budget_tick``)
    reports into this tracer; outside, it costs nothing.
    """

    def __init__(self, profile_memory=False, *, trace_id=None,
                 parent_id=None, tags=None):
        self.profile_memory = bool(profile_memory)
        self.trace_id = str(trace_id) if trace_id else new_trace_id()
        self.parent_id = parent_id
        self.tags = dict(tags or {})
        self.spans = []
        self._stack = []
        self._foreign = []
        self._epoch = time.perf_counter()
        self._token = None
        self._started_tracemalloc = False

    # -- activation ------------------------------------------------------

    def __enter__(self):
        if self._token is not None:
            raise ValidationError("Tracer is already active")
        if self.profile_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self._token = _ACTIVE_TRACER.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TRACER.reset(self._token)
        self._token = None
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False
        return False

    # -- span recording --------------------------------------------------

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Open a nested span; attributes must be JSON-serialisable."""
        profiling = self.profile_memory and tracemalloc.is_tracing()
        if profiling:
            peak_now = tracemalloc.get_traced_memory()[1]
            if self._stack:
                parent = self._stack[-1]
                parent._running_peak = max(parent._running_peak, peak_now)
            tracemalloc.reset_peak()
        parent_id = (self._stack[-1].span_id if self._stack
                     else self.parent_id)
        span = Span(name, time.perf_counter() - self._epoch, attrs,
                    parent_id=parent_id)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter() - self._epoch
            if profiling:
                peak = max(tracemalloc.get_traced_memory()[1],
                           span._running_peak)
                span.peak_bytes = int(peak)
                tracemalloc.reset_peak()
                if self._stack:
                    parent = self._stack[-1]
                    parent._running_peak = max(parent._running_peak, peak)

    def add_ticks(self, n=1):
        """Credit ``n`` optimiser iterations to the innermost open span."""
        if self._stack:
            self._stack[-1].n_ticks += n

    def context(self):
        """:class:`TraceContext` of the innermost open span.

        With no span open, the context points at this tracer's own
        remote parent — so work attached through it becomes a sibling
        of this tracer's roots, still inside the same trace.
        """
        span_id = self._stack[-1].span_id if self._stack else self.parent_id
        return TraceContext(trace_id=self.trace_id, span_id=span_id)

    # -- export ----------------------------------------------------------

    def to_records(self):
        """Flatten the span forest to dicts in depth-first order.

        Foreign records adopted via :meth:`add_foreign_records` are
        merged in by span identity (see :func:`merge_records`), so a
        driver tracer that folded worker spans exports one causal tree.
        """
        records = []

        def visit(span, depth, path):
            path = f"{path}/{span.name}" if path else span.name
            rec = {
                "name": span.name,
                "path": path,
                "depth": depth,
                "start": round(span.start, 6),
                "duration": (None if span.duration is None
                             else round(span.duration, 6)),
                "n_ticks": span.n_ticks,
                "trace_id": self.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            if span.peak_bytes is not None:
                rec["peak_kb"] = round(span.peak_bytes / 1024.0, 1)
            for tag, value in self.tags.items():
                rec.setdefault(str(tag), value)
            if span.attrs:
                rec["attrs"] = _json_safe(span.attrs)
            records.append(rec)
            for child in span.children:
                visit(child, depth + 1, path)

        for root in self.spans:
            visit(root, 0, "")
        if self._foreign:
            return merge_records([records, self._foreign])
        return records

    def add_foreign_records(self, records):
        """Adopt span records produced by another tracer (e.g. shipped
        back from a pool worker with its outcome). They are merged into
        this tracer's exports by ``span_id``, so re-adding the same
        records — a worker shard that was also streamed over the pipe —
        is idempotent."""
        self._foreign.extend(dict(rec) for rec in records)

    @staticmethod
    def merge_shards(paths):
        """Merge per-worker trace shards into one causal record list.

        ``paths`` may include missing files (a worker that never
        exported) and shards with a torn trailing line (a worker
        SIGKILLed mid-write) — both are tolerated, mirroring
        :func:`repro.robustness.load_journal_records`.
        """
        lists = []
        for path in paths:
            try:
                lists.append(read_jsonl(path, recover=True))
            except FileNotFoundError:
                continue
        return merge_records(lists)

    def write_jsonl(self, path):
        """Write one JSON record per span to ``path``; returns the count.

        Strict RFC JSON (via :func:`repro.io.dumps`) written atomically,
        so a reader never sees a half-written trace and a bare
        ``NaN``/``Infinity`` token can never appear in a span record.
        """
        records = self.to_records()
        write_records_jsonl(path, records)
        return len(records)

    def render_tree(self, collapse=4):
        """Text rendering of the span forest (see :func:`render_records`)."""
        return render_records(self.to_records(), collapse=collapse)

    def __repr__(self):
        return (f"Tracer(profile_memory={self.profile_memory}, "
                f"trace_id={self.trace_id!r}, spans={len(self.spans)}, "
                f"active={self._token is not None})")


def _json_safe(obj):
    """Coerce span attrs or a failure context to JSON-serialisable
    values: NumPy bools, integers and reals become Python ``bool``,
    ``int`` and ``float``; anything else unknown becomes its ``repr``."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if getattr(obj, "dtype", None) is not None and \
            getattr(obj, "shape", None) == ():
        return _json_safe(obj.item())  # np.bool_ is no numbers.Integral
    return repr(obj)


@contextlib.contextmanager
def trace_span(name, **attrs):
    """Span on the active tracer; no-op when tracing is disabled."""
    tracer = _ACTIVE_TRACER.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span


def traced_fit(fit):
    """Wrap an estimator ``fit`` in a span named ``<Class>.fit``.

    Decorator for estimator classes: when a tracer is active the fit
    (and everything it calls — sub-estimators, substeps, iteration
    ticks) is recorded as a nested span; when not, the only cost is one
    ``ContextVar`` read.
    """
    @functools.wraps(fit)
    def wrapper(self, *args, **kwargs):
        tracer = _ACTIVE_TRACER.get()
        if tracer is None:
            return fit(self, *args, **kwargs)
        with tracer.span(f"{type(self).__name__}.fit"):
            return fit(self, *args, **kwargs)
    return wrapper


# -- loading and rendering -------------------------------------------------

def read_jsonl(path, *, recover=False):
    """Load span records written by :meth:`Tracer.write_jsonl`.

    With ``recover=True`` a final line that is not valid JSON — the
    torn trailing write of a killed process — is dropped with a warning
    instead of raising, the same policy as the checkpoint journal. A
    bad line with valid records *after* it always raises: that is
    corruption, not a torn write.
    """
    records = []
    bad = None  # (line_no, error) of a candidate torn trailing line
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if bad is not None:
                raise ValidationError(
                    f"{path}:{bad[0]}: not a JSONL trace record "
                    f"({bad[1]})")
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if not recover:
                    raise ValidationError(
                        f"{path}:{line_no}: not a JSONL trace record "
                        f"({exc})") from exc
                bad = (line_no, exc)
    if bad is not None:
        logger.warning("dropped torn trailing line %d of trace %s",
                       bad[0], path)
    return records


def _encode_records(records):
    from ..io import dumps  # lazy: repro.io imports observability

    return "".join(dumps(rec, indent=None) + "\n" for rec in records)


def write_records_jsonl(path, records):
    """Atomically write span records as strict-JSON lines.

    Same durability primitive as the checkpoint journal
    (:func:`repro.io.write_text_atomic`): a concurrent reader (or a
    crash mid-write) sees either the old complete file or the new one.
    """
    from ..io import write_text_atomic

    write_text_atomic(path, _encode_records(records))
    return len(records)


class TraceShard:
    """A pool worker's durable per-slot span shard.

    The first :meth:`export` atomically replaces whatever a killed
    predecessor in the same slot left (torn tail included); every later
    one appends and ``fsync``\\ s only the records it is given, so a
    worker's shard writes grow linearly with its tasks. Either way the
    records are on disk when :meth:`export` returns.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._started = False

    def export(self, records):
        """Make ``records`` durable in the shard.

        A failing disk (ENOSPC, EIO) does not fail the task: the error
        is logged and the next export rewrites the shard atomically.
        The records still reach the driver with the outcome.
        """
        try:
            if self._started:
                from ..io import append_text_durable

                append_text_durable(self.path, _encode_records(records))
            else:
                write_records_jsonl(self.path, records)
                self._started = True
        except OSError as exc:
            logger.warning("trace shard %s: write failed (%s); the next "
                           "export rewrites it", self.path, exc)
            self._started = False  # a failed append may leave a torn tail


def trace_shard_path(trace_path, slot):
    """Per-worker trace shard path: ``trace.worker-<slot>.jsonl``."""
    trace_path = Path(trace_path)
    return trace_path.with_name(
        f"{trace_path.stem}.worker-{int(slot)}{trace_path.suffix}")


def trace_shard_paths(trace_path):
    """Existing per-worker shards next to ``trace_path``, sorted."""
    trace_path = Path(trace_path)
    pattern = f"{trace_path.stem}.worker-*{trace_path.suffix}"
    return sorted(trace_path.parent.glob(pattern))


def merge_records(record_lists):
    """Merge span-record lists into one causal, depth-first tree.

    The inputs are flat record lists from different processes (driver
    trace, worker shards, records shipped over the result pipe) that
    share a ``trace_id``. Records are deduplicated by ``span_id`` —
    the same span arriving via a shard *and* the pipe merges to one
    node — then linked by ``parent_id``, and ``depth``/``path`` are
    recomputed for the merged tree. Spans whose parent is missing (it
    lived in a SIGKILLed worker's torn-off tail, or in a process that
    never exported) surface as roots rather than disappearing;
    parent cycles — impossible from a real tracer, but merge input is
    just bytes on disk — are broken the same way. Legacy records
    without a ``span_id`` keep their original path/depth and are
    appended at the end.
    """
    by_id = {}
    order = []
    legacy = []
    for records in record_lists:
        for rec in records:
            span_id = rec.get("span_id")
            if span_id is None:
                legacy.append(dict(rec))
                continue
            if span_id not in by_id:
                by_id[span_id] = dict(rec)
                order.append(span_id)
    children = {}
    roots = []
    for span_id in order:
        parent_id = by_id[span_id].get("parent_id")
        if parent_id is not None and parent_id != span_id \
                and parent_id in by_id:
            children.setdefault(parent_id, []).append(span_id)
        else:
            roots.append(span_id)
    merged = []
    visited = set()

    def visit(span_id, depth, path):
        if span_id in visited:
            return
        visited.add(span_id)
        rec = dict(by_id[span_id])
        path = f"{path}/{rec['name']}" if path else str(rec["name"])
        rec["path"] = path
        rec["depth"] = depth
        merged.append(rec)
        kids = sorted(children.get(span_id, ()),
                      key=lambda s: by_id[s].get("start") or 0.0)
        for kid in kids:
            visit(kid, depth + 1, path)

    for span_id in roots:
        visit(span_id, 0, "")
    for span_id in order:  # cycle members unreachable from any root
        if span_id not in visited:
            visit(span_id, 0, "")
    merged.extend(legacy)
    return merged


def _fmt_seconds(seconds):
    if seconds is None:
        return "open"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _tree_from_records(records):
    """Rebuild (node, children) nesting from depth-annotated records."""
    roots = []
    stack = []  # (depth, node) ; node = [record, children]
    for rec in records:
        node = [rec, []]
        depth = int(rec.get("depth", 0))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            stack[-1][1][1].append(node)
        else:
            roots.append(node)
        stack.append((depth, node))
    return roots


def render_records(records, collapse=4):
    """Render span records as a box-drawing tree.

    Sibling spans sharing a name are aggregated into one ``xN`` line
    once the group exceeds ``collapse`` members, so sweeps with many
    repeated fits stay readable. Spans that carry a ``worker`` tag (a
    merged cross-process trace) show their worker slot inline.
    """
    lines = []

    def describe(rec, count=1, total=None, ticks=None, peak=None):
        total = rec.get("duration") if total is None else total
        ticks = rec.get("n_ticks", 0) if ticks is None else ticks
        peak = rec.get("peak_kb") if peak is None else peak
        parts = [_fmt_seconds(total)]
        if count > 1:
            parts.append(f"mean {_fmt_seconds(total / count)}")
        if ticks:
            parts.append(f"{ticks} ticks")
        if peak is not None:
            parts.append(f"peak {peak:.0f}KB")
        label = rec["name"] + (f" x{count}" if count > 1 else "")
        if count == 1 and rec.get("worker") is not None:
            label += f" @w{rec['worker']}"
        return f"{label} ({', '.join(parts)})"

    def walk(nodes, prefix):
        groups = []
        for node in nodes:
            if groups and groups[-1][0][0]["name"] == node[0]["name"]:
                groups[-1].append(node)
            else:
                groups.append([node])
        flat = []
        for group in groups:
            if len(group) > collapse:
                flat.append(group)
            else:
                flat.extend([node] for node in group)
        for i, group in enumerate(flat):
            last = i == len(flat) - 1
            branch = "`- " if last else "|- "
            child_prefix = prefix + ("   " if last else "|  ")
            if len(group) == 1:
                rec, children = group[0]
                lines.append(prefix + branch + describe(rec))
                walk(children, child_prefix)
            else:
                recs = [node[0] for node in group]
                total = sum(r.get("duration") or 0.0 for r in recs)
                ticks = sum(r.get("n_ticks", 0) for r in recs)
                peaks = [r["peak_kb"] for r in recs if "peak_kb" in r]
                lines.append(prefix + branch + describe(
                    recs[0], count=len(recs), total=total, ticks=ticks,
                    peak=max(peaks) if peaks else None,
                ))

    roots = _tree_from_records(records)
    for node in roots:
        rec, children = node
        lines.append(describe(rec))
        walk(children, "")
    return "\n".join(lines) if lines else "(empty trace)"


def slowest_stages(records, top=10):
    """Aggregate records by path; the per-stage timing breakdown.

    Returns dicts with ``path``, ``count``, ``total`` (inclusive
    seconds), ``self`` (exclusive of child spans), ``ticks``, and
    ``workers`` (distinct worker slots that executed the stage — 0 for
    a purely in-process trace) — sorted by ``self`` descending,
    truncated to ``top``.
    """
    by_path = {}
    child_time = {}
    for rec in records:
        path = rec["path"]
        entry = by_path.setdefault(
            path, {"path": path, "count": 0, "total": 0.0, "self": 0.0,
                   "ticks": 0, "_workers": set()}
        )
        dur = rec.get("duration") or 0.0
        entry["count"] += 1
        entry["total"] += dur
        entry["ticks"] += rec.get("n_ticks", 0)
        if rec.get("worker") is not None:
            entry["_workers"].add(rec["worker"])
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + dur
    for path, entry in by_path.items():
        entry["self"] = max(entry["total"] - child_time.get(path, 0.0), 0.0)
        entry["workers"] = len(entry.pop("_workers"))
    ranked = sorted(by_path.values(), key=lambda e: e["self"], reverse=True)
    return ranked[: int(top)]


def render_stage_table(stages):
    """Fixed-width text table for :func:`slowest_stages` output."""
    header = ("stage", "count", "total", "self", "ticks", "workers")
    rows = [
        (s["path"], str(s["count"]), _fmt_seconds(s["total"]),
         _fmt_seconds(s["self"]), str(s["ticks"]),
         str(s.get("workers", 0)))
        for s in stages
    ]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]

    def line(vals):
        return " | ".join(v.ljust(w) for v, w in zip(vals, widths))

    out = [line(header), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in rows)
    return "\n".join(out)
