"""The records a sweep produces: result tables and per-key outcomes.

:class:`ResultTable` is what every experiment body returns, and
:class:`ExperimentOutcome` is what the run layer makes of one key: its
status, its table or structured failure, and its telemetry. Both
round-trip through plain dicts, the schema that the worker pipe
(:mod:`repro.robustness.pool`) and the journal
(:mod:`repro.robustness.checkpoint`) carry. ``repro.experiments``
re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..exceptions import ValidationError
from .guard import RunFailure

__all__ = ["ExperimentOutcome", "ResultTable"]


class ResultTable:
    """An ordered list of result rows (dicts) with text rendering.

    Parameters
    ----------
    title : str — experiment id + description.
    columns : sequence of str — column order; rows may omit trailing
        columns (rendered blank).
    """

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows = []

    def add(self, **row):
        """Append a row; unknown keys raise to catch typos early."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise ValidationError(f"unknown columns {sorted(unknown)}")
        self.rows.append(row)
        return self

    def column(self, name):
        """All values of one column (missing entries omitted)."""
        if name not in self.columns:
            raise ValidationError(f"no column {name!r}")
        return [r[name] for r in self.rows if name in r]

    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def to_dict(self):
        """JSON-serialisable dict (journal / worker-pipe schema)."""
        return {"title": self.title, "columns": list(self.columns),
                "rows": [dict(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict` (row typo-checking re-applies)."""
        if not isinstance(data, dict) or "columns" not in data:
            raise ValidationError(
                "ResultTable record must be a dict with a 'columns' key"
            )
        table = cls(data.get("title", ""), data["columns"])
        for row in data.get("rows", []):
            table.add(**row)
        return table

    def render(self):
        """Fixed-width text table."""
        cells = [
            [self._fmt(r.get(c, "")) for c in self.columns] for r in self.rows
        ]
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        def line(vals):
            return " | ".join(v.ljust(w) for v, w in zip(vals, widths))
        out = [f"== {self.title} ==", line(self.columns),
               "-+-".join("-" * w for w in widths)]
        out.extend(line(row) for row in cells)
        return "\n".join(out)

    def __repr__(self):
        return f"ResultTable({self.title!r}, {len(self.rows)} rows)"


@dataclass
class ExperimentOutcome:
    """Per-experiment record of a guarded sweep.

    ``status`` is "ok" (``table`` holds the ResultTable), "failed"
    (``failure`` holds the structured :class:`RunFailure`), or
    "skipped" (a resumed sweep found this key already completed in the
    journal; ``table`` holds the prior run's ResultTable).

    ``iterations`` counts the cooperative optimiser ticks spent inside
    the experiment (every ``budget_tick`` across all nested fits);
    ``timings`` maps each direct child span (estimator fits, traced
    substeps) to cumulative seconds; ``peak_kb`` is the tracemalloc
    peak when the sweep's tracer profiles memory
    (``Tracer(profile_memory=True)``, the CLI's ``--profile``).

    ``spans`` — present only for traced cross-process runs — holds the
    worker-side span records (``Tracer.to_records()`` dicts carrying
    ``trace_id``/``span_id``/``parent_id``) so the driver can merge
    them into one causal tree. It rides the worker pipe but is
    stripped from journal records (the trace shards are the durable
    span store) and excluded from ``canonical_summary``.
    """

    key: str
    status: str
    table: Any = None
    failure: Optional[RunFailure] = None
    elapsed: float = 0.0
    attempts: int = 1
    iterations: int = 0
    timings: Optional[dict] = field(default=None, repr=False)
    peak_kb: Optional[float] = None
    spans: Optional[list] = field(default=None, repr=False)

    @property
    def ok(self):
        """True for work that need not be redone ("ok" or "skipped")."""
        return self.status in ("ok", "skipped")

    def to_dict(self):
        """JSON-serialisable dict; survives journal and worker pipe.

        ``table`` is stored via :meth:`ResultTable.to_dict` (a non-table
        value degrades to its ``repr``), ``failure`` via
        :meth:`~repro.robustness.RunFailure.to_dict`.
        """
        if isinstance(self.table, ResultTable):
            table = self.table.to_dict()
        elif self.table is None:
            table = None
        else:
            table = repr(self.table)
        data = {
            "key": self.key,
            "status": self.status,
            "table": table,
            "failure": None if self.failure is None
            else self.failure.to_dict(),
            "elapsed": self.elapsed,
            "attempts": self.attempts,
            "iterations": self.iterations,
            "timings": self.timings,
            "peak_kb": self.peak_kb,
        }
        if self.spans is not None:  # only traced runs carry span records
            data["spans"] = self.spans
        return data

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        if not isinstance(data, dict) or "key" not in data:
            raise ValidationError(
                "ExperimentOutcome record must be a dict with a 'key'"
            )
        table = data.get("table")
        if isinstance(table, dict):
            table = ResultTable.from_dict(table)
        failure = data.get("failure")
        if failure is not None:
            failure = RunFailure.from_dict(failure)
        timings = data.get("timings")
        return cls(
            key=str(data["key"]),
            status=str(data.get("status", "ok")),
            table=table,
            failure=failure,
            elapsed=float(data.get("elapsed", 0.0)),
            attempts=int(data.get("attempts", 1)),
            iterations=int(data.get("iterations", 0)),
            timings=None if timings is None else dict(timings),
            peak_kb=data.get("peak_kb"),
            spans=data.get("spans"),
        )
