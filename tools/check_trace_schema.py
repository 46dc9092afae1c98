"""Verify the cross-process trace-record and /metrics wire schemas.

Usage:  python tools/check_trace_schema.py

The contract (see docs/observability.md and docs/serving.md):

1. every span record a :class:`~repro.observability.Tracer` exports
   carries the identity triple — a 32-hex ``trace_id``, a 16-hex
   ``span_id``, and a ``parent_id`` that is either ``None`` (root) or
   16-hex — alongside the rendering fields (``name``, ``start``,
   ``duration``, ``depth``, ``path``);
2. exported bytes are strict RFC JSON: a span attribute carrying
   NaN/Infinity must serialize without bare ``NaN``/``Infinity``
   tokens (``repro.io.dumps``) and still reload;
3. after a real ``jobs=2`` pooled sweep, the merged trace is one
   causal tree: a single ``trace_id`` spans the process boundary,
   every ``parent_id`` resolves to a span in the same file, parent
   chains are acyclic and root-reachable, and worker spans carry
   their ``worker`` slot attribution;
4. a worker killed mid-write must not poison the merge: a shard with
   a torn trailing line recovers every whole record, and
   :meth:`Tracer.merge_shards` tolerates a shard that was never
   written at all;
5. ``MetricsRegistry.to_prometheus()`` is valid text exposition
   format v0.0.4: every sample is preceded by ``# TYPE``, counters
   end in ``_total``, histogram ``le`` bounds are strictly increasing
   and end at ``+Inf``, bucket counts are cumulative, and the
   documented name mapping (``serve.jobs.submitted`` →
   ``repro_serve_jobs_submitted_total``) holds.

Exit status is the number of violations, so the script doubles as a CI
gate (the tier-1 suite runs it, see tests).
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

_TRACE_ID = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID = re.compile(r"^[0-9a-f]{16}$")
#: a Prometheus sample line: name, optional labels, value.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? -?[0-9.e+-]+$")

REQUIRED_KEYS = ("trace_id", "span_id", "parent_id", "name", "start",
                 "duration", "depth", "path")


def _check_record(rec, where, problems):
    for key in REQUIRED_KEYS:
        if key not in rec:
            problems.append(f"{where}: span record missing {key!r}: {rec}")
            return
    if not _TRACE_ID.match(str(rec["trace_id"])):
        problems.append(f"{where}: bad trace_id {rec['trace_id']!r}")
    if not _SPAN_ID.match(str(rec["span_id"])):
        problems.append(f"{where}: bad span_id {rec['span_id']!r}")
    if rec["parent_id"] is not None and not _SPAN_ID.match(
            str(rec["parent_id"])):
        problems.append(f"{where}: bad parent_id {rec['parent_id']!r}")


def check_span_record_schema():
    """Contract items 1 + 2: identity triple on every record, and
    strict RFC bytes even with a NaN span attribute."""
    from repro.io import read_records
    from repro.observability import Tracer

    problems = []
    tracer = Tracer()
    with tracer:
        with tracer.span("outer", nan_attr=float("nan"),
                         inf_attr=float("inf")):
            with tracer.span("inner"):
                pass
    records = tracer.to_records()
    for rec in records:
        _check_record(rec, "in-memory", problems)
    roots = [r for r in records if r["parent_id"] is None]
    if len(roots) != 1:
        problems.append(f"expected exactly one root span, got {len(roots)}")

    def reject_constant(token):
        raise ValueError(f"bare {token} token")

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        tracer.write_jsonl(path)
        for i, line in enumerate(path.read_text().splitlines()):
            try:
                json.loads(line, parse_constant=reject_constant)
            except ValueError as exc:
                problems.append(
                    f"trace line {i + 1} is not strict RFC JSON ({exc}): "
                    f"{line[:80]}")
        back = read_records(path)
        if len(back) != len(records):
            problems.append(
                f"round-trip lost records ({len(records)} -> {len(back)})")
        for rec in back:
            _check_record(rec, "reloaded", problems)
    return problems


def _tiny_table():
    from repro.experiments.harness import ResultTable

    table = ResultTable("trace-schema", ["metric", "value"])
    table.add(metric="score", value=1.0)
    return table


def _exp_a():
    return _tiny_table()


def _exp_b():
    return _tiny_table()


def check_pooled_merge_invariants():
    """Contract item 3: a real ``jobs=2`` sweep merges into one
    causal tree with cross-process identity and worker attribution."""
    from repro.experiments.harness import run_experiments
    from repro.io import read_records
    from repro.observability import Tracer

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = pathlib.Path(tmp) / "trace.jsonl"
        tracer = Tracer()
        run_experiments({"A": _exp_a, "B": _exp_b}, tracer=tracer,
                        jobs=2, trace_path=trace_path)
        tracer.write_jsonl(trace_path)
        records = read_records(trace_path)

    if not records:
        return ["pooled sweep exported no span records"]
    for rec in records:
        _check_record(rec, "pooled", problems)
    if problems:
        return problems

    trace_ids = {rec["trace_id"] for rec in records}
    if len(trace_ids) != 1:
        problems.append(
            f"trace_id not constant across the process boundary: "
            f"{sorted(trace_ids)}")
    by_id = {rec["span_id"]: rec for rec in records}
    if len(by_id) != len(records):
        problems.append("duplicate span_id survived the shard merge")
    for rec in records:
        seen = set()
        cursor = rec
        while cursor["parent_id"] is not None:
            if cursor["span_id"] in seen:
                problems.append(
                    f"cycle in parent chain at {rec['span_id']}")
                break
            seen.add(cursor["span_id"])
            parent = by_id.get(cursor["parent_id"])
            if parent is None:
                problems.append(
                    f"span {cursor['span_id']} ({cursor['name']}) has "
                    f"dangling parent_id {cursor['parent_id']}")
                break
            cursor = parent
    worker_spans = [r for r in records if r.get("worker") is not None]
    if not worker_spans:
        problems.append("no span carries a 'worker' slot attribution")
    for rec in worker_spans:
        if rec["parent_id"] is None:
            problems.append(
                f"worker span {rec['name']!r} is a root — it never "
                "linked back to the driver's sweep span")
    return problems


def check_torn_shard_recovery():
    """Contract item 4: torn trailing shard lines and missing shards
    do not poison the merge."""
    from repro.io import read_records, shard_path
    from repro.observability import Tracer, write_records_jsonl

    problems = []
    tracer = Tracer()
    with tracer:
        with tracer.span("survivor"):
            pass
    records = tracer.to_records()
    with tempfile.TemporaryDirectory() as tmp:
        trace = pathlib.Path(tmp) / "trace.jsonl"
        shard = shard_path(trace, 0)
        write_records_jsonl(shard, records)
        with open(shard, "a", encoding="utf-8") as fh:
            fh.write('{"trace_id": "dead", "span_id": "be')
        try:
            recovered = read_records(shard, recover=True)
        except ValueError:
            return ["torn trailing shard line raised instead of recovering"]
        if len(recovered) != len(records):
            problems.append(
                f"torn-shard recovery kept {len(recovered)} records, "
                f"expected {len(records)}")
        missing = shard_path(trace, 1)
        merged = Tracer.merge_shards([shard, missing])
        if len(merged) != len(records):
            problems.append(
                "merge_shards with a never-written shard lost records")
        for rec in merged:
            _check_record(rec, "merged", problems)
    return problems


def check_prometheus_exposition():
    """Contract item 5: text exposition format v0.0.4 grammar."""
    from repro.observability import (
        LATENCY_BUCKETS,
        MetricsRegistry,
        prometheus_name,
    )

    problems = []
    if prometheus_name("serve.jobs.submitted",
                       "counter") != "repro_serve_jobs_submitted_total":
        problems.append(
            "prometheus_name breaks the documented mapping "
            "serve.jobs.submitted -> repro_serve_jobs_submitted_total")

    registry = MetricsRegistry()
    registry.counter("serve.jobs.submitted").inc(3)
    registry.gauge("pool.queue.depth").set(2)
    hist = registry.histogram("serve.http.seconds", buckets=LATENCY_BUCKETS)
    for value in (0.002, 0.02, 0.2, 2.0, 200.0):
        hist.observe(value)
    text = registry.to_prometheus()

    typed = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            typed[name] = kind
            continue
        if line.startswith("#") or not line:
            continue
        if not _SAMPLE.match(line):
            problems.append(f"sample line fails exposition grammar: {line}")
            continue
        sample_name = re.split(r"[{ ]", line, 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", sample_name)
        if sample_name not in typed and base not in typed:
            problems.append(f"sample {sample_name!r} has no # TYPE line")
    for name, kind in typed.items():
        if kind == "counter" and not name.endswith("_total"):
            problems.append(f"counter {name!r} does not end in _total")

    # histogram buckets: strictly increasing le, cumulative counts,
    # +Inf bucket == _count
    buckets = []
    for line in text.splitlines():
        match = re.match(
            r'^(?P<name>\w+)_bucket\{le="(?P<le>[^"]+)"\} (?P<n>\d+)$', line)
        if match:
            le = match.group("le")
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.append((match.group("name"), bound, int(match.group("n"))))
    if not buckets:
        problems.append("histogram rendered no _bucket samples")
    bounds = [b for _, b, _ in buckets]
    counts = [n for _, _, n in buckets]
    if bounds != sorted(set(bounds)):
        problems.append(f"le bounds are not strictly increasing: {bounds}")
    if bounds and bounds[-1] != float("inf"):
        problems.append("histogram is missing the le=\"+Inf\" bucket")
    if counts != sorted(counts):
        problems.append(f"bucket counts are not cumulative: {counts}")
    count_match = re.search(r"^\w+_count (\d+)$", text, re.MULTILINE)
    if count_match and counts and counts[-1] != int(count_match.group(1)):
        problems.append(
            f"+Inf bucket ({counts[-1]}) != _count "
            f"({count_match.group(1)})")
    for token in ("NaN", "Infinity"):
        if re.search(rf"\b{token}\b", text):
            problems.append(f"exposition text contains bare {token}")
    return problems


def main(argv=None):
    """Run all checks; print violations; return their count."""
    del argv  # no options yet
    violations = []
    violations.extend(check_span_record_schema())
    violations.extend(check_pooled_merge_invariants())
    violations.extend(check_torn_shard_recovery())
    violations.extend(check_prometheus_exposition())
    for line in violations:
        print(f"VIOLATION: {line}")
    print(f"checked span-record, shard-merge, and /metrics exposition "
          f"schemas, {len(violations)} violation(s)")
    return len(violations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
