"""Verify the outcome/journal schema contract of the run layer.

Usage:  python tools/check_outcome_schema.py

The contract (see docs/robustness.md):

1. every ``RunFailure.kind`` the fault injectors can produce
   (``"error"`` via exceptions, ``"timeout"`` via the hang injector
   under a hard deadline, ``"crashed"`` via the hard-crash injector
   under isolation) appears in ``KNOWN_FAILURE_KINDS``;
2. an :class:`~repro.experiments.ExperimentOutcome` carrying each kind
   — and an ``"ok"`` outcome carrying a ResultTable — survives the
   JSON round-trip (``to_dict`` → ``json`` → ``from_dict``) that both
   the worker pipe and the checkpoint journal rely on;
3. the same outcomes survive a real :class:`~repro.robustness.RunJournal`
   write/reload cycle, including recovery from a truncated trailing
   line (torn write), and a journal reopened over a torn tail keeps
   recording: its next append must not glue onto the torn fragment;
4. ``summarize_outcomes`` renders every kind distinguishably — a hard
   kill must never be presented as a plain in-process error;
5. journal bytes are strict RFC JSON: an outcome whose table carries
   NaN/Infinity values must journal without bare ``NaN``/``Infinity``
   tokens (``json.dumps`` would emit them by default), and still
   reload (see ``repro.io.dumps``).

Exit status is the number of violations, so the script doubles as a CI
gate (``tests/test_crash_safety.py`` runs it inside the tier-1 suite).
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

#: kind -> (error_type, message) as produced by the injectors/harness.
INJECTABLE_KINDS = {
    "error": ("FaultInjectedError", "fault injected into experiment X"),
    "timeout": ("WorkerTimeoutError",
                "worker exceeded its hard deadline after 2.00s and was "
                "killed; silent for 1.5s before the kill"),
    "crashed": ("WorkerCrashError",
                "worker died with signal SIGKILL after 0.05s"),
}


def sample_outcomes():
    """One representative outcome per status/kind the harness emits."""
    from repro.experiments.harness import ExperimentOutcome, ResultTable
    from repro.robustness.guard import RunFailure

    table = ResultTable("sample", ["metric", "value"])
    table.add(metric="nmi", value=0.912)
    table.add(metric="seconds", value=1.25)
    outcomes = [ExperimentOutcome(
        key="OK1", status="ok", table=table, elapsed=1.25, attempts=1,
        iterations=42, timings={"KMeans.fit": 0.8}, peak_kb=512.0,
    )]
    for kind, (error_type, message) in INJECTABLE_KINDS.items():
        failure = RunFailure(
            label=f"F_{kind.upper()}", error_type=error_type,
            message=message, traceback="Traceback: ...", elapsed=2.0,
            attempts=2, kind=kind,
            context={"exitcode": -9, "signal": "SIGKILL"},
        )
        outcomes.append(ExperimentOutcome(
            key=f"F_{kind.upper()}", status="failed", failure=failure,
            elapsed=2.0, attempts=2,
        ))
    return outcomes


def _diff(name, before, after, fields):
    return [f"{name}: field {f!r} does not round-trip "
            f"({getattr(before, f)!r} -> {getattr(after, f)!r})"
            for f in fields if getattr(before, f) != getattr(after, f)]


def check_known_kinds():
    """Contract item 1: injectable kinds are all declared."""
    from repro.robustness.guard import KNOWN_FAILURE_KINDS

    problems = []
    for kind in INJECTABLE_KINDS:
        if kind not in KNOWN_FAILURE_KINDS:
            problems.append(
                f"injectable kind {kind!r} missing from KNOWN_FAILURE_KINDS"
            )
    for kind in KNOWN_FAILURE_KINDS:
        if kind not in INJECTABLE_KINDS:
            problems.append(
                f"KNOWN_FAILURE_KINDS declares {kind!r} but no injector "
                "produces it — extend INJECTABLE_KINDS in this tool"
            )
    return problems


def check_json_round_trip(outcomes):
    """Contract item 2: to_dict -> json -> from_dict is lossless."""
    from repro.experiments.harness import ExperimentOutcome

    problems = []
    for outcome in outcomes:
        wire = json.loads(json.dumps(outcome.to_dict()))
        back = ExperimentOutcome.from_dict(wire)
        problems.extend(_diff(
            outcome.key, outcome, back,
            ("key", "status", "elapsed", "attempts", "iterations",
             "timings", "peak_kb"),
        ))
        if (outcome.failure is None) != (back.failure is None):
            problems.append(f"{outcome.key}: failure presence lost")
        elif outcome.failure is not None:
            problems.extend(_diff(
                f"{outcome.key}.failure", outcome.failure, back.failure,
                ("label", "kind", "error_type", "message", "traceback",
                 "elapsed", "attempts"),
            ))
        if (outcome.table is None) != (back.table is None):
            problems.append(f"{outcome.key}: table presence lost")
        elif outcome.table is not None and (
                back.table.columns != outcome.table.columns
                or back.table.rows != outcome.table.rows):
            problems.append(f"{outcome.key}: ResultTable does not round-trip")
    return problems


def check_journal_round_trip(outcomes):
    """Contract item 3: a real journal write/reload cycle is lossless,
    a torn trailing write loses at most the torn record, and recording
    after reopening a torn journal leaves it loadable."""
    from repro.exceptions import ValidationError
    from repro.experiments.harness import ExperimentOutcome
    from repro.robustness.checkpoint import RunJournal

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        journal = RunJournal(tmp)
        for outcome in outcomes:
            journal.record(outcome)
        reloaded = RunJournal(journal.path)
        for outcome in outcomes:
            if outcome.key not in reloaded:
                problems.append(f"journal lost outcome {outcome.key}")
                continue
            back = reloaded.outcomes[outcome.key]
            if back.status != outcome.status:
                problems.append(
                    f"journal changed {outcome.key} status "
                    f"{outcome.status!r} -> {back.status!r}"
                )
            kind = outcome.failure.kind if outcome.failure else None
            back_kind = back.failure.kind if back.failure else None
            if kind != back_kind:
                problems.append(
                    f"journal changed {outcome.key} failure kind "
                    f"{kind!r} -> {back_kind!r}"
                )
        # torn write: append half a record; all whole records must load
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "TORN", "status": "o')
        torn = RunJournal(journal.path)
        if "TORN" in torn:
            problems.append("truncated trailing record was not dropped")
        if len(torn) != len(outcomes):
            problems.append(
                f"torn-write recovery kept {len(torn)} records, "
                f"expected {len(outcomes)}"
            )
        # torn tail -> reopen -> record -> reload: the append after a
        # torn tail must not glue onto it
        for key in ("AFTER1", "AFTER2"):
            torn.record(ExperimentOutcome(key=key, status="ok"))
        try:
            after = RunJournal(journal.path)
        except ValidationError as exc:
            problems.append(f"record after a torn tail corrupted the "
                            f"journal: {exc}")
        else:
            expected = {o.key for o in outcomes} | {"AFTER1", "AFTER2"}
            if set(after.outcomes) != expected:
                problems.append(
                    "record after a torn tail lost outcomes: reloaded "
                    f"{sorted(after.outcomes)}, expected {sorted(expected)}"
                )
    return problems


def check_strict_journal_bytes():
    """Contract item 5: journaled bytes parse as strict RFC JSON even
    when a table carries non-finite floats."""
    from repro.experiments.harness import ExperimentOutcome, ResultTable
    from repro.robustness.checkpoint import RunJournal

    table = ResultTable("nonfinite", ["metric", "value"])
    table.add(metric="nan_score", value=float("nan"))
    table.add(metric="pos_inf", value=float("inf"))
    table.add(metric="neg_inf", value=float("-inf"))
    outcome = ExperimentOutcome(key="NONFINITE", status="ok", table=table,
                                elapsed=0.1)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        journal = RunJournal(tmp)
        journal.record(outcome)
        raw = journal.path.read_text(encoding="utf-8")

        def reject_constant(token):
            raise ValueError(f"bare {token} token")

        for i, line in enumerate(raw.splitlines()):
            try:
                json.loads(line, parse_constant=reject_constant)
            except ValueError as exc:
                problems.append(
                    f"journal line {i + 1} is not strict RFC JSON ({exc}): "
                    f"{line[:80]}..."
                )
        reloaded = RunJournal(journal.path)
        if "NONFINITE" not in reloaded:
            problems.append("non-finite table outcome did not reload")
    return problems


def check_rendering(outcomes):
    """Contract item 4: every kind is visible in the summary table."""
    from repro.experiments.harness import summarize_outcomes

    rendered = summarize_outcomes(outcomes).render()
    problems = []
    for kind in INJECTABLE_KINDS:
        if kind == "error":
            continue  # plain errors render as bare "failed"
        if f"failed/{kind}" not in rendered:
            problems.append(
                f"summarize_outcomes does not render kind {kind!r} "
                "(expected a 'failed/" + kind + "' status)"
            )
    for error_type, _ in INJECTABLE_KINDS.values():
        if error_type not in rendered:
            problems.append(
                f"summarize_outcomes does not render error type "
                f"{error_type!r}"
            )
    if "skipped" not in summarize_outcomes(
            [type(outcomes[0])(key="S", status="skipped")]).render():
        problems.append("summarize_outcomes does not render 'skipped'")
    return problems


def main(argv=None):
    """Run all checks; print violations; return their count."""
    del argv  # no options yet
    outcomes = sample_outcomes()
    violations = []
    violations.extend(check_known_kinds())
    violations.extend(check_json_round_trip(outcomes))
    violations.extend(check_journal_round_trip(outcomes))
    violations.extend(check_strict_journal_bytes())
    violations.extend(check_rendering(outcomes))
    for line in violations:
        print(f"VIOLATION: {line}")
    print(f"checked {len(outcomes)} outcome shapes across "
          f"{len(INJECTABLE_KINDS)} failure kinds, "
          f"{len(violations)} violation(s)")
    return len(violations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
