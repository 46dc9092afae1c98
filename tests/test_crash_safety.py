"""Crash-safe sweeps: process isolation, hard timeouts, checkpoint/resume.

Three layers under test:

* isolated sweeps — a worker that hangs is killed at the hard
  wall-clock deadline (``"timeout"``), one that dies by signal or
  nonzero exit is detected (``"crashed"``), and a healthy one ships its
  outcome back over the pipe;
* ``repro.robustness.checkpoint`` — the journal survives a torn
  trailing write, refuses mid-file corruption, and lets a killed sweep
  resume with **zero recomputation** of completed experiments;
* the harness/CLI — ``run_experiments(isolate=True, hard_timeout=...)``
  completes a sweep containing a hung and a hard-crashing experiment
  (the kinds cooperative budgets cannot touch), ``--resume`` re-executes
  only the failed keys, Ctrl-C exits 130 with the journal flushed, and
  a rejected ``--checkpoint`` run leaves no checkpoint directory.

These tests kill real subprocesses; timeouts are kept small.
"""

import importlib.util
import json
import os
import pathlib
import signal
import time

import pytest

from repro.__main__ import main as cli_main
from repro.exceptions import ValidationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import (
    ExperimentOutcome,
    ResultTable,
    run_experiments,
    summarize_outcomes,
)
from repro.robustness import (
    KNOWN_FAILURE_KINDS,
    RunFailure,
    RunJournal,
    budget_tick,
    load_journal_records,
)
from tests.faults import (
    CrashingEstimator,
    FaultInjectedError,
    HangingEstimator,
    hang,
    hard_crash,
)

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "check_outcome_schema.py"
_spec = importlib.util.spec_from_file_location("check_outcome_schema", _TOOL)
schema_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(schema_tool)

# generous wall-clock ceiling for "was killed promptly" assertions: the
# deadlines below are <= 1s, so even a loaded CI box stays well under it
REAP_CEILING = 10.0


def _table(x=1.0):
    table = ResultTable("t", ["x"])
    table.add(x=x)
    return table


# ---------------------------------------------------------------------------
# isolated sweeps: verdicts synthesized for killed and dead workers


def test_isolated_nonzero_exit_is_reported_as_crash():
    def bail():
        os._exit(3)

    outcome, = run_experiments({"BAIL": bail}, isolate=True)
    assert outcome.status == "failed"
    assert outcome.failure.kind == "crashed"
    assert outcome.failure.error_type == "WorkerCrashError"
    assert outcome.failure.context["exitcode"] == 3
    assert outcome.failure.context["signal"] is None
    assert "exit code 3" in outcome.failure.message


def test_isolated_timeout_reports_heartbeat_silence():
    def tick_then_hang():
        budget_tick(1)  # one heartbeat reaches the parent
        while True:
            time.sleep(0.05)

    start = time.monotonic()
    outcome, = run_experiments({"BEAT": tick_then_hang}, isolate=True,
                               hard_timeout=0.6)
    assert time.monotonic() - start < REAP_CEILING
    assert outcome.failure.kind == "timeout"
    assert "hard deadline" in outcome.failure.message
    assert "silent for" in outcome.failure.message


def test_isolated_sweep_rejects_nonpositive_hard_timeout():
    with pytest.raises(ValidationError, match="positive"):
        run_experiments({"A": _table}, isolate=True, hard_timeout=0)


def test_isolated_worker_starts_with_a_fresh_metrics_registry():
    # regression: a forked worker used to inherit the parent registry's
    # contents, so merging its snapshot back double-counted everything
    # recorded before the fork
    from repro.observability import (
        default_registry,
        record,
        reset_default_registry,
    )

    def inherited():
        table = ResultTable("registry", ["inherited"])
        table.add(inherited="fits_total" in default_registry().snapshot())
        return table

    reset_default_registry()
    record("fits_total")
    try:
        outcome, = run_experiments({"R": inherited}, isolate=True)
        assert outcome.table.rows == [{"inherited": False}]
    finally:
        reset_default_registry()


# ---------------------------------------------------------------------------
# serialization round-trips (worker pipe + journal schema)


def test_result_table_round_trip():
    table = _table(0.25)
    back = ResultTable.from_dict(json.loads(json.dumps(table.to_dict())))
    assert back.title == table.title
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.render() == table.render()


def test_outcome_round_trip_preserves_failure_kind():
    failure = RunFailure(label="K", error_type="WorkerTimeoutError",
                         message="killed", traceback="", elapsed=1.0,
                         attempts=1, kind="timeout")
    outcome = ExperimentOutcome(key="K", status="failed", failure=failure,
                                elapsed=1.0)
    back = ExperimentOutcome.from_dict(
        json.loads(json.dumps(outcome.to_dict()))
    )
    assert back.failure.kind == "timeout"
    assert back.failure.error_type == "WorkerTimeoutError"
    assert not back.ok


def test_run_failure_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="kind"):
        RunFailure.from_dict({"kind": "melted"})


def test_schema_tool_passes():
    assert schema_tool.main([]) == 0
    assert set(schema_tool.INJECTABLE_KINDS) == set(KNOWN_FAILURE_KINDS)


# ---------------------------------------------------------------------------
# checkpoint journal


def test_journal_records_and_reloads(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="ok", table=_table()))
    journal.record(ExperimentOutcome(
        key="B", status="failed",
        failure=RunFailure(label="B", error_type="RuntimeError",
                           message="boom", traceback="", elapsed=0.1,
                           attempts=1),
    ))
    reloaded = RunJournal(tmp_path / "journal.jsonl")
    assert reloaded.completed_keys() == {"A"}
    assert reloaded.outcomes["A"].table.rows == [{"x": 1.0}]
    assert reloaded.outcomes["B"].failure.message == "boom"


def test_journal_rerecord_supersedes(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="failed"))
    journal.record(ExperimentOutcome(key="A", status="ok", table=_table()))
    assert RunJournal(journal.path).completed_keys() == {"A"}


def test_journal_tolerates_truncated_trailing_line(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="ok", table=_table()))
    journal.record(ExperimentOutcome(key="B", status="ok", table=_table()))
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "C", "status": "o')  # torn write
    reloaded = RunJournal(journal.path)
    assert reloaded.completed_keys() == {"A", "B"}
    assert "C" not in reloaded


def test_journal_refuses_mid_file_corruption(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('not json at all\n{"key": "A", "status": "ok"}\n')
    with pytest.raises(ValidationError, match="corrupt"):
        load_journal_records(path)


def test_journal_fresh_start_discards_prior(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="ok", table=_table()))
    fresh = RunJournal(tmp_path, resume=False)
    assert len(fresh) == 0
    # opening deletes nothing; the run's start does
    assert (tmp_path / "journal.jsonl").exists()
    fresh.begin()
    assert not (tmp_path / "journal.jsonl").exists()


def test_journal_fresh_start_discards_on_first_record(tmp_path):
    RunJournal(tmp_path).record(ExperimentOutcome(key="A", status="ok"))
    fresh = RunJournal(tmp_path, resume=False)
    fresh.record(ExperimentOutcome(key="B", status="ok"))
    assert RunJournal(tmp_path).completed_keys() == {"B"}


def test_rejected_run_keeps_fresh_journal_predecessor(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="ok", table=_table()))
    RunJournal(journal.shard_path(0)).record(
        ExperimentOutcome(key="B", status="ok"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValidationError):
        run_experiments({"A": lambda: None}, jobs=-1,
                        journal=RunJournal(tmp_path, resume=False))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert RunJournal(tmp_path).completed_keys() == {"A", "B"}


def test_journal_leaves_no_tmp_file(tmp_path):
    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="A", status="ok"))
    assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]


# the append design's own hazards: a record appended after a torn tail
# must not glue onto it, and writes must stay linear in the records


def test_journal_reopened_after_torn_tail_appends_cleanly(tmp_path):
    journal = RunJournal(tmp_path)
    for key in ("A", "B"):
        journal.record(ExperimentOutcome(key=key, status="ok",
                                         table=_table()))
    with open(journal.path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "TORN", "status": "o')  # killed mid-append
    reopened = RunJournal(journal.path)
    for key in ("C", "D"):
        reopened.record(ExperimentOutcome(key=key, status="ok",
                                          table=_table()))
    keys = [record["key"] for record in load_journal_records(journal.path)]
    assert keys == ["A", "B", "C", "D"]
    assert RunJournal(journal.path).completed_keys() == {"A", "B", "C", "D"}


def test_journal_writes_grow_linearly(tmp_path, monkeypatch):
    import repro.io

    written = []
    replaces = []
    real_append = repro.io.append_text_durable
    real_atomic = repro.io.write_text_atomic
    real_replace = os.replace

    def append(path, text):
        written.append(len(text.encode("utf-8")))
        real_append(path, text)

    def atomic(path, text):
        written.append(len(text.encode("utf-8")))
        real_atomic(path, text)

    def replace(src, dst):
        replaces.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(repro.io, "append_text_durable", append)
    monkeypatch.setattr(repro.io, "write_text_atomic", atomic)
    monkeypatch.setattr(os, "replace", replace)
    journal = RunJournal(tmp_path)
    count = 25
    for i in range(count):
        journal.record(ExperimentOutcome(key=f"K{i:02d}", status="ok",
                                         table=_table(float(i))))
    lines = journal.path.read_bytes().splitlines(keepends=True)
    assert len(replaces) <= 1
    assert len(lines) == len(set(lines)) == count
    assert journal.path.stat().st_size == sum(len(line) for line in lines)
    assert sum(written) == journal.path.stat().st_size


def test_trace_shard_replaces_torn_stale_shard_then_appends(tmp_path):
    from repro.observability.tracer import (
        TraceShard,
        read_jsonl,
        write_records_jsonl,
    )

    shard_path = tmp_path / "trace.worker-0.jsonl"
    write_records_jsonl(shard_path, [{"span_id": "stale", "name": "x"}])
    with open(shard_path, "a", encoding="utf-8") as fh:
        fh.write('{"span_id": "torn", "na')  # predecessor killed mid-append
    first = [{"span_id": "a", "name": "fit"}, {"span_id": "b", "name": "io"}]
    second = [{"span_id": "c", "name": "fit"}]
    shard = TraceShard(shard_path)
    shard.export(first)
    shard.export(second)
    assert read_jsonl(shard_path, recover=True) == first + second
    assert read_jsonl(shard_path) == first + second  # no torn line left
    with open(shard_path, "a", encoding="utf-8") as fh:
        fh.write('{"span_id": "d", "na')  # this worker killed mid-append
    assert read_jsonl(shard_path, recover=True) == first + second


# ---------------------------------------------------------------------------
# acceptance: a sweep with a hang and a hard crash completes under
# isolation, and a resume re-executes only the failed keys


def _mark(path):
    """Append one line to ``path`` — counts executions across processes."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("ran\n")
        fh.flush()
        os.fsync(fh.fileno())


def _runs(path):
    return len(path.read_text().splitlines()) if path.exists() else 0


def test_sweep_survives_hang_and_crash_then_resumes(tmp_path):
    """The ISSUE acceptance scenario, with real killed subprocesses."""
    marker_ok = tmp_path / "ok.log"
    data = [[0.0, 0.0], [1.0, 1.0], [8.0, 8.0]]

    def good():
        _mark(marker_ok)
        budget_tick(3)  # ships iterations back over the pipe
        return _table()

    def hung():
        HangingEstimator(hang_seconds=60.0, poll_seconds=0.02).fit(data)

    def crashing():
        CrashingEstimator().fit(data)

    journal = RunJournal(tmp_path / "ckpt")
    start = time.monotonic()
    outcomes = run_experiments(
        {"GOOD": good, "HUNG": hung, "CRASH": crashing},
        isolate=True, hard_timeout=1.0, journal=journal,
    )
    assert time.monotonic() - start < 3 * REAP_CEILING
    by_key = {o.key: o for o in outcomes}
    assert by_key["GOOD"].status == "ok"
    assert by_key["GOOD"].iterations == 3  # telemetry crossed the pipe
    assert by_key["HUNG"].status == "failed"
    assert by_key["HUNG"].failure.kind == "timeout"
    assert by_key["HUNG"].failure.error_type == "WorkerTimeoutError"
    assert by_key["CRASH"].status == "failed"
    assert by_key["CRASH"].failure.kind == "crashed"
    assert by_key["CRASH"].failure.context["signal"] == "SIGKILL"
    assert _runs(marker_ok) == 1

    # resume: only the two failed keys re-execute (now healthy)
    marker_fixed = tmp_path / "fixed.log"

    def fixed():
        _mark(marker_fixed)
        return _table()

    resumed = run_experiments(
        {"GOOD": good, "HUNG": fixed, "CRASH": fixed},
        isolate=True, hard_timeout=1.0,
        journal=RunJournal(tmp_path / "ckpt"),
    )
    assert [(o.key, o.status) for o in resumed] == [
        ("GOOD", "skipped"), ("HUNG", "ok"), ("CRASH", "ok")]
    assert _runs(marker_ok) == 1  # zero recomputation of the completed key
    assert _runs(marker_fixed) == 2
    assert resumed[0].table.rows == [{"x": 1.0}]  # prior table preserved
    assert all(o.ok for o in resumed)


def test_sigkill_mid_sweep_then_resume_zero_recomputation(tmp_path):
    """A worker SIGKILLed mid-sweep is journaled as crashed; a resume
    skips everything that completed before the kill."""
    marker = tmp_path / "runs.log"

    def counted():
        _mark(marker)
        return _table()

    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    journal_path = tmp_path / "ckpt"
    outcomes = run_experiments(
        {"A": counted, "KILLED": killed, "B": counted},
        isolate=True, journal=RunJournal(journal_path),
    )
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
    assert outcomes[1].failure.kind == "crashed"
    assert _runs(marker) == 2

    # the journal on disk (not just in memory) drives the resume
    records = load_journal_records(journal_path / "journal.jsonl")
    assert {r["key"] for r in records} == {"A", "KILLED", "B"}

    resumed = run_experiments(
        {"A": counted, "KILLED": counted, "B": counted},
        isolate=True, journal=RunJournal(journal_path),
    )
    assert [(o.key, o.status) for o in resumed] == [
        ("A", "skipped"), ("KILLED", "ok"), ("B", "skipped")]
    assert _runs(marker) == 3  # exactly one new execution


def test_journal_without_isolation(tmp_path):
    """Checkpointing also works for plain in-process sweeps."""
    def good():
        return _table()

    def bad():
        raise RuntimeError("soft failure")

    journal_path = tmp_path / "ckpt"
    run_experiments({"G": good, "BAD": bad},
                    journal=RunJournal(journal_path))
    resumed = run_experiments({"G": good, "BAD": good},
                              journal=RunJournal(journal_path))
    assert [(o.key, o.status) for o in resumed] == [
        ("G", "skipped"), ("BAD", "ok")]


def test_hard_timeout_requires_isolation():
    with pytest.raises(ValidationError, match="isolate"):
        run_experiments({"A": _table}, hard_timeout=1.0)


def _injected():
    raise FaultInjectedError("fault injected into this experiment")


def test_injected_hang_reaped_at_hard_deadline():
    start = time.monotonic()
    outcomes = run_experiments(
        {"H": hang}, isolate=True, hard_timeout=0.5,
    )
    assert time.monotonic() - start < REAP_CEILING
    assert outcomes[0].failure.kind == "timeout"


def test_injected_crash_recorded_and_sweep_continues():
    outcomes = run_experiments(
        {"C": hard_crash, "AFTER": _table}, isolate=True,
    )
    assert [o.status for o in outcomes] == ["failed", "ok"]
    assert outcomes[0].failure.kind == "crashed"


def test_injection_does_not_leak_to_other_keys():
    """A failing key never runs, or replaces, another key's body, and
    retries re-invoke the failing body."""
    seen = []

    def first():
        seen.append("first")
        _injected()

    def second():
        seen.append("second")
        return _table()

    outcomes = run_experiments(
        {"INJ": first, "REAL": second}, max_retries=1,
    )
    assert seen == ["first", "first", "second"]
    assert outcomes[0].failure.error_type == "FaultInjectedError"
    assert outcomes[0].attempts == 2  # retries re-invoke the failing body
    assert outcomes[1].status == "ok"


def test_summarize_outcomes_renders_skipped_and_kinds():
    failure = RunFailure(label="T", error_type="WorkerTimeoutError",
                         message="killed at deadline", traceback="",
                         elapsed=1.0, attempts=1, kind="timeout")
    rendered = summarize_outcomes([
        ExperimentOutcome(key="S", status="skipped", elapsed=0.5),
        ExperimentOutcome(key="T", status="failed", failure=failure),
    ]).render()
    assert "skipped" in rendered
    assert "failed/timeout" in rendered


# ---------------------------------------------------------------------------
# CLI integration


def test_cli_resume_requires_checkpoint(capsys):
    assert cli_main(["run", "F6", "--resume"]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_cli_rejects_nonpositive_hard_timeout(capsys):
    assert cli_main(["run", "F6", "--hard-timeout", "0"]) == 2
    assert "--hard-timeout" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--jobs", "-1"], ["--hard-timeout", "0"], ["--crash-retries", "-1"],
], ids=["jobs", "hard-timeout", "crash-retries"])
def test_cli_rejected_run_leaves_no_checkpoint_dir(tmp_path, capsys, flags):
    ckpt = tmp_path / "ckpt"
    assert cli_main(["run", "F6", "--checkpoint", str(ckpt), *flags]) == 2
    assert flags[0] in capsys.readouterr().err
    assert not ckpt.exists()


def test_cli_rejected_run_keeps_prior_journal(tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt")
    assert cli_main(["run", "F6", "--checkpoint", ckpt]) == 0
    journal = pathlib.Path(ckpt) / "journal.jsonl"
    before = journal.read_bytes()
    # without --resume a valid run would start the journal afresh; a
    # rejected one must not get that far
    assert cli_main(["run", "F6", "--checkpoint", ckpt, "--jobs", "-1"]) == 2
    assert journal.read_bytes() == before


def test_cli_isolated_crash_sweep(capsys, monkeypatch):
    monkeypatch.setitem(ALL_EXPERIMENTS, "F6", hard_crash)
    code = cli_main(["run", "F6", "--isolate", "--hard-timeout", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[crashed]" in captured.out
    assert "failed/crashed" in captured.out
    assert "WorkerCrashError" in captured.out


def test_cli_checkpoint_then_resume(tmp_path, capsys, monkeypatch):
    ckpt = str(tmp_path / "ckpt")
    with monkeypatch.context() as patch:
        patch.setitem(ALL_EXPERIMENTS, "F6", _injected)
        assert cli_main(["run", "F6", "--checkpoint", ckpt]) == 1
    assert "FaultInjectedError" in capsys.readouterr().out
    # first resume re-runs the failed key for real
    assert cli_main(["run", "F6", "--checkpoint", ckpt, "--resume"]) == 0
    assert "F6 completed in" in capsys.readouterr().out
    # second resume skips it entirely
    assert cli_main(["run", "F6", "--checkpoint", ckpt, "--resume"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "F6 completed in" not in out


def test_cli_keyboard_interrupt_exits_130(tmp_path, capsys, monkeypatch):
    ckpt = str(tmp_path / "ckpt")

    def good():
        return _table()

    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setattr(
        "repro.experiments.ALL_EXPERIMENTS",
        {"G1": good, "CTRLC": interrupt, "NEVER": good},
    )
    code = cli_main(["run", "all", "--checkpoint", ckpt])
    captured = capsys.readouterr()
    assert code == 130
    assert "interrupted" in captured.err
    assert "resume" in captured.err
    assert "run summary" in captured.out  # partial summary still printed
    assert "NEVER" not in captured.out
    # the journal holds the completed prefix, so a resume skips it
    records = load_journal_records(pathlib.Path(ckpt) / "journal.jsonl")
    assert [r["key"] for r in records] == ["G1"]
