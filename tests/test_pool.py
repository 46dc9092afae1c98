"""The parallel sweep pool: equivalence, quarantine, crash-safe resume.

What must hold (ISSUE acceptance):

* a parallel sweep (``jobs=N``) is *equivalent* to a serial one — same
  keys, statuses, tables, seeds — byte-identical under
  ``canonical_summary``, including sweeps with failing and
  worker-killing experiments;
* an experiment that keeps crashing its worker trips the per-key
  circuit breaker after ``crash_retries`` reschedules and is
  quarantined, never starving the sweep;
* per-worker journal shards make ``--resume`` correct regardless of
  which process (worker or the driver itself) was SIGKILLed mid-write:
  completed keys are never recomputed and the merged journal matches
  the uninterrupted serial run byte for byte;
* Ctrl-C on the driver leaves no worker process behind (each worker is
  its own process group and is group-killed on the way out).

These tests kill real subprocesses; deadlines are kept small.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.__main__ import main as cli_main
from repro.exceptions import ValidationError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import ResultTable, run_experiments
from repro.robustness import (
    RunJournal,
    SharedDataset,
    canonical_summary,
    derive_seed,
    experiment_seed,
    load_journal_records,
    resolve_jobs,
    shared_arrays,
)
from tests.faults import FaultInjectedError, hang, hard_crash, oom

# generous wall-clock ceiling for "was killed promptly" assertions
REAP_CEILING = 10.0

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _table(name="t", **cells):
    table = ResultTable(name, list(cells) or ["x"])
    table.add(**(cells or {"x": 1.0}))
    return table


def _injected():
    raise FaultInjectedError("fault injected into this experiment")


def _mark(path):
    """Append one line to ``path`` — counts executions across processes."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("ran\n")
        fh.flush()
        os.fsync(fh.fileno())


def _runs(path):
    return len(path.read_text().splitlines()) if path.exists() else 0


def _wait_for(predicate, deadline=REAP_CEILING, poll=0.05):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


def _pid_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    return False


# -- deterministic seeding ------------------------------------------------


def test_derive_seed_depends_on_key_and_base_only():
    assert derive_seed("F9") == derive_seed("F9")
    assert derive_seed("F9") != derive_seed("F10")
    assert derive_seed("F9", 0) != derive_seed("F9", 1)
    assert 0 <= derive_seed("F9") < 2 ** 32


def test_experiment_seed_default_outside_sweep():
    assert experiment_seed() is None
    assert experiment_seed(default=7) == 7
    assert shared_arrays() == {}


def test_serial_and_parallel_install_the_same_seed():
    def seeded(key):
        def body():
            return _table("seed", seed=experiment_seed())
        return body

    grid = {k: seeded(k) for k in ("A", "B", "C")}
    serial = run_experiments(dict(grid), jobs=1, base_seed=5)
    pooled = run_experiments(dict(grid), jobs=2, base_seed=5)
    for outcome in (*serial, *pooled):
        assert outcome.table.rows == [
            {"seed": derive_seed(outcome.key, 5)}]


# -- shared-memory dataset ------------------------------------------------


def test_shared_dataset_round_trip():
    np = pytest.importorskip("numpy")
    X = np.arange(12.0).reshape(3, 4)
    with SharedDataset.create({"X": X}) as shared:
        descriptor = shared.descriptor()
        assert descriptor["X"]["shape"] == [3, 4]
        attached = SharedDataset.attach(descriptor)
        view = attached.arrays()["X"]
        assert np.array_equal(view, X)
        assert not view.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            view[0, 0] = 99.0
        attached.close()


def test_shared_data_reaches_pool_workers():
    np = pytest.importorskip("numpy")
    X = np.arange(6.0).reshape(2, 3)

    def total():
        return _table("sum", total=float(shared_arrays()["X"].sum()))

    outcomes = run_experiments({"S": total}, jobs=2, shared_data={"X": X})
    assert outcomes[0].table.rows == [{"total": 15.0}]


# -- jobs resolution ------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) == resolve_jobs(None)
    with pytest.raises(ValidationError):
        resolve_jobs(-1)
    with pytest.raises(ValidationError):
        run_experiments({}, jobs=-2)


# -- serial vs parallel equivalence ---------------------------------------


def test_parallel_sweep_equivalent_to_serial(tmp_path):
    """jobs=1 and jobs=4 produce byte-identical canonical summaries —
    and byte-identical merged journals — including injected faults."""
    def body(key):
        def run():
            return _table(key, seed=experiment_seed(), name=key)
        return run

    grid = {f"E{i}": body(f"E{i}") for i in range(6)}
    grid.update(E2=_injected, E4=hard_crash)

    serial = run_experiments(
        dict(grid), jobs=1, isolate=True,
        journal=RunJournal(tmp_path / "serial"), base_seed=3,
    )
    pooled = run_experiments(
        dict(grid), jobs=4,
        journal=RunJournal(tmp_path / "pooled"), base_seed=3,
    )
    assert canonical_summary(serial) == canonical_summary(pooled)
    assert [o.key for o in pooled] == list(grid)  # grid order restored

    serial_journal = load_journal_records(
        tmp_path / "serial" / "journal.jsonl")
    pooled_journal = load_journal_records(
        tmp_path / "pooled" / "journal.jsonl")
    assert canonical_summary(serial_journal) == \
        canonical_summary(pooled_journal)


def test_in_process_sweep_equivalent_to_pool(tmp_path):
    """The in-process path (jobs=1, no isolate) matches jobs=4 byte for
    byte — summaries and merged journals — with a catchable fault (a
    hard one would kill the test process itself)."""
    def body(key):
        def run():
            return _table(key, seed=experiment_seed(), name=key)
        return run

    grid = {f"E{i}": body(f"E{i}") for i in range(6)}
    grid["E2"] = _injected

    in_process = run_experiments(
        dict(grid), jobs=1,
        journal=RunJournal(tmp_path / "in_process"), base_seed=3,
    )
    pooled = run_experiments(
        dict(grid), jobs=4,
        journal=RunJournal(tmp_path / "pooled"), base_seed=3,
    )
    assert canonical_summary(in_process) == canonical_summary(pooled)
    in_process_journal = load_journal_records(
        tmp_path / "in_process" / "journal.jsonl")
    pooled_journal = load_journal_records(
        tmp_path / "pooled" / "journal.jsonl")
    assert canonical_summary(in_process_journal) == \
        canonical_summary(pooled_journal)


def test_pool_resume_skips_completed_keys(tmp_path):
    marker = tmp_path / "runs.log"

    def counted(key):
        def run():
            _mark(marker)
            return _table(key)
        return run

    grid = {f"E{i}": counted(f"E{i}") for i in range(5)}
    first = run_experiments(dict(grid), jobs=3,
                            journal=RunJournal(tmp_path / "ckpt"))
    assert _runs(marker) == 5
    # a clean sweep consolidates the shards into one journal
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == \
        ["journal.jsonl"]

    resumed = run_experiments(dict(grid), jobs=3,
                              journal=RunJournal(tmp_path / "ckpt"))
    assert all(o.status == "skipped" for o in resumed)
    assert _runs(marker) == 5  # zero recomputation
    assert canonical_summary(first) == canonical_summary(resumed)


@pytest.mark.parametrize("jobs", [1, 2])
def test_deadline_counts_from_the_call(tmp_path, jobs):
    """Deadlines are pinned when run_experiments is called: time spent
    streaming resumed keys to the callback counts against them."""
    grid = {"A": lambda: _table("a"), "B": lambda: _table("b")}
    run_experiments({"A": grid["A"]}, journal=RunJournal(tmp_path / "ckpt"))

    def slow_on_skipped(outcome):
        if outcome.status == "skipped":
            time.sleep(0.5)

    outcomes = run_experiments(
        dict(grid), jobs=jobs, journal=RunJournal(tmp_path / "ckpt"),
        deadlines={"B": 0.2}, callback=slow_on_skipped,
    )
    by_key = {o.key: o for o in outcomes}
    assert by_key["A"].status == "skipped"
    assert by_key["B"].status == "failed"
    assert by_key["B"].failure.context["deadline_expired"] is True


# -- crash quarantine (the per-key circuit breaker) -----------------------


def test_crash_quarantine_after_retries(tmp_path):
    marker = tmp_path / "crashes.log"

    def crasher():
        _mark(marker)
        hard_crash()

    outcomes = run_experiments(
        {"GOOD": lambda: _table("g"), "BAD": crasher},
        jobs=2, crash_retries=2,
    )
    by_key = {o.key: o for o in outcomes}
    assert by_key["GOOD"].status == "ok"
    bad = by_key["BAD"]
    assert bad.status == "failed"
    assert bad.failure.kind == "crashed"
    assert bad.failure.context["signal"] == "SIGKILL"
    assert bad.failure.context["crashes"] == 3
    assert bad.failure.context["quarantined"] is True
    assert "[quarantined]" in str(bad.failure)
    assert _runs(marker) == 3  # initial run + exactly crash_retries


def test_crash_without_retries_fails_once(tmp_path):
    marker = tmp_path / "crashes.log"

    def crasher():
        _mark(marker)
        hard_crash()

    outcomes = run_experiments({"BAD": crasher}, isolate=True,
                               crash_retries=0)
    assert outcomes[0].failure.kind == "crashed"
    assert _runs(marker) == 1


def test_pool_hang_reaped_at_hard_deadline():
    def hung():
        hang(seconds=60.0)

    start = time.monotonic()
    outcomes = run_experiments(
        {"H": hung, "OK": lambda: _table("ok")}, jobs=2, hard_timeout=1.0,
    )
    assert time.monotonic() - start < REAP_CEILING
    by_key = {o.key: o for o in outcomes}
    assert by_key["H"].failure.kind == "timeout"
    assert by_key["H"].failure.error_type == "WorkerTimeoutError"
    assert by_key["OK"].status == "ok"  # the hang never stalled the grid


def test_oom_fault_is_contained_by_the_pool():
    def memory_hog():
        oom(limit_mb=64)

    outcomes = run_experiments(
        {"OOM": memory_hog, "OK": lambda: _table("ok")}, jobs=2,
    )
    by_key = {o.key: o for o in outcomes}
    assert by_key["OOM"].status == "failed"
    assert by_key["OOM"].failure.kind == "crashed"
    assert by_key["OOM"].failure.context["signal"] == "SIGKILL"
    assert by_key["OK"].status == "ok"


def test_grandchild_dies_with_its_worker(tmp_path):
    """Group-wide reaping: a subprocess the experiment spawned does not
    outlive the worker that crashed under it."""
    pidfile = tmp_path / "grandchild.pid"

    def spawner():
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        pidfile.write_text(str(proc.pid))
        hard_crash()

    outcomes = run_experiments({"SPAWN": spawner}, isolate=True)
    assert outcomes[0].failure.kind == "crashed"
    grandchild = int(pidfile.read_text())
    assert _wait_for(lambda: _pid_gone(grandchild)), \
        f"grandchild {grandchild} survived the group reap"


# -- journal shards -------------------------------------------------------


def _outcome_dict(key, status="ok"):
    return {"key": key, "status": status, "table": None, "failure": None,
            "elapsed": 0.1, "attempts": 1, "iterations": 0,
            "timings": None, "peak_kb": None}


def test_journal_merges_worker_shards(tmp_path):
    from repro.experiments.harness import ExperimentOutcome

    main = tmp_path / "journal.jsonl"
    journal = RunJournal(main)
    journal.record(ExperimentOutcome.from_dict(_outcome_dict("A")))

    shard = RunJournal(journal.shard_path(3))
    shard.record(ExperimentOutcome.from_dict(_outcome_dict("B")))
    assert journal.shard_path(3).name == "journal.worker-3.jsonl"

    merged = RunJournal(main)
    assert set(merged.outcomes) == {"A", "B"}
    assert merged.completed_keys() == {"A", "B"}


def test_journal_shard_merge_ok_wins_conflicts(tmp_path):
    """A key journaled ok in a shard but crashed in the main journal
    (worker recorded, then died before reporting) resumes as done."""
    from repro.experiments.harness import ExperimentOutcome

    main = tmp_path / "journal.jsonl"
    journal = RunJournal(main)
    journal.record(ExperimentOutcome.from_dict(
        _outcome_dict("K", status="failed")))

    shard = RunJournal(journal.shard_path(0))
    shard.record(ExperimentOutcome.from_dict(_outcome_dict("K")))

    merged = RunJournal(main)
    assert merged.outcomes["K"].status == "ok"


def test_journal_consolidate_folds_and_removes_shards(tmp_path):
    from repro.experiments.harness import ExperimentOutcome

    journal = RunJournal(tmp_path / "journal.jsonl")
    for slot, key in enumerate(("A", "B")):
        shard = RunJournal(journal.shard_path(slot))
        shard.record(ExperimentOutcome.from_dict(_outcome_dict(key)))
    assert len(journal.shard_paths()) == 2
    assert journal.consolidate() == 2
    assert journal.shard_paths() == []
    on_disk = load_journal_records(tmp_path / "journal.jsonl")
    assert {r["key"] for r in on_disk} == {"A", "B"}


def test_journal_fresh_start_discards_shards_too(tmp_path):
    from repro.experiments.harness import ExperimentOutcome

    journal = RunJournal(tmp_path / "journal.jsonl")
    shard = RunJournal(journal.shard_path(0))
    shard.record(ExperimentOutcome.from_dict(_outcome_dict("A")))

    fresh = RunJournal(tmp_path / "journal.jsonl", resume=False)
    assert len(fresh) == 0
    assert fresh.shard_paths() == [shard.path]  # discarded at the start
    fresh.begin()
    assert fresh.shard_paths() == []


def test_fresh_pooled_run_discards_stale_shards_before_workers(tmp_path):
    # a worker opens its shard resuming; were the stale shards still
    # there, it would adopt their outcomes and the run would report them
    from repro.experiments.harness import ExperimentOutcome

    prior = RunJournal(tmp_path)
    prior.record(ExperimentOutcome.from_dict(_outcome_dict("X")))
    for slot in (0, 1):
        RunJournal(prior.shard_path(slot)).record(
            ExperimentOutcome.from_dict(_outcome_dict("X")))

    outcomes = run_experiments({"Y": lambda: _table("y")}, jobs=2,
                               journal=RunJournal(tmp_path, resume=False))

    assert [o.key for o in outcomes] == ["Y"]
    assert RunJournal(tmp_path).completed_keys() == {"Y"}
    assert prior.shard_paths() == []


def test_canonical_summary_strips_volatile_fields():
    a = _outcome_dict("K")
    b = _outcome_dict("K")
    b["elapsed"] = 99.9
    b["timings"] = {"fit": 1.0}
    b["peak_kb"] = 123.0
    assert canonical_summary([a]) == canonical_summary([b])
    b["status"] = "skipped"
    assert canonical_summary([a]) == canonical_summary([b])  # resumed == ok
    b["status"] = "failed"
    assert canonical_summary([a]) != canonical_summary([b])


# -- killing the driver itself --------------------------------------------


_DRIVER = textwrap.dedent("""\
    import os, sys, time
    sys.path.insert(0, {src!r})
    from repro.experiments.harness import ResultTable, run_experiments

    TMP = {tmp!r}

    def quick(key):
        def body():
            with open(os.path.join(TMP, key + ".ran"), "a") as fh:
                fh.write("ran\\n")
            table = ResultTable(key, ["x"])
            table.add(x=1.0)
            return table
        return body

    def slow():
        with open(os.path.join(TMP, "worker.pid"), "w") as fh:
            fh.write(str(os.getpid()))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:   # killed long before this
            time.sleep(0.05)
        table = ResultTable("SLOW", ["x"])
        table.add(x=1.0)
        return table

    grid = {{"SLOW": slow}}
    grid.update({{k: quick(k) for k in ("E1", "E2", "E3", "E4")}})
    try:
        run_experiments(grid, jobs=2, journal=os.path.join(TMP, "ckpt"),
                        base_seed=11)
    except KeyboardInterrupt:
        sys.exit(130)
""")


def _launch_driver(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER.format(src=_SRC, tmp=str(tmp_path)))
    return subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _reap_leftover_worker(tmp_path):
    pidfile = tmp_path / "worker.pid"
    if not pidfile.exists():
        return None
    pid = int(pidfile.read_text())
    try:
        os.killpg(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass
    return pid


def test_driver_sigkill_then_resume_recomputes_nothing(tmp_path):
    """SIGKILL the *driver* mid-sweep: whatever the worker shards
    recorded survives, and a resume completes the sweep to the exact
    byte-identical summary of an uninterrupted serial run."""
    def quick(key):
        def body():
            _mark(tmp_path / f"{key}.ran")
            return _table(key, x=1.0)
        return body

    grid_keys = ("SLOW", "E1", "E2", "E3", "E4")
    ckpt = tmp_path / "ckpt"

    driver = _launch_driver(tmp_path)
    try:
        # wait until at least two quick keys are durably journaled
        def journaled_ok():
            if not ckpt.exists():
                return False
            done = set()
            for shard in sorted(ckpt.glob("journal*.jsonl")):
                try:
                    done |= {r["key"] for r in load_journal_records(shard)
                             if r["status"] == "ok"}
                except Exception:
                    return False
            return len(done) >= 2
        assert _wait_for(journaled_ok, deadline=3 * REAP_CEILING), \
            "driver never journaled two completed keys"
        os.kill(driver.pid, signal.SIGKILL)
        driver.wait(timeout=REAP_CEILING)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        _reap_leftover_worker(tmp_path)

    done_before = {r["key"]
                   for shard in sorted(ckpt.glob("journal*.jsonl"))
                   for r in load_journal_records(shard)
                   if r["status"] == "ok"}
    counts_before = {k: _runs(tmp_path / f"{k}.ran") for k in grid_keys}

    # resume in this process (same grid semantics, SLOW now instant)
    grid = {"SLOW": quick("SLOW")}
    grid.update({k: quick(k) for k in ("E1", "E2", "E3", "E4")})
    resumed = run_experiments(dict(grid), jobs=2, journal=RunJournal(ckpt),
                              base_seed=11)
    assert all(o.ok for o in resumed)
    for key in done_before:  # zero recomputation of journaled keys
        assert _runs(tmp_path / f"{key}.ran") == counts_before[key], key
    skipped = {o.key for o in resumed if o.status == "skipped"}
    assert done_before <= skipped

    # byte-identical to an uninterrupted serial sweep
    reference = run_experiments(dict(grid), jobs=1, base_seed=11)
    assert canonical_summary(resumed) == canonical_summary(reference)
    merged = load_journal_records(ckpt / "journal.jsonl")
    assert canonical_summary(merged) == canonical_summary(reference)


def test_driver_sigint_leaves_no_worker_behind(tmp_path):
    """Ctrl-C: the driver exits 130 and the worker process (its own
    process group) is gone — no orphan outlives the sweep."""
    driver = _launch_driver(tmp_path)
    pidfile = tmp_path / "worker.pid"
    try:
        assert _wait_for(pidfile.exists, deadline=3 * REAP_CEILING), \
            "worker never started"
        worker_pid = int(pidfile.read_text())
        assert not _pid_gone(worker_pid)
        os.kill(driver.pid, signal.SIGINT)
        assert driver.wait(timeout=REAP_CEILING) == 130
        assert _wait_for(lambda: _pid_gone(worker_pid)), \
            f"worker {worker_pid} survived the driver's Ctrl-C"
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        _reap_leftover_worker(tmp_path)


_PID_SWEEP = textwrap.dedent("""\
    import os, sys, time
    sys.path.insert(0, {src!r})
    from repro.experiments.harness import ResultTable, run_experiments

    TMP = {tmp!r}

    def record_pid():
        with open(os.path.join(TMP, "pids.log"), "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")

    def quick(key):
        def body():
            record_pid()
            with open(os.path.join(TMP, key + ".ran"), "a") as fh:
                fh.write("ran\\n")
            table = ResultTable(key, ["x"])
            table.add(x=1.0)
            return table
        return body

    def slow():
        record_pid()
        with open(os.path.join(TMP, "worker.pid"), "w") as fh:
            fh.write(str(os.getpid()))
        time.sleep(60.0)  # killed long before this

    grid = {{"SLOW": slow}}
    grid.update({{k: quick(k) for k in ("E1", "E2", "E3", "E4")}})
    run_experiments(grid, jobs=2)
""")


def test_no_worker_outlives_a_sigkilled_parent(tmp_path):
    """SIGKILL the sweep parent while one worker is busy and the other idle:
    once the busy worker's group is reaped, every worker is gone. An
    idle worker must notice its parent died even though, under fork, it
    holds the parent's end of its own pipe and never sees EOF."""
    script = tmp_path / "sweep.py"
    script.write_text(_PID_SWEEP.format(src=_SRC, tmp=str(tmp_path)))
    parent = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    quick_done = [tmp_path / f"{k}.ran" for k in ("E1", "E2", "E3", "E4")]
    try:
        assert _wait_for(
            lambda: (tmp_path / "worker.pid").exists()
            and all(path.exists() for path in quick_done),
            deadline=3 * REAP_CEILING), "the sweep never ran its grid"
        os.kill(parent.pid, signal.SIGKILL)
        parent.wait(timeout=REAP_CEILING)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        _reap_leftover_worker(tmp_path)
    pids = {int(line) for line in
            (tmp_path / "pids.log").read_text().split()}
    assert len(pids) == 2  # the SLOW worker and the idle one
    try:
        assert _wait_for(lambda: all(_pid_gone(pid) for pid in pids)), \
            f"workers {sorted(pid for pid in pids if not _pid_gone(pid))} " \
            "outlived their SIGKILLed parent"
    finally:
        for pid in pids:
            if not _pid_gone(pid):
                os.kill(pid, signal.SIGKILL)


# -- CLI ------------------------------------------------------------------


def test_cli_jobs_runs_the_pool(capsys):
    assert cli_main(["run", "T1", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "completed" in out


def test_cli_rejects_negative_jobs(capsys):
    assert cli_main(["run", "F6", "--jobs", "-1"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_rejects_negative_crash_retries(capsys):
    assert cli_main(["run", "F6", "--crash-retries", "-1"]) == 2
    assert "--crash-retries" in capsys.readouterr().err


def test_cli_hard_inject_modes_allowed_with_jobs(capsys, monkeypatch):
    """A worker-killing experiment under --jobs N is contained by the
    pool: exit 1 with a crashed outcome, no --isolate needed."""
    monkeypatch.setitem(ALL_EXPERIMENTS, "T1", hard_crash)
    assert cli_main(["run", "T1", "--jobs", "2"]) == 1
    out = capsys.readouterr().out
    assert "crashed" in out
