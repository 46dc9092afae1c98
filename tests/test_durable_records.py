"""The durable-record primitive in ``repro.io`` and its callers.

* ``seal`` / ``unseal``: strict-JSON payloads round-trip, and any single
  flipped byte of a sealed line is refused (property tests; the run
  journal and the model registry share the envelope, so this covers
  both);
* the upgrade path: records in the previous envelope format (a
  registry entry ``{"payload", "sha256"}`` and a journal line with an
  in-band ``"sha256"``, both checksummed over canonical JSON) are
  quarantined and recomputed, while a checksum-less hand-written journal
  record still loads;
* stale temp files: a journal rewrite SIGKILLed before its rename
  leaves a temp file that the next ``RunJournal`` sweeps away;
* user-facing files (``save_json``, the chaos report) are replaced
  atomically: a failed rewrite keeps the old bytes.
"""

import errno
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IntegrityError
from repro.experiments.harness import (
    ExperimentOutcome,
    ResultTable,
    run_experiments,
)
from repro.io import (
    dumps,
    encode_value,
    save_json,
    seal,
    sweep_stale_temps,
    unseal,
)
from repro.robustness import RunJournal
from repro.serve import JobScheduler, ModelRegistry

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "chaos.py"
_spec = importlib.util.spec_from_file_location("chaos", _TOOL)
chaos = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chaos)

pytestmark = pytest.mark.filterwarnings("ignore")

# -- seal / unseal -----------------------------------------------------------

_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text())
_nonfinite = st.sampled_from([math.nan, math.inf, -math.inf]).map(
    encode_value)
payloads = st.recursive(
    _scalars | _nonfinite,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(payloads)
def test_sealed_payloads_round_trip(payload):
    line = seal(payload)
    assert line.endswith("}\n") and line.count("\n") == 1
    assert unseal(line) == payload
    assert unseal(line.encode("utf-8").rstrip(b"\n")) == payload


@settings(max_examples=300, deadline=None)
@given(payloads, st.data())
def test_any_single_byte_flip_is_refused(payload, data):
    line = bytearray(seal(payload).encode("utf-8"))
    pos = data.draw(st.integers(0, len(line) - 1), label="pos")
    line[pos] ^= data.draw(st.integers(1, 255), label="mask")
    with pytest.raises(IntegrityError):
        unseal(bytes(line))


# -- upgrade path: the previous envelope format is recomputed ----------------


def _canonical_checksum(payload):
    """The previous format's checksum: sha256 of sorted-key JSON."""
    return hashlib.sha256(
        dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _dataset():
    rng = np.random.default_rng(5)
    return np.concatenate([rng.normal(size=(30, 3)),
                           rng.normal(size=(30, 3)) + 6.0])


def _finish(scheduler, job, timeout=60):
    deadline = time.time() + timeout
    while scheduler.get_job(job.id).status not in ("done", "failed"):
        assert time.time() < deadline, f"{job.id} did not finish"
        time.sleep(0.01)
    assert scheduler.get_job(job.id).status == "done"


def test_old_format_registry_entry_is_quarantined_and_refit(tmp_path):
    registry = ModelRegistry(tmp_path)
    scheduler = JobScheduler(registry, jobs=1, queue_limit=4).start()
    try:
        request = ("KMeans", _dataset(), {"n_clusters": 2})
        first = scheduler.submit(*request, seed=5)
        _finish(scheduler, first)
        path = tmp_path / f"{first.key}.json"
        payload = unseal(path.read_bytes())
        path.write_text(dumps({"payload": payload,
                               "sha256": _canonical_checksum(payload)},
                              sort_keys=True) + "\n", encoding="utf-8")

        again = scheduler.submit(*request, seed=5)
        assert again.key == first.key
        assert again.cached is False  # the old entry is not a hit
        _finish(scheduler, again)
    finally:
        scheduler.shutdown(drain=False, timeout=10)
    [record] = registry.quarantined()
    assert record["key"] == first.key
    assert "missing integrity envelope" in record["reason"]
    assert (registry.quarantine_dir() / f"{first.key}.json").exists()
    refit = unseal(path.read_bytes())  # the refit is stored sealed
    assert refit["estimator"] == "KMeans"
    assert refit["model"]["class"] == "KMeans"
    assert registry.get(first.key) == refit


def _table():
    table = ResultTable("t", ["x"])
    table.add(x=1.0)
    return table


def test_old_format_journal_line_is_quarantined_and_reruns(tmp_path):
    old = ExperimentOutcome(key="OLD", status="ok", table=_table()).to_dict()
    old.pop("spans", None)
    old["sha256"] = _canonical_checksum(old)
    old_line = dumps(old)
    hand_written = {"key": "HAND", "status": "ok"}
    (tmp_path / "journal.jsonl").write_text(
        old_line + "\n" + json.dumps(hand_written) + "\n", encoding="utf-8")

    ran = []

    def experiment(key):
        def run():
            ran.append(key)
            return _table()
        return run

    outcomes = run_experiments(
        {key: experiment(key) for key in ("OLD", "HAND")},
        journal=RunJournal(tmp_path))
    assert ran == ["OLD"]
    assert [(o.key, o.status) for o in outcomes] == [
        ("OLD", "ok"), ("HAND", "skipped")]
    qdir = tmp_path / "quarantine"
    assert (qdir / "journal.jsonl.line-1").read_text(
        encoding="utf-8") == old_line + "\n"
    error = json.loads(
        (qdir / "journal.jsonl.line-1.error.json").read_text())
    assert error["error"] == "IntegrityError"
    assert error["line"] == 1
    assert "missing integrity envelope" in error["reason"]
    assert RunJournal(tmp_path).completed_keys() == {"OLD", "HAND"}


# -- stale temp files ---------------------------------------------------------


def _record_with_stalled_replace(journal_dir, ready):
    def stall(src, dst):
        ready.set()
        time.sleep(60)

    os.replace = stall  # this forked child only
    RunJournal(journal_dir).record(ExperimentOutcome(key="A", status="ok"))


def test_sigkill_mid_rewrite_leaves_journal_temp_swept(tmp_path):
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    victim = ctx.Process(target=_record_with_stalled_replace,
                         args=(str(tmp_path), ready))
    victim.start()
    assert ready.wait(timeout=30)
    assert list(tmp_path.glob(".*.tmp-*"))  # the rewrite's temp file
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert victim.exitcode == -signal.SIGKILL

    journal = RunJournal(tmp_path)
    journal.record(ExperimentOutcome(key="B", status="ok"))
    assert list(tmp_path.glob("*.tmp-*")) == []
    assert RunJournal(tmp_path).completed_keys() == {"B"}


def test_sweep_spares_a_live_writers_temp(tmp_path):
    live = tmp_path / f".x.json.tmp-{os.getpid()}-1"
    live.write_text("in flight")
    sweep_stale_temps(tmp_path)
    assert live.exists()


# -- user-facing files are replaced atomically ---------------------------------


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("write", [
    lambda path, n: save_json(np.arange(n), path),
    lambda path, n: chaos.write_report({"scenarios": list(range(n))}, path),
], ids=["save_json", "write_report"])
def test_failed_rewrite_keeps_old_bytes(tmp_path, monkeypatch, write):
    path = tmp_path / "out.json"
    write(path, 2)
    old = path.read_bytes()
    monkeypatch.setattr(os, "fsync", _enospc)
    with pytest.raises(OSError):
        write(path, 3)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # no temp file left
