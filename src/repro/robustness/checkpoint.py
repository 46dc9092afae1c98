"""Crash-safe run journal: checkpoint/resume for experiment sweeps.

A :class:`RunJournal` persists every completed
:class:`~repro.robustness.outcome.ExperimentOutcome` of a sweep as one JSON
record per line, through :mod:`repro.io`'s record primitive. Durability
without quadratic cost:

* every :meth:`~RunJournal.record` encodes its outcome once as a line
  sealed by :func:`~repro.io.seal`, **appends** it and ``fsync``\\ s it
  before returning, so a journal's writes grow linearly with its
  records. A crash — power loss, SIGKILL, OOM — at any instant loses at
  most the torn trailing line of the record being written;
* the whole file is rewritten by :func:`~repro.io.write_text_atomic`
  from the cached lines in only three cases: the first write after
  opening the journal (which drops a torn tail a killed predecessor
  left, and any superseded duplicates), healing from degraded mode, and
  :meth:`~RunJournal.consolidate`. Opening a journal sweeps the temp
  files of killed writers (:func:`~repro.io.sweep_stale_temps`);
* loading tolerates a **truncated trailing line**: the partial record
  is dropped with a warning and everything before it is kept.
  Corruption *before* the last line is refused loudly — that is not a
  torn write, and silently dropping completed work would cause the very
  recomputation the journal exists to avoid. A line that parses but
  fails :func:`~repro.io.unseal` is quarantined
  (:func:`~repro.io.quarantine`) and its key re-runs. Within one file
  the last record for a key wins.

``run_experiments(..., journal=...)`` consults the journal before each
experiment: a key whose prior outcome was ``"ok"`` is skipped (surfaced
as status ``"skipped"``, table preserved) and only failed or missing
keys execute. The CLI exposes this as ``run --checkpoint DIR`` /
``--resume``.

Parallel sweeps (:mod:`repro.robustness.pool`) add **per-worker
shards**: worker ``i`` journals its own outcomes to
``journal.worker-<i>.jsonl`` (same append discipline) *before*
reporting them, and loading a journal transparently merges any shards
next to it — an ``"ok"`` record always wins a conflict across files, so
a resume is correct regardless of which process died mid-write or in
which order workers finished. :meth:`RunJournal.consolidate` folds the
shards back into the main journal at the end of a clean sweep, and
deletes them only once the consolidated journal is on disk.
"""

from __future__ import annotations

import json
import pathlib

from ..exceptions import IntegrityError, ValidationError
from ..observability.logs import get_logger
from .outcome import ExperimentOutcome

__all__ = ["RunJournal", "canonical_summary", "load_journal_records"]

logger = get_logger("repro.robustness.checkpoint")

#: Default journal filename inside a ``--checkpoint`` directory.
JOURNAL_NAME = "journal.jsonl"


def load_journal_records(path):
    """Parse a JSONL journal, tolerating a truncated trailing line.

    Returns a list of dicts. A final line that is not valid JSON (torn
    write) is dropped with a warning; an invalid line anywhere else
    raises :class:`~repro.exceptions.ValidationError` because it means
    real corruption, not an interrupted append.

    Every :meth:`RunJournal.record` line is sealed
    (:func:`repro.io.seal`). A *parseable* line that fails
    :func:`repro.io.unseal` — bit rot, hand editing, or a record in an
    older envelope format — is quarantined (:func:`repro.io.quarantine`)
    and dropped, so its experiment is recomputed instead of trusted. A
    plain record with neither ``sha256`` nor ``payload`` (a hand-written
    fixture) loads as it is.
    """
    from ..io import quarantine, unseal  # lazy: io imports core
    from ..observability.registry import record as record_metric

    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    while lines and not lines[-1].strip():
        lines.pop()
    records = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = unseal(line)
        except IntegrityError as exc:
            try:
                record = json.loads(line)
            except ValueError as parse_exc:
                if line_no == len(lines):
                    logger.warning(
                        "%s:%d: dropping truncated trailing journal record "
                        "(torn write recovered)", path, line_no,
                    )
                    break
                raise ValidationError(
                    f"{path}:{line_no}: corrupt journal record "
                    f"({parse_exc}); only the trailing line may be "
                    "truncated"
                ) from parse_exc
            if isinstance(record, dict) and record.keys() & {"sha256",
                                                             "payload"}:
                record_metric("robustness.journal.integrity_quarantined")
                quarantine(path, str(exc), line=line_no, data=line)
                continue
        if not isinstance(record, dict):
            raise ValidationError(
                f"{path}:{line_no}: journal record must be a JSON object, "
                f"got {type(record).__name__}"
            )
        records.append(record)
    return records


#: Volatile (timing/host-dependent) fields excluded from the canonical
#: summary at both the outcome and failure level.
_VOLATILE_FIELDS = ("elapsed", "timings", "peak_kb", "spans")
_VOLATILE_FAILURE_FIELDS = ("elapsed", "traceback", "message")


def canonical_summary(records):
    """Deterministic byte string summarising a sweep's results.

    ``records`` is a list of outcome dicts (``ExperimentOutcome.
    to_dict()``; outcome objects are accepted too). The summary is the
    key-sorted JSON of every record with volatile fields (wall-clock
    timings, tracebacks, human messages embedding durations) removed —
    everything that *should* be identical between a serial sweep, a
    parallel one, and a killed-and-resumed one: keys, statuses, result
    tables, attempt and iteration counts, failure kinds and error
    types. Two sweeps are equivalent iff their summaries are
    byte-identical.
    """
    canonical = []
    for record in records:
        if hasattr(record, "to_dict"):
            record = record.to_dict()
        entry = {k: v for k, v in record.items()
                 if k not in _VOLATILE_FIELDS}
        if entry.get("status") == "skipped":
            entry["status"] = "ok"  # a resumed key is the same result
        failure = entry.get("failure")
        if isinstance(failure, dict):
            entry["failure"] = {
                k: v for k, v in failure.items()
                if k not in _VOLATILE_FAILURE_FIELDS and k != "context"
            }
        canonical.append(entry)
    canonical.sort(key=lambda entry: str(entry.get("key", "")))
    from ..io import dumps  # lazy: io -> core -> pipeline -> robustness

    return dumps(canonical, sort_keys=True).encode("utf-8")


def _encode(outcome):
    """One sealed journal line for ``outcome`` (span records live in the
    trace shards, not the journal)."""
    from ..io import seal  # lazy: io imports core

    rec = outcome.to_dict()
    rec.pop("spans", None)
    return seal(rec)


def _read_outcomes(path):
    """``{key: outcome}`` of one journal file; the last record wins."""
    outcomes = {}
    for record in load_journal_records(path):
        outcome = ExperimentOutcome.from_dict(record)
        outcomes[outcome.key] = outcome
    return outcomes


class RunJournal:
    """Append-only, resumable journal of experiment outcomes.

    Parameters
    ----------
    path : str or Path
        The journal file. A directory is accepted too — the journal
        becomes ``<dir>/journal.jsonl``. Missing parent directories are
        created.
    resume : bool
        When true (default) an existing journal is loaded (with
        torn-write recovery) and its outcomes are available via
        :attr:`outcomes`; when false any existing journal is discarded
        and the sweep starts clean.

    Later records for the same experiment key supersede earlier ones,
    so re-running a previously failed experiment overwrites its record.
    """

    def __init__(self, path, *, resume=True):
        path = pathlib.Path(path)
        if path.is_dir() or (not path.suffix and not path.exists()):
            path = path / JOURNAL_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        from ..io import sweep_stale_temps  # lazy: io imports core

        sweep_stale_temps(path.parent)
        self.path = path
        self._outcomes = {}
        #: key -> encoded line of its outcome, so a rewrite re-encodes
        #: only outcomes adopted from disk
        self._lines = {}
        self._degraded = False
        #: the next write rewrites the whole file instead of appending
        self._rewrite = True
        if resume:
            self._load()
        else:
            discarded = [p for p in (path, *self.shard_paths())
                         if p.exists()]
            for stale in discarded:
                stale.unlink()
            if discarded:
                logger.info("discarded prior journal %s (+%d shard(s); "
                            "fresh sweep)", path, len(discarded) - 1)

    # -- shards (parallel sweeps) ----------------------------------------

    def shard_path(self, slot):
        """Per-worker shard file for worker ``slot`` (same directory)."""
        stem = self.path.name[:-len(self.path.suffix)] or self.path.name
        return self.path.with_name(f"{stem}.worker-{int(slot)}{self.path.suffix}")

    def shard_paths(self):
        """Existing shard files next to this journal, sorted."""
        stem = self.path.name[:-len(self.path.suffix)] or self.path.name
        return sorted(self.path.parent.glob(
            f"{stem}.worker-*{self.path.suffix}"
        ))

    def _merge_shards(self, shards):
        """Adopt each shard's outcomes unless a conflicting ``"ok"``
        already won."""
        for shard in shards:
            for key, outcome in _read_outcomes(shard).items():
                prior = self._outcomes.get(key)
                if prior is not None and prior.status == "ok" \
                        and outcome.status != "ok":
                    continue
                self._outcomes[key] = outcome
                self._lines.pop(key, None)

    def _load(self):
        if self.path.exists():
            self._outcomes.update(_read_outcomes(self.path))
        shards = self.shard_paths()
        self._merge_shards(shards)
        if self._outcomes or shards:
            logger.info(
                "resumed journal %s: %d prior outcome(s), %d ok "
                "(%d shard(s) merged)", self.path, len(self._outcomes),
                len(self.completed_keys()), len(shards),
            )

    def consolidate(self):
        """Fold worker shards into the main journal, then remove them.

        Called by the pool at the end of a clean sweep so the directory
        is left with one canonical ``journal.jsonl``. Safe to call with
        no shards present. Returns the number of shards consumed. When
        the consolidated journal cannot be written (a full disk) the
        shards are kept — they are then the only durable copy of the
        work — and 0 is returned; a later ``RunJournal(path)`` still
        resumes every completed key from them.
        """
        shards = self.shard_paths()
        if not shards:
            return 0
        self._merge_shards(shards)
        if not self._flush():
            logger.error("kept %d shard(s) next to %s: the consolidated "
                         "journal did not reach disk", len(shards),
                         self.path)
            return 0
        for shard in shards:
            shard.unlink()
        logger.info("consolidated %d shard(s) into %s",
                    len(shards), self.path)
        return len(shards)

    # -- querying --------------------------------------------------------

    @property
    def outcomes(self):
        """Mapping of experiment key -> last recorded outcome (a copy)."""
        return dict(self._outcomes)

    def completed_keys(self):
        """Keys whose last recorded outcome succeeded (safe to skip)."""
        return {key for key, outcome in self._outcomes.items()
                if outcome.status == "ok"}

    def __len__(self):
        return len(self._outcomes)

    def __contains__(self, key):
        return key in self._outcomes

    # -- recording -------------------------------------------------------

    def record(self, outcome):
        """Persist one outcome durably: append its line, then ``fsync``.

        The outcome is encoded (and checksummed) once; its line is
        appended and ``fsync``\\ ed before this returns, so it is on disk
        before the caller reports it. The first write after opening the
        journal instead rewrites the whole file atomically, dropping any
        torn tail a killed predecessor left and any superseded records.

        A failing disk (ENOSPC, EIO) does not fail the sweep: the
        journal drops to in-memory-only *degraded* mode — outcomes stay
        queryable, a metric and log fire, and the next record retries
        the disk with a full atomic rewrite, so a recovered filesystem
        heals the journal with the full outcome set (nothing recorded
        while degraded is lost).
        """
        line = _encode(outcome)
        self._outcomes[outcome.key] = outcome
        self._lines[outcome.key] = line
        if self._rewrite:
            self._flush()
        else:
            from ..io import append_text_durable  # lazy: io imports core

            self._persist(append_text_durable, line)

    @property
    def degraded(self):
        """True while the last write failed and outcomes are held only
        in memory."""
        return self._degraded

    def _flush(self):
        """Atomically rewrite the whole journal; True once on disk."""
        from ..io import write_text_atomic  # lazy: io imports core

        for key, outcome in self._outcomes.items():
            if key not in self._lines:
                self._lines[key] = _encode(outcome)
        return self._persist(
            write_text_atomic,
            "".join(self._lines[key] for key in self._outcomes))

    def _persist(self, write, text):
        """``write(path, text)``, falling back to degraded mode on
        ``OSError``; True when the write reached disk."""
        from ..observability.registry import record

        try:
            write(self.path, text)
        except OSError as exc:
            record("robustness.journal.write_errors")
            record("robustness.journal.degraded", 1, kind="gauge")
            log = logger.error if not self._degraded else logger.warning
            log("journal write to %s failed (%s); outcomes held in "
                "memory until the disk recovers", self.path, exc)
            self._degraded = True
            self._rewrite = True  # a failed append may have left a torn tail
            return False
        self._rewrite = False
        if self._degraded:
            self._degraded = False
            record("robustness.journal.degraded", 0, kind="gauge")
            logger.info("journal %s healed; full outcome set rewritten",
                        self.path)
        return True

    def __repr__(self):
        return (f"RunJournal({str(self.path)!r}, {len(self)} outcome(s), "
                f"{len(self.completed_keys())} ok)")
