"""Disk-backed model registry: fitted estimators keyed by request identity.

A served model is identified by :func:`model_key` — the SHA-256 of the
canonical JSON of ``(dataset fingerprint, estimator class, params,
seed)`` — so two requests asking the same question about the same bytes
share one cache entry, and *any* difference (one more sample, one
changed param, another seed) yields a different key.

The registry is deliberately *process-dumb*: one ``<key>.json`` file
per model, written through the record primitive of :mod:`repro.io`
like :class:`~repro.robustness.RunJournal`, so

* concurrent writers of the same key race safely (the last atomic
  replace wins; readers only ever see a complete file);
* a writer killed mid-write leaves only a dot-prefixed temp file that
  the next :class:`ModelRegistry` construction sweeps away
  (:func:`repro.io.sweep_stale_temps`);
* pool workers and the HTTP front-end coordinate through the filesystem
  alone — no shared in-process state is required for correctness.

LRU accounting also lives in the filesystem: ``get`` bumps the file's
mtime, and ``put`` evicts the oldest entries beyond ``max_entries``.

Two self-healing layers sit on top (see ``docs/robustness.md``):

* **integrity** — every entry is one :func:`repro.io.seal` line, and
  every load verifies it with :func:`repro.io.unseal`. An entry that
  fails to read or to verify is *quarantined* by
  :func:`repro.io.quarantine` (moved to ``<cache>/quarantine/`` next to
  a structured ``IntegrityError`` record) and reported as a miss, so a
  bit-flipped cache entry costs a refit, never a wrong answer;
* **degraded in-memory mode** — an ``OSError`` during a cache write
  (ENOSPC, EIO, or the optional ``max_bytes`` size cap) switches the
  cache directory into in-memory-only mode: the payload lands in a
  process-local overlay, a metric/log fires, and the service keeps
  answering. The next successful disk write heals the mode and flushes
  the overlay back to disk.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import pathlib
import re
import threading

import numpy as np

from ..exceptions import IntegrityError, ValidationError
from ..io import (
    QUARANTINE_DIR,
    dumps,
    encode_value,
    quarantine,
    seal,
    sweep_stale_temps,
    unseal,
    write_text_atomic,
)
from ..observability.logs import get_logger
from ..observability.registry import record

__all__ = ["ModelRegistry", "coerce_given_labels", "dataset_fingerprint",
           "model_key"]

logger = get_logger("repro.serve.registry")

_KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: Process-local overlay for cache dirs whose disk writes failed:
#: ``{(cache_dir, key): payload}``. Shared by every ModelRegistry
#: instance in the process (fit closures construct transient
#: instances), guarded by :data:`_MEMORY_LOCK`.
_MEMORY = {}
_DEGRADED_DIRS = set()
_MEMORY_LOCK = threading.Lock()


def coerce_given_labels(given):
    """``given`` as a contiguous int64 label vector, or raise.

    Label vectors are integral by definition; a lossy cast here would
    let two *different* requests (e.g. ``[0.4, ...]`` vs ``[0.1, ...]``)
    truncate to the same fingerprint and serve each other's cached
    models. Callers must fit with exactly the array that was
    fingerprinted, so both the scheduler and
    :func:`dataset_fingerprint` go through this one coercion.
    """
    arr = np.asarray(given)
    if arr.dtype.kind in "iub":
        return np.ascontiguousarray(arr, dtype=np.int64)
    try:
        with np.errstate(invalid="ignore"):  # NaN cast is rejected below
            as_int = arr.astype(np.int64)
            lossless = bool(np.array_equal(as_int, arr))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"given must be an integer label vector, got dtype "
            f"{arr.dtype!s}") from exc
    if not lossless:
        raise ValidationError(
            "given must be an integer label vector; got non-integral "
            "values")
    return np.ascontiguousarray(as_int)


def dataset_fingerprint(X, given=None):
    """Content hash of a dataset (and optional given labels).

    The fingerprint covers dtype-normalised bytes and shape, so any
    change to a single value, the sample count, or the given knowledge
    produces a different fingerprint — and therefore a different cache
    identity. ``given`` must be integral (see
    :func:`coerce_given_labels`).
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(b"repro.dataset.v1:")
    digest.update(repr(X.shape).encode("ascii"))
    digest.update(X.tobytes())
    if given is not None:
        given = coerce_given_labels(given)
        digest.update(b":given:")
        digest.update(repr(given.shape).encode("ascii"))
        digest.update(given.tobytes())
    return digest.hexdigest()


def model_key(fingerprint, estimator, params, seed):
    """Cache key for one (dataset, estimator, params, seed) request.

    ``params`` go through :func:`repro.io.encode_value` and canonical
    (sorted-key) JSON, so order-insensitive but value-sensitive.
    """
    identity = {
        "fingerprint": str(fingerprint),
        "estimator": str(estimator),
        "params": {str(k): encode_value(v) for k, v in params.items()},
        "seed": None if seed is None else int(seed),
    }
    blob = dumps(identity, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ModelRegistry:
    """LRU cache of model payloads as atomic per-key JSON files.

    Parameters
    ----------
    cache_dir : path-like — created if missing.
    max_entries : int — cap on stored models; ``put`` evicts the
        least-recently-used entries beyond it.
    max_bytes : int or None — optional cap on the cache directory's
        total size. A write that would exceed it fails with ``ENOSPC``
        exactly like a full disk — and therefore degrades to in-memory
        mode instead of crashing the service (the chaos harness uses
        this to rehearse disk-full without filling a real disk).
    """

    def __init__(self, cache_dir, max_entries=256, max_bytes=None):
        if int(max_entries) < 1:
            raise ValidationError("max_entries must be >= 1")
        if max_bytes is not None and int(max_bytes) < 1:
            raise ValidationError("max_bytes must be >= 1 when set")
        self.cache_dir = pathlib.Path(cache_dir)
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._lock = threading.Lock()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        sweep_stale_temps(self.cache_dir)

    @property
    def _dir_key(self):
        return str(self.cache_dir.resolve())

    @property
    def degraded(self):
        """True while this cache directory is in in-memory-only mode."""
        with _MEMORY_LOCK:
            return self._dir_key in _DEGRADED_DIRS

    def memory_entries(self):
        """Number of payloads held only in the in-memory overlay."""
        with _MEMORY_LOCK:
            return sum(1 for d, _ in _MEMORY if d == self._dir_key)

    def _path(self, key):
        key = str(key)
        if not _KEY_RE.match(key):
            raise ValidationError(f"malformed model key {key!r}")
        return self.cache_dir / f"{key}.json"

    def _dir_usage_bytes(self):
        """Total size of everything in the cache dir (quarantine too —
        disk full is disk full, whatever the bytes are)."""
        total = 0
        for path in self.cache_dir.rglob("*"):
            with contextlib.suppress(OSError):  # repro: noqa[RL011] - racing unlink/evict: a vanished file contributes 0
                if path.is_file():
                    total += path.stat().st_size
        return total

    def put(self, key, payload):
        """Store ``payload`` under ``key`` durably — or in memory.

        The entry is one line sealed by :func:`~repro.io.seal` and
        written by :func:`~repro.io.write_text_atomic`: a concurrent
        reader sees either the old complete entry or the new complete
        one, never a torn file, a crash mid-write changes nothing, and
        every future load can verify it.

        An ``OSError`` during the write — real ENOSPC/EIO, or the
        simulated ENOSPC of an exceeded ``max_bytes`` cap — does not
        propagate: the payload lands in the process-local in-memory
        overlay, the directory enters *degraded* mode
        (``serve.cache.degraded`` gauge, ``serve.cache.write_errors``
        counter), and the service keeps running. The next successful
        disk write heals the mode and flushes the overlay.
        """
        path = self._path(key)
        line = seal(payload)
        try:
            if self.max_bytes is not None:
                needed = self._dir_usage_bytes() + len(line)
                if needed > self.max_bytes:
                    raise OSError(  # repro: noqa[RL016] - simulated ENOSPC: the cap must trip the same degraded path a real full disk does
                        errno.ENOSPC,
                        f"cache size cap exceeded ({needed} > "
                        f"{self.max_bytes} bytes)", str(path))
            write_text_atomic(path, line)
        except OSError as exc:
            self._enter_degraded(key, payload, exc)
            return key
        self._heal_degraded()
        self._evict()
        return key

    def _enter_degraded(self, key, payload, exc):
        """Adopt ``payload`` into the in-memory overlay after a failed
        disk write; flips the directory into degraded mode."""
        with _MEMORY_LOCK:
            fresh = self._dir_key not in _DEGRADED_DIRS
            _DEGRADED_DIRS.add(self._dir_key)
            _MEMORY[(self._dir_key, str(key))] = payload
        record("serve.cache.write_errors")
        record("serve.cache.degraded", 1, kind="gauge")
        log = logger.error if fresh else logger.warning
        log("cache write for %s failed (%s); serving from memory only "
            "until the disk recovers", key, exc)

    def _heal_degraded(self):
        """After a successful disk write: leave degraded mode and try
        to flush the in-memory overlay back to disk."""
        with _MEMORY_LOCK:
            if self._dir_key not in _DEGRADED_DIRS:
                return
            _DEGRADED_DIRS.discard(self._dir_key)
            held = [(k[1], v) for k, v in _MEMORY.items()
                    if k[0] == self._dir_key]
            for key, _ in held:
                _MEMORY.pop((self._dir_key, key), None)
        record("serve.cache.degraded", 0, kind="gauge")
        logger.info("cache dir %s healed; flushing %d in-memory "
                    "entr(y/ies) to disk", self.cache_dir, len(held))
        for key, payload in held:
            self.put(key, payload)

    def heal(self):
        """Opportunistically try to leave degraded mode.

        ``put`` heals on its own next success, but a registry whose
        fits run in pool workers may never ``put`` in this process
        again — the scheduler calls this after a worker's successful
        disk write to flush the parent's overlay. Returns True when
        the directory is healthy afterwards.
        """
        with _MEMORY_LOCK:
            if self._dir_key not in _DEGRADED_DIRS:
                return True
            held = next(((k[1], v) for k, v in _MEMORY.items()
                         if k[0] == self._dir_key), None)
        if held is not None:
            # a successful re-put flushes the whole overlay and clears
            # the flag; a failing one re-enters degraded mode quietly
            self.put(*held)
            return not self.degraded
        probe = self.cache_dir / ".heal-probe"
        try:
            write_text_atomic(probe, "ok")
            probe.unlink(missing_ok=True)
        except OSError as exc:
            logger.warning("cache dir %s still degraded: %s",
                           self.cache_dir, exc)
            return False
        self._heal_degraded()
        return True

    def _memory_get(self, key):
        with _MEMORY_LOCK:
            return _MEMORY.get((self._dir_key, str(key)))

    def quarantine_dir(self):
        """The quarantine directory (created on first use)."""
        return self.cache_dir / QUARANTINE_DIR

    def quarantined(self):
        """Structured ``IntegrityError`` records of quarantined entries."""
        records = []
        for path in sorted(self.quarantine_dir().glob("*.error.json")):
            with contextlib.suppress(OSError, json.JSONDecodeError):  # repro: noqa[RL011] - a half-written error record is itself corrupt; skip it
                records.append(
                    json.loads(path.read_text(encoding="utf-8")))
        return records

    def _load_verified(self, path):
        """Read and :func:`~repro.io.unseal` one entry file; quarantines
        on any failure and returns ``None`` (a miss)."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            reason = f"unreadable entry: {exc}"
        else:
            try:
                return unseal(data)
            except IntegrityError as exc:
                reason = str(exc)
        record("serve.cache.integrity_quarantined")
        quarantine(path, reason)
        return None

    @staticmethod
    def _touch(path):
        """Bump an entry's LRU recency."""
        with contextlib.suppress(OSError):  # repro: noqa[RL011] - LRU recency is advisory; a failed utime must not fail the read
            os.utime(path)

    def get(self, key, touch=True):
        """The payload stored under ``key``, or ``None`` on a miss.

        Every load verifies the entry's in-band checksum; a corrupt
        entry is quarantined and reported as a miss so the caller
        refits. A hit bumps the entry's mtime (its LRU recency) unless
        ``touch`` is false. Entries held only in the degraded-mode
        memory overlay are served from there.
        """
        path = self._path(key)
        payload = self._load_verified(path)
        if payload is None:
            return self._memory_get(key)
        if touch:
            self._touch(path)
        return payload

    def verify(self, key):
        """True when ``key`` has a checksum-valid entry (disk or
        memory overlay); quarantines a corrupt one as a side effect.

        This is the cache-hit probe the scheduler uses: it reads and
        verifies the bytes, so a corrupt entry turns into a refit at
        submit time instead of a 404 at model-fetch time. A verified
        disk hit bumps LRU recency.
        """
        path = self._path(key)
        if self._load_verified(path) is not None:
            self._touch(path)
            return True
        return self._memory_get(key) is not None

    def __contains__(self, key):
        return self._path(key).exists()

    def __len__(self):
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def keys(self):
        """Stored keys, most recently used first."""
        entries = self._entries()
        return [path.stem for _, path in sorted(entries, reverse=True)]

    def _entries(self):
        entries = []
        for path in self.cache_dir.glob("*.json"):
            with contextlib.suppress(OSError):  # repro: noqa[RL011] - racing unlink/evict: a vanished entry is simply not listed
                entries.append((path.stat().st_mtime, path))
        return entries

    def _evict(self):
        with self._lock:
            entries = self._entries()
            excess = len(entries) - self.max_entries
            if excess <= 0:
                return
            for _, path in sorted(entries)[:excess]:
                with contextlib.suppress(OSError):  # repro: noqa[RL011] - eviction is advisory; a failed unlink retries next put
                    path.unlink()
                    logger.info("evicted %s (LRU, cap %d)",
                                path.name, self.max_entries)
