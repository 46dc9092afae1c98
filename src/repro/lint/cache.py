"""Incremental per-file cache for the two-pass lint engine.

Pass 1 (parse + per-file rules + fact extraction) dominates the cost of
a whole-tree lint, and its result for one file depends only on that
file's bytes and on the rule catalog itself. This module memoises it:

* each entry is keyed by the file's **content sha256**, so any edit —
  including a rename, since entries are stored per display path —
  invalidates exactly the files it touched;
* the whole cache is keyed by a **rule-catalog hash**: the sha256 of
  the lint package's own source files. Editing any rule, the engine,
  or the walk policy silently discards every entry and forces a full
  re-analysis — a stale rule result can never masquerade as a clean
  file;
* writes go through :func:`repro.io.write_text_atomic`, the durable
  write ``RunJournal`` and the model registry use (temp file, ``fsync``,
  ``os.replace``), whose pid- and thread-suffixed temp names mean
  concurrent ``repro lint`` invocations cannot tear each other's cache
  — last writer wins, both leave valid JSON behind;
* a corrupt or unreadable cache file is *ignored*, never fatal: the
  engine re-analyses from scratch and rewrites it.

Pass 2 (the cross-module rules) always runs live — it is cheap, works
on the cached facts, and its findings depend on the whole tree, not on
one file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..io import write_text_atomic

__all__ = ["CACHE_VERSION", "LintCache", "content_sha", "rule_catalog_hash"]

#: Schema version of the cache file; bumping it discards old caches.
CACHE_VERSION = 1

_catalog_hash_memo = {}


def content_sha(text):
    """sha256 hex digest of one file's source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rule_catalog_hash():
    """sha256 over the lint package's own sources.

    Any change to the engine, the rules, the walk policy, or this
    module changes the hash, so cached pass-1 results can never
    outlive the code that produced them.
    """
    package_dir = Path(__file__).resolve().parent
    if package_dir in _catalog_hash_memo:
        return _catalog_hash_memo[package_dir]
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    value = digest.hexdigest()
    _catalog_hash_memo[package_dir] = value
    return value


class LintCache:
    """Load/lookup/store per-file pass-1 results, saved atomically.

    Parameters
    ----------
    path : path-like
        The JSON cache file. A missing, corrupt, or version/catalog
        mismatched file behaves as an empty cache.
    catalog_hash : str or None
        Override for the rule-catalog hash (tests use this to prove a
        catalog bump discards entries); default is
        :func:`rule_catalog_hash`.
    """

    def __init__(self, path, catalog_hash=None):
        self.path = Path(path)
        self.catalog_hash = catalog_hash or rule_catalog_hash()
        #: Cache-effectiveness counters for this run (tests and the
        #: benchmark read them; they are not part of the JSON output).
        self.hits = 0
        self.misses = 0
        #: True when the last save failed (read-only cache location);
        #: lint results are unaffected, only warm-run speed is lost.
        self.degraded = False
        self._entries = self._load()
        self._touched = {}

    def _load(self):
        try:
            raw = self.path.read_text(encoding="utf-8")
            data = json.loads(raw)
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        if data.get("version") != CACHE_VERSION:
            return {}
        if data.get("catalog") != self.catalog_hash:
            return {}
        files = data.get("files")
        return dict(files) if isinstance(files, dict) else {}

    # -- per-file API ------------------------------------------------------

    def lookup(self, display, sha):
        """The cached entry for ``display`` when its sha matches."""
        entry = self._entries.get(display)
        if (isinstance(entry, dict) and entry.get("sha") == sha
                and self._well_formed(entry)):
            self.hits += 1
            self._touched[display] = entry
            return entry
        self.misses += 1
        return None

    @staticmethod
    def _well_formed(entry):
        """Minimal shape check so one corrupt entry is skipped, not
        fatal (everything else in the file stays usable)."""
        return (isinstance(entry.get("findings"), list)
                and isinstance(entry.get("suppressions"), dict)
                and isinstance(entry.get("facts"), dict)
                and isinstance(entry.get("imports"), list)
                and isinstance(entry.get("module"), str))

    def store(self, display, entry):
        """Record a freshly analysed file for the next :meth:`save`."""
        self._touched[display] = entry

    # -- persistence -------------------------------------------------------

    def save(self):
        """Merge this run's entries over the old ones and write atomically.

        Entries for files this run did not touch are kept only while
        their file still exists on disk, so deleted or renamed files do
        not accumulate forever. A failed write flips
        :attr:`degraded` and is otherwise ignored — the cache is an
        accelerator, not a correctness layer.
        """
        merged = {}
        for display, entry in self._entries.items():
            if display in self._touched:
                continue
            if self._still_exists(display):
                merged[display] = entry
        merged.update(self._touched)
        payload = {
            "version": CACHE_VERSION,
            "catalog": self.catalog_hash,
            "files": merged,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            write_text_atomic(self.path,
                              json.dumps(payload, sort_keys=True) + "\n")
        except OSError:
            self.degraded = True
        return not self.degraded

    @staticmethod
    def _still_exists(display):
        """True when a cached display path still resolves to a file."""
        candidate = Path(display)
        if candidate.is_absolute():
            return candidate.is_file()
        from .walk import REPO_ROOT

        return ((REPO_ROOT / candidate).is_file()
                or (Path.cwd() / candidate).is_file())
