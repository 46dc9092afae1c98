"""Source-tree discovery and rule policy for the lint engine.

The lint engine's file discovery and the allow/deny lists its rules
read live here, in one place:

* :func:`walk_source_tree` — deterministic (sorted) iteration over the
  library's ``.py`` files, skipping caches, egg-info and VCS droppings;
* :data:`PRINT_ALLOWED` — the CLI front-ends where printing *is* the
  job (rule ``RL003``);
* :data:`IMPORT_POLICY` — each module that may be imported only under
  one package (process pools under the run layer, HTTP servers under
  the serving layer) or nowhere (SciPy and friends), with the reason
  (rule ``RL002``);
* :func:`path_under` — the one test of "this file sits in that part of
  the tree" both lists are read through;
* :data:`FORK_ENTRY_POINTS` — the functions that run first inside a
  freshly forked pool worker; rule ``RL012`` checks their import-time
  closure for inherited concurrency state;
* :data:`THREAD_SHARED` — the packages whose objects are touched from
  multiple threads at once; rule ``RL013`` enforces lock discipline
  there;
* :func:`documentation_corpus` — the hand-written markdown rule
  ``RL017`` accepts as usage evidence for a public export.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "FORK_ENTRY_POINTS",
    "IMPORT_POLICY",
    "PACKAGE_ROOT",
    "PRINT_ALLOWED",
    "REPO_ROOT",
    "THREAD_SHARED",
    "documentation_corpus",
    "evidence_corpus",
    "path_under",
    "walk_source_tree",
]

#: ``src/repro`` — the default tree the gate lints.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: ``src`` — what callers put on ``sys.path``.
SRC_ROOT = PACKAGE_ROOT.parent

#: The repository checkout (only meaningful for the in-repo layout the
#: ``tools/`` scripts run from; never used for resolution at runtime).
REPO_ROOT = SRC_ROOT.parent

#: Directory names never descended into.
_DENY_DIR_NAMES = frozenset({
    "__pycache__",
    ".git",
    ".hg",
    ".mypy_cache",
    ".pytest_cache",
    "build",
    "dist",
    ".eggs",
})

#: Directory suffixes never descended into (setuptools metadata).
_DENY_DIR_SUFFIXES = (".egg-info",)

#: Module paths (posix suffixes under ``src``) whose job is writing to
#: stdout: the CLI front-ends. Everything else must log.
PRINT_ALLOWED = (
    "repro/__main__.py",
    "repro/experiments/report.py",
    "repro/lint/cli.py",
)

_POOL_REASON = ("parallel work goes through run_experiments(jobs=...), "
                "whose pool brings isolation, crash quarantine and "
                "journaling")
_SERVE_REASON = ("serve through repro.serve.make_server so backpressure, "
                 "budgets and caching apply")

#: ``module -> (allowed area, reason)`` for rule ``RL002``. The area is
#: a posix path prefix under ``src`` (see :func:`path_under`), or None
#: when the module may be imported nowhere. A key covers its submodules
#: and, for a dotted key, the ``from parent import last`` spelling
#: (``http.server`` covers ``from http import server``).
IMPORT_POLICY = {
    "sklearn": (None, "the substrates are reimplemented from scratch in "
                      "repro.cluster"),
    "scipy": (None, "DESIGN mandates pure-NumPy substrates; assignment "
                    "and binomial tails live in repro.utils"),
    "pandas": (None, "tables go through repro.experiments.ResultTable"),
    "concurrent": ("repro/robustness/", _POOL_REASON),
    "multiprocessing.pool": ("repro/robustness/", _POOL_REASON),
    "multiprocessing.dummy": ("repro/robustness/", _POOL_REASON),
    "multiprocessing.Pool": ("repro/robustness/", _POOL_REASON),
    "multiprocessing.ThreadPool": ("repro/robustness/", _POOL_REASON),
    "http.server": ("repro/serve/", _SERVE_REASON),
    "socketserver": ("repro/serve/", _SERVE_REASON),
}


def path_under(path, area):
    """True when the file ``path`` lies at or under ``area``, a posix
    path such as ``repro/serve/`` or ``repro/__main__.py``, matched at
    the start of ``path`` or after any ``/``."""
    posix = path.replace("\\", "/")
    return posix.startswith(area) or ("/" + area) in posix


#: ``(module, function)`` pairs that run first inside a freshly forked
#: pool worker. Rule ``RL012`` requires their modules' import-time
#: closure to create no threads/locks/servers at module level (those
#: would be forked mid-state) and the functions themselves to reset the
#: fork-inherited metrics registry before doing any work.
FORK_ENTRY_POINTS = (
    ("repro.robustness.pool", "_pool_worker_main"),
)

#: Dotted-module prefixes whose objects are reached from multiple
#: threads at once (the serve layer's worker/reaper/HTTP threads, the
#: observability registry shared with them). Rule ``RL013`` enforces
#: lock discipline on classes defined here: an attribute mutated under
#: ``with self.<lock>`` anywhere must be mutated under it everywhere
#: (``__init__`` excepted — no other thread can hold a reference yet).
THREAD_SHARED = (
    "repro.serve.",
    "repro.observability.",
)

#: Hand-written markdown accepted as usage evidence by ``RL017``. The
#: generated ``docs/api.md`` is deliberately excluded — it is rendered
#: *from* ``__all__``, so counting it would make every export
#: "documented" by construction.
_DOCS_EXCLUDE = frozenset({"api.md"})

_docs_corpus_memo = {}


def documentation_corpus(repo_root=None):
    """Concatenated hand-written markdown for export-usage evidence.

    Reads the repo-level ``*.md`` files plus ``docs/*.md`` (minus the
    generated ``api.md``). Memoised per root — the lint engine may
    build several program indexes per process (tests, ``repro check``).
    """
    root = Path(repo_root) if repo_root is not None else REPO_ROOT
    if root in _docs_corpus_memo:
        return _docs_corpus_memo[root]
    chunks = []
    candidates = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    for path in candidates:
        if path.name in _DOCS_EXCLUDE:
            continue
        try:
            chunks.append(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError):  # evidence is advisory; an unreadable doc must not fail the lint run
            continue
    corpus = "\n".join(chunks)
    _docs_corpus_memo[root] = corpus
    return corpus


_evidence_corpus_memo = {}


def evidence_corpus(repo_root=None):
    """Everything ``RL017`` accepts as evidence that an export is alive.

    The hand-written docs (:func:`documentation_corpus`) plus the
    source of the repo's consumers outside the linted package — tests,
    tools, benchmarks — because an export a test imports or a tool
    enumerates is API in active use even when no library module
    references it.
    """
    root = Path(repo_root) if repo_root is not None else REPO_ROOT
    if root in _evidence_corpus_memo:
        return _evidence_corpus_memo[root]
    chunks = [documentation_corpus(root)]
    for consumer in ("tests", "tools", "benchmarks"):
        directory = root / consumer
        if not directory.is_dir():
            continue
        for path in walk_source_tree(directory):
            try:
                chunks.append(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError):  # evidence is advisory; an unreadable consumer must not fail the lint run
                continue
    corpus = "\n".join(chunks)
    _evidence_corpus_memo[root] = corpus
    return corpus


def _denied(name):
    """True when a directory component must not be descended into."""
    return (name in _DENY_DIR_NAMES
            or name.endswith(_DENY_DIR_SUFFIXES)
            or (name.startswith(".") and name not in (".", "..")))


def walk_source_tree(root=None):
    """Yield the library's ``.py`` files under ``root``, sorted.

    Parameters
    ----------
    root : path-like or None
        Directory to walk (default: the ``repro`` package itself). A
        file path is yielded as-is, so callers can pass either.

    Yields
    ------
    pathlib.Path
        Every ``.py`` file in deterministic (sorted) order, skipping
        ``__pycache__``, ``*.egg-info``, VCS and build directories.
    """
    root = PACKAGE_ROOT if root is None else Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if any(_denied(part) for part in rel.parts[:-1]):
            continue
        yield path
