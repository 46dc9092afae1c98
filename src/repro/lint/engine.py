"""Two-pass AST lint engine: per-file rules, whole-program rules, cache.

**Pass 1** parses each source file exactly once (``ast.parse`` plus one
``tokenize`` pass for suppression pragmas) and dispatches every node to
the rules that registered interest in its type, so adding a per-file
rule costs one method call per matching node, not another traversal.
Alongside the dispatch, every rule's :meth:`Rule.collect` hook may
export JSON-safe *facts* about the file (imports, exports, raise sites,
metric names, …).

**Pass 2** assembles the per-file facts into a
:class:`~repro.lint.index.ProgramIndex` — module graph, import-time
closure, docs corpus — and runs every rule's
:meth:`Rule.check_program` hook against it. This is where the
cross-module rules (``RL012``–``RL017``) live: fork-safety of the pool
workers' import closure, lock discipline in the threaded serve layer,
metric-name consistency against the canonical catalog.

Pass 1 results are memoised in an incremental cache
(:class:`~repro.lint.cache.LintCache`) keyed by content sha and a
rule-catalog hash, so a warm whole-tree lint skips parsing entirely;
pass 2 always runs live on the (cached) facts.

Three layers of noise control keep the gate usable as the tree grows:

* **pragmas** — ``# repro: noqa[RL001,RL005] - justification`` on the
  flagged line suppresses exactly those rule ids there (blanket
  suppression is deliberately unsupported: every exemption names the
  invariant it waives). A pragma that suppresses nothing is itself
  reported under :data:`DEAD_PRAGMA_RULE_ID`, so the exemption audit
  can never rot;
* **baselines** — a committed JSON file of grandfathered findings
  (matched by ``(path, rule, message)`` so unrelated edits do not churn
  line numbers) lets a new rule land strict while old debt is paid off;
* **selection** — ``--select``/``--ignore`` restrict the active rule
  set for focused runs.

Files that fail to parse or read are reported under the reserved id
:data:`PARSE_RULE_ID` rather than crashing the sweep.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..io import write_text_atomic
from .index import ModuleRecord, ProgramIndex, module_name_for_path

__all__ = [
    "BASELINE_VERSION",
    "DEAD_PRAGMA_RULE_ID",
    "FileLint",
    "Finding",
    "LintEngine",
    "LintReport",
    "PARSE_RULE_ID",
    "Rule",
    "all_rule_classes",
    "format_github",
    "format_human",
    "format_json",
    "load_baseline",
    "register",
    "resolve_rules",
    "write_baseline",
]

#: Reserved id for "the file could not be parsed/read at all".
PARSE_RULE_ID = "RL000"

#: The dead-pragma meta rule: a noqa pragma whose declared ids never
#: fire on that line is itself a finding (the rule class lives in
#: ``rules/program.py``; the detection is engine-owned because only the
#: engine sees which pragmas were consumed).
DEAD_PRAGMA_RULE_ID = "RL018"

#: Schema version of both the baseline file and the JSON output.
BASELINE_VERSION = 1

_RULE_ID_RE = re.compile(r"^RL\d{3}$")
_PRAGMA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def render(self):
        """``path:line:col: RLxxx message`` (col is 1-based for humans)."""
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} {self.message}")

    def render_github(self):
        """A GitHub Actions ``::error`` workflow annotation line."""
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (f"::error file={self.path},line={self.line},"
                f"col={self.col + 1},title={self.rule}::{message}")

    def to_dict(self):
        """JSON-ready mapping (documented in docs/static-analysis.md)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    @property
    def baseline_key(self):
        """Line-independent identity used for baseline matching."""
        return (self.path, self.rule, self.message)


# ---------------------------------------------------------------------------
# Rule registry


_REGISTRY = {}


def register(cls):
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    if not _RULE_ID_RE.match(cls.id) or cls.id == PARSE_RULE_ID:
        raise ValueError(f"rule id {cls.id!r} must match RL0xx (not RL000)")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rule_classes():
    """Registered rule classes, sorted by id."""
    return [cls for _, cls in sorted(_REGISTRY.items())]


def resolve_rules(select=None, ignore=None):
    """Instantiate the active rule set from ``--select``/``--ignore`` ids.

    Unknown ids raise :class:`ValueError` — a typo that silently
    selected nothing would report a misleadingly clean tree.
    """
    known = set(_REGISTRY)
    requested = set(select or ()) | set(ignore or ())
    unknown = sorted(requested - known)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    active = set(known)
    if select:
        active &= set(select)
    if ignore:
        active -= set(ignore)
    return [_REGISTRY[rule_id]() for rule_id in sorted(active)]


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (``RL0xx``), ``title`` (short slug), a
    ``rationale`` (one paragraph for ``--list-rules`` and the docs),
    ``severity`` and ``node_types`` — the AST node classes the engine
    dispatches to :meth:`visit` during the shared pass-1 traversal.

    Cross-module rules additionally implement :meth:`collect` — export
    JSON-safe facts about one file — and :meth:`check_program` — yield
    findings against the assembled :class:`ProgramIndex`. A rule may be
    purely whole-program (``node_types = ()``), purely per-file, or
    both.
    """

    id = PARSE_RULE_ID
    title = ""
    rationale = ""
    severity = "error"
    node_types = ()

    def visit(self, node, ctx):
        """Yield :class:`Finding` objects for one dispatched node."""
        return ()

    def collect(self, ctx):
        """Pass-1 fact extraction: return a JSON-safe value (or None).

        Whatever is returned is cached with the file and later exposed
        through :meth:`ProgramIndex.facts`, keyed by this rule's id —
        so it must survive a JSON round-trip (lists, dicts with string
        keys, scalars).
        """
        return None

    def check_program(self, index):
        """Pass-2 hook: yield findings against the whole-program index."""
        return ()

    def finding(self, ctx, node, message):
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )

    def program_finding(self, path, line, message, col=0):
        """Build a pass-2 finding at an explicit location (facts carry
        their own line numbers; there is no live AST node by then)."""
        return Finding(
            path=path, line=int(line), col=int(col), rule=self.id,
            severity=self.severity, message=message,
        )


class ModuleContext:
    """Per-file state shared by all rules during the single traversal."""

    #: Node types that start a new variable scope: loop-enclosure
    #: queries stop at these.
    _SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                    ast.ClassDef, ast.Module)

    def __init__(self, path, text, tree):
        self.path = path
        self.text = text
        self.tree = tree
        #: Ancestor chain of the node currently being visited
        #: (outermost first, excluding the node itself).
        self.ancestors = []

    def enclosing_loops(self):
        """``for``/``while`` nodes around the current node, innermost
        first, within the nearest enclosing function/class scope."""
        loops = []
        for node in reversed(self.ancestors):
            if isinstance(node, self._SCOPE_TYPES):
                break
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                loops.append(node)
        return loops


class _Dispatcher:
    """Single traversal that feeds each node to interested rules."""

    def __init__(self, rules, ctx, out):
        self._by_type = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._by_type.setdefault(node_type, []).append(rule)
        self._ctx = ctx
        self._out = out

    def run(self, tree):
        self._visit(tree)

    def _visit(self, node):
        for rule in self._by_type.get(type(node), ()):
            self._out.extend(rule.visit(node, self._ctx))
        self._ctx.ancestors.append(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)
        self._ctx.ancestors.pop()


# ---------------------------------------------------------------------------
# Suppression pragmas


def _suppressions(text):
    """Map ``line -> {rule ids}`` from ``# repro: noqa[...]`` pragmas.

    Comments are found with :mod:`tokenize`, so the pragma syntax
    appearing inside a string literal or docstring does not suppress
    anything.
    """
    out = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            ids = {part.strip().upper()
                   for part in match.group(1).split(",") if part.strip()}
            out.setdefault(tok.start[0], set()).update(ids)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable files are reported as RL000 elsewhere
    return out


@dataclass
class FileLint:
    """Result of linting one file (or text snippet)."""

    findings: list = field(default_factory=list)
    suppressed: int = 0


# ---------------------------------------------------------------------------
# Baselines


def load_baseline(path):
    """Load a baseline file into a matchable counter.

    Raises
    ------
    OSError
        The file cannot be read.
    ValueError
        The file is not valid baseline JSON.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or "findings" not in data:
        raise ValueError(f"baseline {path}: expected an object with a "
                         "'findings' list")
    counter = Counter()
    for entry in data["findings"]:
        try:
            counter[(entry["path"], entry["rule"], entry["message"])] += 1
        except (TypeError, KeyError) as exc:
            raise ValueError(
                f"baseline {path}: entry {entry!r} lacks path/rule/message"
            ) from exc
    return counter


def write_baseline(path, findings):
    """Write ``findings`` as a baseline file (sorted, deterministic)."""
    entries = [
        {"path": f.path, "rule": f.rule, "message": f.message}
        for f in sorted(findings)
    ]
    payload = {"version": BASELINE_VERSION, "findings": entries}
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
    return len(entries)


def prune_baseline(baseline, linted_paths, findings):
    """Merge semantics for ``--update-baseline``.

    The rewritten baseline is: the current findings for the files this
    run linted, plus the old entries for files *outside* this run that
    still exist on disk. Entries for deleted or renamed files are
    dropped instead of being carried forever, and updating from a
    partial path set no longer erases the rest of the baseline.

    Parameters
    ----------
    baseline : Counter or None
        The previously loaded baseline (``(path, rule, message)`` ->
        count), or None when starting fresh.
    linted_paths : set of str
        Display paths of the files this run analysed.
    findings : iterable of Finding
        The run's unsuppressed findings.

    Returns
    -------
    list of Finding
        Entries ready for :func:`write_baseline`.
    """
    from .walk import REPO_ROOT

    merged = list(findings)
    for (path, rule, message), count in (baseline or {}).items():
        if path in linted_paths:
            continue  # superseded by this run's findings (possibly none)
        candidate = Path(path)
        exists = (candidate.is_file() if candidate.is_absolute()
                  else ((REPO_ROOT / path).is_file()
                        or (Path.cwd() / path).is_file()))
        if not exists:
            continue  # deleted or renamed: prune
        merged.extend([Finding(path=path, line=1, col=0, rule=rule,
                               severity="error", message=message)] * count)
    return merged


# ---------------------------------------------------------------------------
# Engine


@dataclass
class LintReport:
    """Aggregate result of a lint run over many files."""

    findings: list = field(default_factory=list)
    files_checked: int = 0
    suppressed_pragma: int = 0
    suppressed_baseline: int = 0

    @property
    def ok(self):
        return not self.findings

    def counts(self):
        """``{rule id: finding count}`` for the unsuppressed findings."""
        return dict(sorted(Counter(f.rule for f in self.findings).items()))

    def to_dict(self):
        """The documented JSON output schema."""
        return {
            "version": BASELINE_VERSION,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "suppressed": {
                "pragma": self.suppressed_pragma,
                "baseline": self.suppressed_baseline,
            },
        }


class LintEngine:
    """Run a rule set over texts, files, or whole trees."""

    def __init__(self, select=None, ignore=None, rules=None):
        if rules is not None:
            self.rules = list(rules)
        else:
            self.rules = resolve_rules(select=select, ignore=ignore)

    @property
    def active_ids(self):
        return sorted(r.id for r in self.rules)

    # -- pass 1: one file --------------------------------------------------

    def analyze_text(self, text, path="<snippet>"):
        """Parse + per-file rules + fact extraction for one source text.

        Returns a JSON-safe record — exactly what the incremental cache
        stores per file: raw (pre-pragma) findings, the pragma map, the
        per-rule facts, and the import declarations the program index
        needs.
        """
        record = {"findings": [], "suppressions": {}, "facts": {},
                  "imports": []}
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            record["findings"].append(Finding(
                path=path, line=exc.lineno or 1,
                col=max((exc.offset or 1) - 1, 0), rule=PARSE_RULE_ID,
                severity="error",
                message=f"file does not parse: {exc.msg}",
            ).to_dict())
            return record
        ctx = ModuleContext(path, text, tree)
        raw = []
        _Dispatcher(self.rules, ctx, raw).run(tree)
        record["findings"] = [f.to_dict() for f in sorted(raw)]
        record["suppressions"] = {
            str(line): sorted(ids)
            for line, ids in _suppressions(text).items()
        }
        for rule in self.rules:
            facts = rule.collect(ctx)
            if facts is not None:
                record["facts"][rule.id] = facts
        record["imports"] = _collect_imports(tree)
        return record

    def lint_text(self, text, path="<snippet>"):
        """Lint one source string; returns a :class:`FileLint`.

        Per-file rules only — the whole-program pass needs a tree
        (:meth:`lint_paths`).
        """
        record = self.analyze_text(text, path=path)
        suppressions = {int(line): set(ids)
                        for line, ids in record["suppressions"].items()}
        result = FileLint()
        for entry in record["findings"]:
            finding = Finding(**entry)
            if finding.rule in suppressions.get(finding.line, ()):
                result.suppressed += 1
            else:
                result.findings.append(finding)
        return result

    def lint_file(self, path, display=None):
        """Lint one file; unreadable files become RL000 findings."""
        display = display or _display_path(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            finding = Finding(
                path=display, line=1, col=0, rule=PARSE_RULE_ID,
                severity="error", message=f"file cannot be read: {exc}",
            )
            return FileLint(findings=[finding])
        return self.lint_text(text, path=display)

    # -- pass 1 + pass 2: trees --------------------------------------------

    def lint_paths(self, paths, baseline=None, cache=None, docs_corpus=None):
        """Lint files and/or directories; returns a :class:`LintReport`.

        Parameters
        ----------
        paths : iterable of path-like
            Files are linted directly; directories are expanded through
            :func:`repro.lint.walk.walk_source_tree`.
        baseline : Counter or None
            Grandfathered findings (from :func:`load_baseline`); each
            baseline entry absorbs at most one matching finding.
        cache : LintCache or None
            Incremental cache for pass-1 results; hit entries skip
            parsing entirely. The cache is saved (atomically) before
            returning.
        docs_corpus : str or None
            Text the dead-export rule accepts as usage evidence; None
            loads the repo's hand-written docs plus test/tool sources
            (:func:`repro.lint.walk.evidence_corpus`).
        """
        from .cache import content_sha
        from .walk import evidence_corpus, walk_source_tree

        files = []
        seen = set()
        for path in paths:
            path = Path(path)
            expanded = walk_source_tree(path) if path.is_dir() else [path]
            for item in expanded:
                resolved = Path(item).resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    files.append(item)

        report = LintReport(files_checked=len(files))
        entries = []  # (display, analysis record)
        for item in files:
            display = _display_path(item)
            try:
                text = Path(item).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                entries.append((display, {
                    "findings": [Finding(
                        path=display, line=1, col=0, rule=PARSE_RULE_ID,
                        severity="error",
                        message=f"file cannot be read: {exc}",
                    ).to_dict()],
                    "suppressions": {}, "facts": {}, "imports": [],
                    "module": Path(item).stem, "is_package": False,
                }))
                continue
            sha = content_sha(text)
            entry = cache.lookup(display, sha) if cache is not None else None
            if entry is None or entry.get("rules") != self.active_ids:
                entry = self.analyze_text(text, path=display)
                module, is_package = module_name_for_path(item)
                entry["module"] = module
                entry["is_package"] = bool(is_package)
                entry["sha"] = sha
                entry["rules"] = self.active_ids
                if cache is not None:
                    cache.store(display, entry)
            entries.append((display, entry))

        # pass 2: assemble the index and run the cross-module rules
        if docs_corpus is None:
            docs_corpus = evidence_corpus()
        records = [
            ModuleRecord(
                path=display, name=entry.get("module") or Path(display).stem,
                is_package=entry.get("is_package", False),
                facts=entry.get("facts") or {},
                imports=entry.get("imports") or [],
            )
            for display, entry in entries
        ]
        index = ProgramIndex(records, docs_corpus=docs_corpus)
        findings = []
        for display, entry in entries:
            findings.extend(Finding(**f) for f in entry["findings"])
        for rule in self.rules:
            findings.extend(rule.check_program(index))

        # apply pragmas over both passes, tracking which ids they used
        suppressions = {}
        for display, entry in entries:
            per_line = {int(line): set(ids)
                        for line, ids in entry["suppressions"].items()}
            if per_line:
                suppressions[display] = per_line
        used = set()
        surviving = []
        for finding in findings:
            declared = suppressions.get(finding.path, {}).get(finding.line,
                                                              ())
            if finding.rule in declared:
                report.suppressed_pragma += 1
                used.add((finding.path, finding.line, finding.rule))
            else:
                surviving.append(finding)
        surviving.extend(self._dead_pragmas(suppressions, used, report))

        # baseline last: it grandfathers pragma-surviving findings only
        if baseline:
            remaining = Counter(baseline)
            for finding in surviving:
                if remaining[finding.baseline_key] > 0:
                    remaining[finding.baseline_key] -= 1
                    report.suppressed_baseline += 1
                else:
                    report.findings.append(finding)
        else:
            report.findings = surviving
        report.findings.sort()
        if cache is not None:
            cache.save()
        report.linted_paths = {display for display, _ in entries}
        return report

    def _dead_pragmas(self, suppressions, used, report):
        """Findings for pragma ids that suppressed nothing this run.

        Only judged for ids in the active rule set (a ``--select
        RL003`` run cannot tell whether an RL011 pragma is live), plus
        ids that are not registered rules at all (those can *never*
        suppress — a typo'd pragma is silent debt). A dead-pragma
        finding is itself suppressible by naming
        :data:`DEAD_PRAGMA_RULE_ID` in the same pragma.
        """
        active = set(self.active_ids)
        if DEAD_PRAGMA_RULE_ID not in active:
            return []
        known = set(_REGISTRY)
        out = []
        for path, per_line in suppressions.items():
            for line, declared in per_line.items():
                dead_suppressed = False
                for rule_id in sorted(declared):
                    if rule_id == DEAD_PRAGMA_RULE_ID:
                        continue
                    if rule_id in known and (rule_id not in active
                                             or (path, line, rule_id) in used):
                        continue
                    reason = ("names unknown rule id"
                              if rule_id not in known
                              else "suppresses nothing here")
                    finding = Finding(
                        path=path, line=line, col=0,
                        rule=DEAD_PRAGMA_RULE_ID, severity="error",
                        message=(f"dead pragma: noqa[{rule_id}] "
                                 f"{reason}; remove it or fix the rule id"),
                    )
                    if DEAD_PRAGMA_RULE_ID in declared:
                        report.suppressed_pragma += 1
                        dead_suppressed = True
                    else:
                        out.append(finding)
                if (DEAD_PRAGMA_RULE_ID in declared and not dead_suppressed
                        and not self._line_used(used, path, line, declared)):
                    out.append(Finding(
                        path=path, line=line, col=0,
                        rule=DEAD_PRAGMA_RULE_ID, severity="error",
                        message=(f"dead pragma: noqa[{DEAD_PRAGMA_RULE_ID}] "
                                 "suppresses nothing here; remove it or fix "
                                 "the rule id"),
                    ))
        return out

    @staticmethod
    def _line_used(used, path, line, declared):
        """True when any declared id on this line consumed a finding."""
        return any((path, line, rule_id) in used for rule_id in declared)


def _collect_imports(tree):
    """JSON-safe import declarations for the program index.

    ``toplevel`` marks statements that execute at import time (not
    nested in a function/lambda) — the set the fork-safety closure
    follows. Class bodies *do* execute at import, so they count.
    """
    out = []
    func_spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            func_spans.append((node.lineno, node.end_lineno or node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append({
                    "module": alias.name, "names": [], "level": 0,
                    "toplevel": _outside(func_spans, node.lineno),
                    "line": node.lineno,
                })
        elif isinstance(node, ast.ImportFrom):
            out.append({
                "module": node.module or "",
                "names": [a.name for a in node.names if a.name != "*"],
                "level": node.level or 0,
                "toplevel": _outside(func_spans, node.lineno),
                "line": node.lineno,
            })
    return out


def _outside(spans, line):
    """True when ``line`` falls outside every function span."""
    return not any(start < line <= end for start, end in spans
                   if start != line)


def _display_path(path):
    """Stable repo-relative display path (posix), falling back sanely."""
    from .walk import REPO_ROOT

    resolved = Path(path).resolve()
    for anchor in (REPO_ROOT, Path.cwd()):
        try:
            return resolved.relative_to(anchor).as_posix()
        except ValueError:
            continue
    return resolved.as_posix()


# ---------------------------------------------------------------------------
# Output formats


def format_human(report):
    """One line per finding plus a summary, ready to print."""
    lines = [finding.render() for finding in report.findings]
    suppressed = []
    if report.suppressed_pragma:
        suppressed.append(f"{report.suppressed_pragma} pragma-suppressed")
    if report.suppressed_baseline:
        suppressed.append(f"{report.suppressed_baseline} baselined")
    tail = f" ({', '.join(suppressed)})" if suppressed else ""
    lines.append(f"checked {report.files_checked} file(s): "
                 f"{len(report.findings)} finding(s){tail}")
    return "\n".join(lines)


def format_json(report):
    """The documented JSON schema, indented and newline-terminated."""
    return json.dumps(report.to_dict(), indent=2)


def format_github(report):
    """GitHub Actions workflow annotations: one ``::error`` per finding.

    The summary goes on a plain last line (annotations are only emitted
    for findings, so a clean run prints just the summary).
    """
    lines = [finding.render_github() for finding in report.findings]
    lines.append(f"checked {report.files_checked} file(s): "
                 f"{len(report.findings)} finding(s)")
    return "\n".join(lines)
