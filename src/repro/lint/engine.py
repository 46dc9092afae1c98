"""Two-pass AST lint engine: one walk per file, then whole-program rules.

**Pass 1** parses each source file once and walks its AST once. The
walk dispatches every node to the rules that registered interest in
its type, so adding a rule costs one method call per matching node, not
another traversal. During that same walk the cross-module rules record
*facts* about the file (imports, raise sites, metric names, …) in
``ctx.facts``; whether a node sits at module top level, inside a
function or under a held lock is read from ``ctx.ancestors``, never
from line spans. After the walk a rule's :meth:`Rule.finish` hook may
judge what it gathered (``RL014`` judges each scope there).

**Pass 2** assembles the per-file facts into a
:class:`~repro.lint.index.ProgramIndex` — module graph, import-time
closure, docs corpus — and runs every rule's
:meth:`Rule.check_program` hook against it. This is where the
cross-module rules (``RL012``–``RL017``) live: fork-safety of the pool
workers' import closure, lock discipline in the threaded serve layer,
metric-name consistency against the canonical catalog.

Two layers of noise control keep the gate usable as the tree grows:

* **pragmas** — ``# repro: noqa[RL001,RL005] - justification`` on the
  flagged line suppresses exactly those rule ids there (blanket
  suppression is deliberately unsupported: every exemption names the
  invariant it waives). A pragma that suppresses nothing is itself
  reported under :data:`DEAD_PRAGMA_RULE_ID`, so the exemption audit
  can never rot. Only files whose text contains ``noqa[`` are
  tokenized;
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

from .index import ModuleRecord, ProgramIndex, module_name_for_path

__all__ = [
    "DEAD_PRAGMA_RULE_ID",
    "Finding",
    "LintEngine",
    "LintReport",
    "PARSE_RULE_ID",
    "Rule",
    "SCHEMA_VERSION",
    "all_rule_classes",
    "format_human",
    "format_json",
    "register",
    "resolve_rules",
]

#: Reserved id for "the file could not be parsed/read at all".
PARSE_RULE_ID = "RL000"

#: The dead-pragma meta rule: a noqa pragma whose declared ids never
#: fire on that line is itself a finding (the rule class lives in
#: ``rules/program.py``; the detection is engine-owned because only the
#: engine sees which pragmas were consumed).
DEAD_PRAGMA_RULE_ID = "RL018"

#: Schema version of the JSON output.
SCHEMA_VERSION = 2

_RULE_ID_RE = re.compile(r"^RL\d{3}$")
_PRAGMA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")

#: Node types whose body runs later, when called — not where defined.
FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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
    dispatches to :meth:`visit` during its one walk of each file.

    A per-file rule yields findings from :meth:`visit` (or from
    :meth:`finish`, once the walk is done). A cross-module rule records
    facts in ``ctx.facts[self.id]`` from :meth:`visit` and yields
    findings from :meth:`check_program` against the assembled
    :class:`ProgramIndex`. A rule may be purely whole-program, purely
    per-file, or both.
    """

    id = PARSE_RULE_ID
    title = ""
    rationale = ""
    severity = "error"
    node_types = ()

    def visit(self, node, ctx):
        """Yield :class:`Finding` objects for one dispatched node."""
        return ()

    def finish(self, ctx):
        """Yield findings judged from what :meth:`visit` gathered."""
        return ()

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
    """Per-file state shared by all rules during the single walk."""

    #: Node types that start a new variable scope: loop-enclosure
    #: queries stop at these.
    _SCOPE_TYPES = FUNCTION_TYPES + (ast.ClassDef, ast.Module)

    def __init__(self, path):
        self.path = path
        #: Ancestor chain of the node currently being visited
        #: (outermost first, excluding the node itself).
        self.ancestors = []
        #: ``{rule id: facts}`` the rules record during the walk; pass 2
        #: reads the cross-module rules' facts from the program index.
        self.facts = {}
        #: Import declarations for the program index (see
        #: :class:`~repro.lint.index.ModuleRecord`).
        self.imports = []

    def in_function(self, node):
        """True when ``node`` runs only when a function is called: it
        sits in the body of a def or lambda. Decorators, defaults and
        annotations run where the function is defined, so they do not
        count."""
        child = node
        for parent in reversed(self.ancestors):
            if isinstance(parent, ast.Lambda):
                if child is parent.body:
                    return True
            elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.stmt):
                    return True
            child = parent
        return False

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


class _ImportFacts:
    """Records each import statement for the program index.

    ``toplevel`` marks statements that execute at import time (no def
    or lambda encloses them) — the set the fork-safety closure follows.
    Class bodies *do* execute at import, so they count.
    """

    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node, ctx):
        toplevel = not ctx.in_function(node)
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.imports.append({
                    "module": alias.name, "names": [], "level": 0,
                    "toplevel": toplevel, "line": node.lineno,
                })
        else:
            ctx.imports.append({
                "module": node.module or "",
                "names": [a.name for a in node.names if a.name != "*"],
                "level": node.level or 0,
                "toplevel": toplevel, "line": node.lineno,
            })
        return ()


def _walk(tree, rules, ctx, out):
    """The one traversal of ``tree``: feed each node to interested rules."""
    by_type = {}
    for rule in [*rules, _ImportFacts()]:
        for node_type in rule.node_types:
            by_type.setdefault(node_type, []).append(rule)
    ancestors = ctx.ancestors
    children = ast.iter_child_nodes

    def visit(node):
        for rule in by_type.get(type(node), ()):
            out.extend(rule.visit(node, ctx))
        ancestors.append(node)
        for child in children(node):
            visit(child)
        ancestors.pop()

    visit(tree)
    for rule in rules:
        out.extend(rule.finish(ctx))


# ---------------------------------------------------------------------------
# Suppression pragmas


def _suppressions(text):
    """Map ``line -> {rule ids}`` from ``# repro: noqa[...]`` pragmas.

    Comments are found with :mod:`tokenize`, so the pragma syntax
    appearing inside a string literal or docstring does not suppress
    anything. Text without ``noqa[`` cannot hold a pragma and is not
    tokenized.
    """
    out = {}
    if "noqa[" not in text:
        return out
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


# ---------------------------------------------------------------------------
# Engine


@dataclass
class LintReport:
    """Aggregate result of a lint run over many files."""

    findings: list = field(default_factory=list)
    files_checked: int = 0
    suppressed_pragma: int = 0

    @property
    def ok(self):
        return not self.findings

    def counts(self):
        """``{rule id: finding count}`` for the unsuppressed findings."""
        return dict(sorted(Counter(f.rule for f in self.findings).items()))

    def to_dict(self):
        """The documented JSON output schema."""
        return {
            "version": SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "suppressed": {"pragma": self.suppressed_pragma},
        }


class LintEngine:
    """Run a rule set over files and whole trees."""

    def __init__(self, select=None, ignore=None, rules=None):
        if rules is not None:
            self.rules = list(rules)
        else:
            self.rules = resolve_rules(select=select, ignore=ignore)

    @property
    def active_ids(self):
        return sorted(r.id for r in self.rules)

    # -- pass 1: one file --------------------------------------------------

    def _analyze(self, text, path):
        """Parse and walk one source text.

        Returns ``(findings, ctx)``: the per-file findings before
        pragmas, and the walked :class:`ModuleContext` (None when the
        text does not parse).
        """
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            return [Finding(
                path=path, line=exc.lineno or 1,
                col=max((exc.offset or 1) - 1, 0), rule=PARSE_RULE_ID,
                severity="error",
                message=f"file does not parse: {exc.msg}",
            )], None
        ctx = ModuleContext(path)
        findings = []
        _walk(tree, self.rules, ctx, findings)
        return findings, ctx

    # -- pass 1 + pass 2: trees --------------------------------------------

    def lint_paths(self, paths, docs_corpus=None):
        """Lint files and/or directories; returns a :class:`LintReport`.

        Parameters
        ----------
        paths : iterable of path-like
            Files are linted directly; directories are expanded through
            :func:`repro.lint.walk.walk_source_tree`.
        docs_corpus : str or None
            Text the dead-export rule accepts as usage evidence; None
            loads the repo's hand-written docs plus test/tool sources
            (:func:`repro.lint.walk.evidence_corpus`).
        """
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
        findings = []
        records = []
        suppressions = {}
        for item in files:
            display = _display_path(item)
            try:
                text = Path(item).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(_unreadable(display, exc))
                records.append(ModuleRecord(
                    path=display, name=Path(item).stem, is_package=False,
                    facts={}, imports=[]))
                continue
            file_findings, ctx = self._analyze(text, display)
            findings.extend(file_findings)
            module, is_package = module_name_for_path(item)
            records.append(ModuleRecord(
                path=display, name=module, is_package=is_package,
                facts=ctx.facts if ctx else {},
                imports=ctx.imports if ctx else []))
            per_line = _suppressions(text) if ctx else {}
            if per_line:
                suppressions[display] = per_line

        # pass 2: assemble the index and run the cross-module rules
        if docs_corpus is None:
            docs_corpus = evidence_corpus()
        index = ProgramIndex(records, docs_corpus=docs_corpus)
        for rule in self.rules:
            findings.extend(rule.check_program(index))

        # apply pragmas over both passes, tracking which ids they used
        used = set()
        for finding in findings:
            declared = suppressions.get(finding.path, {}).get(finding.line,
                                                              ())
            if finding.rule in declared:
                report.suppressed_pragma += 1
                used.add((finding.path, finding.line, finding.rule))
            else:
                report.findings.append(finding)
        report.findings.extend(self._dead_pragmas(suppressions, used, report))
        report.findings.sort()
        return report

    def _dead_pragmas(self, suppressions, used, report):
        """Findings for pragma ids that suppressed nothing this run.

        Only judged for ids in the active rule set (a ``--select
        RL003`` run cannot tell whether an RL005 pragma is live), plus
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


def _unreadable(display, exc):
    """The RL000 finding for a file that cannot be read."""
    return Finding(path=display, line=1, col=0, rule=PARSE_RULE_ID,
                   severity="error", message=f"file cannot be read: {exc}")


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
    tail = (f" ({report.suppressed_pragma} pragma-suppressed)"
            if report.suppressed_pragma else "")
    lines.append(f"checked {report.files_checked} file(s): "
                 f"{len(report.findings)} finding(s){tail}")
    return "\n".join(lines)


def format_json(report):
    """The documented JSON schema, indented and newline-terminated."""
    return json.dumps(report.to_dict(), indent=2)
