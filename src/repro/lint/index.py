"""Whole-program index: the pass-2 view the cross-module rules query.

Pass 1 of the engine analyses each file in isolation (parse, then one
walk that runs the per-file rules and records facts); this module
assembles those per-file results into one project-wide structure for
pass 2:

* a **module graph** — every linted file becomes a :class:`ModuleRecord`
  with a dotted module name derived from its package layout, and the
  import statements each file declared are resolved *within the indexed
  set* into edges (``repro.robustness.pool`` → ``repro.observability``);
* an **import-time closure** — :meth:`ProgramIndex.import_closure`
  follows only module-top-level imports, because that is what actually
  executes when a pool worker forks and re-imports nothing (rule
  ``RL012`` reasons about exactly this set);
* a **fact store** — whatever each rule recorded per file during the
  walk, keyed by rule id then module name;
* the **docs corpus** — the hand-written markdown next to the tree
  (``docs/*.md`` minus the generated ``api.md``), which rule ``RL017``
  accepts as usage evidence for an export.

Module names are derived structurally — walk up from the file while an
``__init__.py`` marks the parent as a package — so a fixture tree under
``tmp/repro/serve/thing.py`` indexes as ``repro.serve.thing`` exactly
like the shipped tree, and the cross-module rules are testable against
temporary directories.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["ModuleRecord", "ProgramIndex", "module_name_for_path"]


def module_name_for_path(path):
    """Dotted module name and package flag for a source file.

    Climbs parent directories for as long as they contain an
    ``__init__.py``, so ``src/repro/serve/api.py`` names
    ``repro.serve.api`` regardless of where the checkout lives.

    Returns
    -------
    (str, bool)
        The dotted name and whether the file is a package
        ``__init__.py`` (relative imports resolve differently there).
    """
    path = Path(path)
    parts = []
    is_package = path.name == "__init__.py"
    if not is_package:
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package
        parts.append(path.parent.name or path.stem)
    return ".".join(reversed(parts)), is_package


def resolve_import(module, is_package, target, level):
    """Absolute dotted name of an import target seen inside ``module``.

    ``level`` is the ``ast.ImportFrom`` relative-import level (0 for
    absolute). Returns ``None`` when the relative import climbs above
    the indexed root.
    """
    if not level:
        return target or None
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if level - 1 > 0 and not parts:
        return None
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base or None


class ModuleRecord:
    """One indexed file: identity, import edges, and per-rule facts."""

    def __init__(self, path, name, is_package, facts, imports):
        #: Display path (repo-relative posix where possible).
        self.path = path
        #: Dotted module name (``repro.serve.api``).
        self.name = name
        #: Whether the file is a package ``__init__.py``.
        self.is_package = is_package
        #: ``{rule id: the facts that rule recorded during the walk}``.
        self.facts = facts or {}
        #: Raw import declarations: list of dicts with ``module``,
        #: ``names``, ``level``, ``toplevel``, ``line`` (see the
        #: engine's ``_ImportFacts``).
        self.imports = imports or []

    def resolved_imports(self, toplevel_only=False):
        """Absolute dotted names this module imports (best effort)."""
        out = []
        for imp in self.imports:
            if toplevel_only and not imp.get("toplevel"):
                continue
            target = resolve_import(self.name, self.is_package,
                                    imp.get("module"), imp.get("level", 0))
            if target is None:
                continue
            out.append((target, imp))
        return out


class ProgramIndex:
    """Project-wide view over all :class:`ModuleRecord` entries."""

    def __init__(self, records, docs_corpus=""):
        self.records = list(records)
        #: First record wins on a (pathological) duplicate module name.
        self.modules = {}
        for record in self.records:
            self.modules.setdefault(record.name, record)
        self.docs_corpus = docs_corpus or ""
        self._edges = None

    # -- fact access -------------------------------------------------------

    def facts(self, rule_id):
        """``{module name: facts}`` for modules where ``rule_id``
        recorded something."""
        out = {}
        for record in self.records:
            if rule_id in record.facts:
                out[record.name] = record.facts[rule_id]
        return out

    def module(self, name):
        """The :class:`ModuleRecord` for ``name``, or ``None``."""
        return self.modules.get(name)

    def path_of(self, name):
        record = self.modules.get(name)
        return record.path if record else name

    # -- the import graph --------------------------------------------------

    def _import_edges(self):
        """``{module: {imported module within the index}}`` following
        only import-time (module-top-level) imports."""
        if self._edges is not None:
            return self._edges
        edges = {}
        for record in self.records:
            targets = set()
            for target, imp in record.resolved_imports(toplevel_only=True):
                targets |= self._targets_in_index(target, imp)
            edges[record.name] = targets
        self._edges = edges
        return edges

    def _targets_in_index(self, target, imp):
        """Index members an import statement actually loads.

        ``from pkg import name`` loads ``pkg`` *and* ``pkg.name`` when
        the latter is itself a module; importing a package loads its
        ``__init__`` which may fan out further (handled transitively by
        the closure walk).
        """
        found = set()
        probe = target
        while probe:
            if probe in self.modules:
                found.add(probe)
                break
            probe = probe.rpartition(".")[0]
        for name in imp.get("names") or ():
            dotted = f"{target}.{name}"
            if dotted in self.modules:
                found.add(dotted)
        return found

    def import_closure(self, seeds):
        """Modules transitively imported at import time from ``seeds``.

        Seeds outside the index are ignored; the result includes the
        seeds themselves (when indexed).
        """
        edges = self._import_edges()
        frontier = [s for s in seeds if s in self.modules]
        closure = set(frontier)
        while frontier:
            current = frontier.pop()
            for nxt in edges.get(current, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    frontier.append(nxt)
        return closure
