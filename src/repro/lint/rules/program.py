"""The whole-program rule pack: cross-module invariants (RL012–RL018).

These rules cannot be judged one file at a time: fork-safety depends on
the *import closure* of the pool-worker entry points, lock discipline
on every method of a class taken together, metric-name consistency on
one catalog versus call sites spread across packages, and dead exports
on the absence of a reference anywhere in the tree. Each rule therefore
splits in two: its ``visit`` records facts about one file in
``ctx.facts`` during the engine's single walk (deciding "top level",
"inside a function" and "lock held" from ``ctx.ancestors``), and its
``check_program`` judges the assembled
:class:`~repro.lint.index.ProgramIndex` in pass 2. ``RL014`` is
per-file: it groups nodes by scope during the walk and judges each
scope in ``finish``.

Rationale per rule id lives in docs/static-analysis.md.
"""

from __future__ import annotations

import ast
import re

from ...core.taxonomy import ESTIMATOR_PACKAGES
from ..engine import DEAD_PRAGMA_RULE_ID, FUNCTION_TYPES, Rule, register
from ..walk import FORK_ENTRY_POINTS, THREAD_SHARED
from .common import terminal_name

__all__ = []  # rules are reached through the registry, not imports

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_self_attr(node):
    """True for a ``self.<attr>`` expression."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _file_facts(rule, ctx, make):
    """``rule``'s facts for the file being walked, made on first use
    (a file that records nothing has no facts for that rule)."""
    facts = ctx.facts.get(rule.id)
    if facts is None:
        facts = ctx.facts[rule.id] = make()
    return facts


# ---------------------------------------------------------------------------
# RL012 — fork safety


#: Constructors whose product must not exist when ``fork`` happens:
#: a lock forked while held deadlocks the child, a thread simply does
#: not exist there but its bookkeeping does.
_CONCURRENCY_FACTORIES = frozenset({
    "Thread", "Timer", "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier", "ThreadingHTTPServer", "HTTPServer",
    "ThreadingTCPServer", "TCPServer", "ThreadPoolExecutor",
    "ProcessPoolExecutor",
})

#: The call every fork entry point must make before touching metrics.
_REGISTRY_RESET = "reset_default_registry"


@register
class ForkSafety(Rule):
    id = "RL012"
    title = "fork-safety"
    rationale = (
        "Pool workers are forked: whatever their entry modules create "
        "at import time is duplicated mid-state into every child — a "
        "lock forked while held deadlocks, a thread's bookkeeping "
        "survives without its thread, and the fork-inherited metrics "
        "registry double-counts the parent's history into every "
        "worker snapshot. So no module on the workers' import-time "
        "closure may create concurrency primitives at module level, "
        "and every fork entry point must reset the default registry "
        "before doing any work."
    )
    node_types = (ast.Call,) + _DEF_TYPES

    @staticmethod
    def _new_facts():
        return {"module_level": [], "functions": {}}

    def visit(self, node, ctx):
        ancestors = ctx.ancestors
        if not isinstance(node, ast.Call):
            if len(ancestors) == 1:  # a def in the module body
                facts = _file_facts(self, ctx, self._new_facts)
                facts["functions"][node.name] = {"line": node.lineno,
                                                 "calls": set()}
            return ()
        name = terminal_name(node.func)
        if len(ancestors) > 1 and isinstance(ancestors[1], _DEF_TYPES):
            if name is not None:
                facts = _file_facts(self, ctx, self._new_facts)
                facts["functions"][ancestors[1].name]["calls"].add(name)
        if name in _CONCURRENCY_FACTORIES and not ctx.in_function(node):
            facts = _file_facts(self, ctx, self._new_facts)
            facts["module_level"].append((name, node.lineno))
        return ()

    def check_program(self, index):
        facts = index.facts(self.id)
        entry_modules = sorted({module for module, _ in FORK_ENTRY_POINTS})
        closure = index.import_closure(entry_modules)
        for module in sorted(closure):
            data = facts.get(module) or {}
            for name, line in data.get("module_level", ()):
                yield self.program_finding(
                    index.path_of(module), line,
                    f"module-level {name}() is forked mid-state into pool "
                    f"workers (import-time closure of "
                    f"{'/'.join(entry_modules)}); create it lazily inside "
                    "a function or reset it in the fork entry point",
                )
        for module, func in FORK_ENTRY_POINTS:
            data = facts.get(module)
            if data is None:
                continue  # entry module not in this index (fixture tree)
            info = data["functions"].get(func)
            if info is None:
                yield self.program_finding(
                    index.path_of(module), 1,
                    f"fork entry point {func}() not found in {module}; "
                    "update FORK_ENTRY_POINTS in repro.lint.walk after a "
                    "rename",
                )
            elif _REGISTRY_RESET not in info["calls"]:
                yield self.program_finding(
                    index.path_of(module), info["line"],
                    f"fork entry point {func}() never calls "
                    f"{_REGISTRY_RESET}(); the forked child inherits the "
                    "parent registry's contents and double-counts them "
                    "when per-worker snapshots merge",
                )


# ---------------------------------------------------------------------------
# RL013 — lock discipline


_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})
_LOCK_NAME_RE = re.compile(r"lock|mutex|cond(?:ition)?$|sem", re.IGNORECASE)


def _mutated_self_attrs(node):
    """``(attr, line)`` pairs this one statement mutates on ``self``."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    else:
        stack = [node.target]
    out = []
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        elif _is_self_attr(target):
            out.append((target.attr, target.lineno))
        elif isinstance(target, ast.Subscript) and _is_self_attr(target.value):
            out.append((target.value.attr, target.lineno))
    return out


def _methods_around(ancestors):
    """``(class, method)`` pairs enclosing the current node: every def
    that sits directly in a class body on the ancestor chain."""
    return [(ancestors[i], ancestors[i + 1])
            for i in range(len(ancestors) - 1)
            if isinstance(ancestors[i], ast.ClassDef)
            and isinstance(ancestors[i + 1], _DEF_TYPES)]


@register
class LockDiscipline(Rule):
    id = "RL013"
    title = "lock-discipline"
    rationale = (
        "The serve and observability layers are touched by HTTP, "
        "worker, and reaper threads at once. Within one class, an "
        "attribute mutated under 'with self.<lock>:' in one method is "
        "by declaration thread-shared — mutating it lock-free in "
        "another method is a data race with the very synchronisation "
        "the class itself established. __init__ is exempt (no other "
        "thread can hold a reference yet), as are methods that take "
        "the lock manually via .acquire()."
    )
    node_types = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete,
                  ast.Call)

    def _class(self, ctx, cls):
        classes = _file_facts(self, ctx, dict)
        facts = classes.get(id(cls))
        if facts is None:
            facts = classes[id(cls)] = {
                "name": cls.name, "locks": set(), "acquires": {},
                "mutations": [],
            }
        return facts

    def visit(self, node, ctx):
        ancestors = ctx.ancestors
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("acquire", "wait")
                    and _is_self_attr(func.value)):
                for cls, method in _methods_around(ancestors):
                    self._class(ctx, cls)["acquires"].setdefault(
                        id(method), set()).add(func.value.attr)
            return ()
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and terminal_name(node.value.func) in _LOCK_FACTORIES):
            attrs = {t.attr for t in node.targets if _is_self_attr(t)}
            for cls, _ in _methods_around(ancestors):
                self._class(ctx, cls)["locks"].update(attrs)
        mutated = _mutated_self_attrs(node)
        if not mutated:
            return ()
        # the statement must run in a method's own body: nested defs
        # and lambdas run later, on their caller's thread
        for i in range(len(ancestors) - 1, 0, -1):
            if isinstance(ancestors[i], FUNCTION_TYPES):
                break
        else:
            return ()
        method, cls = ancestors[i], ancestors[i - 1]
        if not (isinstance(method, _DEF_TYPES)
                and isinstance(cls, ast.ClassDef)):
            return ()
        held = tuple(
            item.context_expr.attr
            for block in ancestors[i + 1:] if isinstance(block, ast.With)
            for item in block.items if _is_self_attr(item.context_expr)
        )
        mutations = self._class(ctx, cls)["mutations"]
        for attr, line in mutated:
            mutations.append((attr, line, method.name, id(method), held))
        return ()

    @staticmethod
    def _summary(cls):
        """``(guarded, unguarded)``: lock names per attribute mutated
        under a lock, and the lock-free mutations."""
        locks = cls["locks"]

        def is_lock(attr):
            return attr in locks or bool(_LOCK_NAME_RE.search(attr))

        guarded = {}
        unguarded = []
        for attr, line, method_name, method_id, held in cls["mutations"]:
            if is_lock(attr):
                continue  # rebinding the lock itself is out of scope
            held = {name for name in held if is_lock(name)}
            if held:
                guarded.setdefault(attr, set()).update(held)
            else:
                acquires = any(is_lock(name) for name in
                               cls["acquires"].get(method_id, ()))
                unguarded.append((attr, line, method_name, acquires))
        return guarded, unguarded

    def check_program(self, index):
        facts = index.facts(self.id)
        for module in sorted(facts):
            if not any(module.startswith(prefix) or module == prefix[:-1]
                       for prefix in THREAD_SHARED):
                continue
            for cls in facts[module].values():
                guarded, unguarded = self._summary(cls)
                for attr, line, method_name, acquires in unguarded:
                    if attr not in guarded:
                        continue
                    if method_name == "__init__" or acquires:
                        continue
                    locks = "/".join(sorted(guarded[attr]))
                    yield self.program_finding(
                        index.path_of(module), line,
                        f"{cls['name']}.{attr} is guarded by 'with "
                        f"self.{locks}:' elsewhere but mutated lock-free "
                        f"in {method_name}(); thread-shared state "
                        "must take its lock on every mutation",
                    )


# ---------------------------------------------------------------------------
# RL014 — resource lifecycle


#: Calls that hand back an OS resource the caller now owns.
_RESOURCE_FACTORIES = frozenset({
    "open", "SharedMemory", "socket", "NamedTemporaryFile",
    "TemporaryFile", "SpooledTemporaryFile", "mkstemp",
})

#: Methods that release (or transfer) such a resource.
_RELEASE_METHODS = frozenset({
    "close", "unlink", "shutdown", "terminate", "release", "detach",
    "__exit__",
})


def _body_scope(node, ancestors):
    """The def (or the module) whose own body holds ``node``.

    None when a lambda encloses it or it sits in a def's decorators,
    defaults or annotations: those belong to no scope's body.
    """
    child = node
    for parent in reversed(ancestors):
        if isinstance(parent, ast.Lambda):
            return None
        if isinstance(parent, _DEF_TYPES):
            return parent if isinstance(child, ast.stmt) else None
        child = parent
    return ancestors[0]


@register
class ResourceLifecycle(Rule):
    id = "RL014"
    title = "resource-lifecycle"
    rationale = (
        "A SharedMemory segment outlives its process until unlink, a "
        "leaked fd survives until the interpreter exits, and under the "
        "pool's crash quarantine 'the interpreter exits' can be a very "
        "long time after the leak. Every acquired resource must reach "
        "close/unlink, a with block, or visibly escape the function "
        "(returned, stored, passed on) — interprocedural hand-offs "
        "within a module count, silent drops do not."
    )
    node_types = (ast.With, ast.Call, ast.Assign, ast.Return, ast.Yield,
                  ast.YieldFrom)

    def visit(self, node, ctx):
        scope = _body_scope(node, ctx.ancestors)
        if scope is not None:
            scopes = _file_facts(self, ctx, dict)
            scopes.setdefault(id(scope), (scope, []))[1].append(node)
        return ()

    def finish(self, ctx):
        for scope, nodes in ctx.facts.pop(self.id, {}).values():
            yield from self._check_scope(scope, nodes, ctx)

    def _check_scope(self, scope, nodes, ctx):
        where = ("module level" if isinstance(scope, ast.Module)
                 else f"{scope.name}()")
        wrapped = set()  # creation calls already safe by construction
        for node in nodes:
            if isinstance(node, ast.With):
                for item in node.items:
                    call = item.context_expr
                    if self._is_factory(call):
                        wrapped.add(id(call))
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if self._is_factory(arg):
                        wrapped.add(id(arg))  # ownership handed to the callee
        for call in nodes:
            if not self._is_factory(call) or id(call) in wrapped:
                continue
            var = self._bound_name(call, nodes)
            if var is None:
                yield self.finding(
                    ctx, call,
                    f"{terminal_name(call.func)}(...) result in {where} "
                    "is dropped without close/unlink; use a with block",
                )
            elif not self._released(var, nodes):
                yield self.finding(
                    ctx, call,
                    f"{terminal_name(call.func)}(...) bound to {var!r} in "
                    f"{where} never reaches close/unlink/with and never "
                    "escapes; release it on every path",
                )

    @staticmethod
    def _is_factory(node):
        return (isinstance(node, ast.Call)
                and terminal_name(node.func) in _RESOURCE_FACTORIES)

    @staticmethod
    def _bound_name(call, nodes):
        """The simple name the creation is assigned to, if any."""
        for node in nodes:
            if isinstance(node, ast.Assign) and node.value is call:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    return target.id
                if (isinstance(target, ast.Tuple) and target.elts
                        and isinstance(target.elts[0], ast.Name)):
                    return target.elts[0].id  # fd, path = mkstemp()
        return None

    @classmethod
    def _released(cls, var, nodes):
        for node in nodes:
            if isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == var
                        and node.func.attr in _RELEASE_METHODS):
                    return True  # var.close() and friends
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if any(isinstance(n, ast.Name) and n.id == var
                           for n in ast.walk(arg)):
                        return True  # handed to a callee (os.close, closing)
            elif isinstance(node, ast.With):
                if any(isinstance(item.context_expr, ast.Name)
                       and item.context_expr.id == var
                       for item in node.items):
                    return True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None and any(
                        isinstance(n, ast.Name) and n.id == var
                        for n in ast.walk(value)):
                    return True  # ownership passes to the caller
            elif isinstance(node, ast.Assign) and not (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == var):
                if any(isinstance(n, ast.Name) and n.id == var
                       for n in ast.walk(node.value)):
                    return True  # aliased / stored on self — escapes
        return False


# ---------------------------------------------------------------------------
# RL015 — metric-name consistency


_METRIC_CALLEES = frozenset({
    "record", "record_metric", "counter", "gauge", "histogram",
})
_CATALOG_NAMES = ("METRICS", "METRIC_FAMILIES")


def _prometheus_name(name, kind):
    """Mirror of ``repro.observability.registry.prometheus_name`` —
    re-implemented (not imported) so linting never imports the target
    tree; ``tests/test_lint.py`` asserts the two stay identical."""
    base = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not base.startswith("repro_"):
        base = f"repro_{base}"
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


@register
class MetricNameConsistency(Rule):
    id = "RL015"
    title = "metric-name-consistency"
    rationale = (
        "Every metric name recorded anywhere must appear in the one "
        "canonical catalog (repro.observability.catalog.METRICS), every "
        "catalog entry must actually be recorded, dynamic f-string "
        "names must extend a declared family prefix, and the Prometheus "
        "exposition mapping must stay collision-free over the catalog — "
        "otherwise a dashboard scrapes a name the code stopped "
        "emitting, or two internal names collapse into one series."
    )
    node_types = (ast.Call, ast.Assign)

    @staticmethod
    def _new_facts():
        return {"sites": [], "catalog": {}}

    def visit(self, node, ctx):
        if isinstance(node, ast.Assign):
            if len(ctx.ancestors) == 1:  # module body
                self._catalog_entry(node, ctx)
            return ()
        if terminal_name(node.func) not in _METRIC_CALLEES or not node.args:
            return ()
        first = node.args[0]
        sites = _file_facts(self, ctx, self._new_facts)["sites"]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            sites.append({"name": first.value, "line": node.lineno})
        elif isinstance(first, ast.JoinedStr):
            prefix = ""
            if (first.values
                    and isinstance(first.values[0], ast.Constant)
                    and isinstance(first.values[0].value, str)):
                prefix = first.values[0].value
            sites.append({"prefix": prefix, "line": node.lineno})
        return ()

    def _catalog_entry(self, node, ctx):
        target = node.targets[0]
        if not (isinstance(target, ast.Name)
                and target.id in _CATALOG_NAMES
                and isinstance(node.value, ast.Dict)):
            return
        entries = {}
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            kind = ""
            if (isinstance(value, (ast.Tuple, ast.List)) and value.elts
                    and isinstance(value.elts[0], ast.Constant)
                    and isinstance(value.elts[0].value, str)):
                kind = value.elts[0].value
            entries[key.value] = {"line": key.lineno, "kind": kind}
        catalog = _file_facts(self, ctx, self._new_facts)["catalog"]
        catalog["metrics" if target.id == "METRICS" else
                "families"] = entries

    def check_program(self, index):
        facts = index.facts(self.id)
        catalogs = {module: data["catalog"] for module, data in facts.items()
                    if "metrics" in data["catalog"]}
        if not catalogs:
            return  # no catalog in this tree: nothing to be consistent with
        canonical = min(catalogs)  # deterministic pick
        for module in sorted(catalogs):
            if module != canonical:
                yield self.program_finding(
                    index.path_of(module), 1,
                    f"metric catalog declared in both {canonical} and "
                    f"{module}; there must be exactly one canonical "
                    "METRICS registry",
                )
        catalog = catalogs[canonical]
        metrics = catalog["metrics"]
        families = catalog.get("families", {})
        used = set()
        for module in sorted(facts):
            for site in facts[module]["sites"]:
                line = site["line"]
                if "name" in site:
                    name = site["name"]
                    if name in metrics:
                        used.add(name)
                        continue
                    family = self._family_of(name, families)
                    if family is not None:
                        used.add(family)
                        continue
                    yield self.program_finding(
                        index.path_of(module), line,
                        f"metric name {name!r} is not declared in the "
                        f"canonical catalog ({canonical}.METRICS); add a "
                        "catalog row or fix the name",
                    )
                else:
                    prefix = site["prefix"]
                    if prefix in families:
                        used.add(prefix)
                        continue
                    yield self.program_finding(
                        index.path_of(module), line,
                        f"dynamic metric name with constant prefix "
                        f"{prefix!r} does not match any METRIC_FAMILIES "
                        f"key in {canonical}; declare the family or make "
                        "the name a cataloged literal",
                    )
        catalog_path = index.path_of(canonical)
        for name in sorted(metrics):
            if name not in used and self._family_of(name, families) not in \
                    used:
                yield self.program_finding(
                    catalog_path, metrics[name]["line"],
                    f"catalog entry {name!r} is never recorded anywhere "
                    "in the tree; delete the row or restore the call site",
                )
        exposed = {}
        for name in sorted(metrics):
            prom = _prometheus_name(name, metrics[name]["kind"])
            if prom in exposed:
                yield self.program_finding(
                    catalog_path, metrics[name]["line"],
                    f"metric names {exposed[prom]!r} and {name!r} both "
                    f"expose as Prometheus series {prom!r}; rename one — "
                    "the exposition mapping must be collision-free",
                )
            else:
                exposed[prom] = name

    @staticmethod
    def _family_of(name, families):
        for prefix in families:
            if name.startswith(prefix):
                return prefix
        return None


# ---------------------------------------------------------------------------
# RL016 — exception taxonomy


_BANNED_RAISES = frozenset({"Exception", "BaseException", "RuntimeError"})
#: ValueError/TypeError are the sanctioned validation seams;
#: AttributeError is the attribute-protocol seam (``__getattr__`` /
#: ``__setattr__`` must raise it for ``hasattr`` to work); the rest
#: are control-flow protocols, not failure reports.
_ALLOWED_STDLIB_RAISES = frozenset({
    "ValueError", "TypeError", "AttributeError", "NotImplementedError",
    "StopIteration", "SystemExit", "KeyboardInterrupt",
})


@register
class ExceptionTaxonomy(Rule):
    id = "RL016"
    title = "exception-taxonomy"
    rationale = (
        "Callers filter library failures by catching MultiClustError; a "
        "raise Exception / RuntimeError escapes that filter and reads "
        "as an internal bug, while an unsanctioned stdlib type makes "
        "the failure contract ambiguous. Library raises must use the "
        "repro.exceptions taxonomy, or ValueError/TypeError at "
        "validation seams (they are what the taxonomy's ValidationError "
        "itself subclasses)."
    )
    node_types = (ast.Raise, ast.ClassDef)

    @staticmethod
    def _new_facts():
        return {"raises": [], "classes": set()}

    def visit(self, node, ctx):
        if isinstance(node, ast.ClassDef):
            _file_facts(self, ctx, self._new_facts)["classes"].add(node.name)
            return ()
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = terminal_name(exc) if exc is not None else None
        if name and name[:1].isupper():
            _file_facts(self, ctx, self._new_facts)["raises"].append(
                (name, node.lineno))
        return ()

    def check_program(self, index):
        facts = index.facts(self.id)
        defined = set()
        for data in facts.values():
            defined.update(data["classes"])
        for module in sorted(facts):
            for name, line in facts[module]["raises"]:
                if name in _BANNED_RAISES:
                    yield self.program_finding(
                        index.path_of(module), line,
                        f"raise {name} is banned in library code; raise a "
                        "repro.exceptions type (MultiClustError subclass) "
                        "so callers can filter library failures",
                    )
                elif (name not in _ALLOWED_STDLIB_RAISES
                        and name not in defined
                        and not name.endswith("Warning")):
                    yield self.program_finding(
                        index.path_of(module), line,
                        f"raise {name} is outside the exception taxonomy; "
                        "use a repro.exceptions type, or "
                        "ValueError/TypeError at a validation seam",
                    )


# ---------------------------------------------------------------------------
# RL017 — dead exports


@register
class DeadExports(Rule):
    id = "RL017"
    title = "dead-exports"
    rationale = (
        "An __all__ entry nothing imports, references, or documents is "
        "API surface the library promises to keep stable for nobody — "
        "the usual residue of a refactor. Estimator packages are "
        "exempt: their __all__ is the runtime-enumerated estimator "
        "population (servable_estimators, the contract checker), so "
        "every entry is consumed dynamically by construction."
    )
    node_types = (ast.Assign, ast.Attribute)

    @staticmethod
    def _new_facts():
        return {"exports": [], "attrs": set()}

    def visit(self, node, ctx):
        if isinstance(node, ast.Attribute):
            _file_facts(self, ctx, self._new_facts)["attrs"].add(node.attr)
            return ()
        target = node.targets[0]
        if not (len(ctx.ancestors) == 1  # module body
                and isinstance(target, ast.Name)
                and target.id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return ()
        for element in node.value.elts:
            if (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                    and not element.value.startswith("__")):
                _file_facts(self, ctx, self._new_facts)["exports"].append(
                    (element.value, element.lineno))
        return ()

    def check_program(self, index):
        facts = index.facts(self.id)
        evidence = set()
        for record in index.records:
            for imp in record.imports:
                evidence.update(imp["names"])
            data = record.facts.get(self.id)
            if data is not None:
                evidence.update(data["attrs"])
        docs = index.docs_corpus
        for module in sorted(facts):
            if self._estimator_module(module):
                continue
            for name, line in facts[module]["exports"]:
                if name in evidence:
                    continue
                if docs and re.search(rf"\b{re.escape(name)}\b", docs):
                    continue
                yield self.program_finding(
                    index.path_of(module), line,
                    f"__all__ export {name!r} is never imported, "
                    "referenced, documented, or used by tests/tools "
                    "anywhere in the repo; drop the export or document "
                    "the API",
                )

    @staticmethod
    def _estimator_module(module):
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in ESTIMATOR_PACKAGES)


# ---------------------------------------------------------------------------
# RL018 — dead pragmas (detection lives in the engine)


@register
class DeadPragma(Rule):
    id = DEAD_PRAGMA_RULE_ID
    title = "dead-pragma"
    rationale = (
        "A noqa pragma that suppresses nothing is an exemption audit "
        "entry for an exemption that does not exist — usually the "
        "residue of fixed code or a typo'd rule id — and it silently "
        "pre-authorises a future violation. Only judged for rule ids "
        "active in the run (a --select run cannot tell whether other "
        "pragmas are live); unknown ids are always dead. The engine "
        "itself performs the detection, because only the engine sees "
        "which pragmas consumed a finding."
    )
    node_types = ()
