"""The initial rule pack: the library's actual invariants, as lint rules.

Every rule encodes something the repo already promises elsewhere —
DESIGN.md's pure-NumPy substrates, docs/robustness.md's estimator
contract, docs/observability.md's logging-only output — so a violation
is a broken promise, not a style nit. Rationale per rule id lives in
docs/static-analysis.md.
"""

from __future__ import annotations

import ast
import re

from ..engine import Rule, register
from ..walk import IMPORT_POLICY, PRINT_ALLOWED, path_under
from .common import names_in as _names_in
from .common import terminal_name as _terminal_name

__all__ = []  # rules are reached through the registry, not imports

#: How ``numpy`` is spelled in this codebase.
_NUMPY_ALIASES = ("np", "numpy")

#: ``np.random.<name>`` accesses that construct seedable generators
#: rather than touching the process-global RNG.
_SAFE_NP_RANDOM = frozenset({
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
})

#: Callables that build a fresh generator from a seed: calling one of
#: these inside a loop restarts the stream every iteration.
_RESEED_CALLEES = frozenset({
    "default_rng",
    "check_random_state",
    "RandomState",
})

#: Constructors whose call as a default argument shares state the same
#: way a literal does.
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "Counter",
    "OrderedDict", "deque",
})

#: First ``fit`` parameter names that mark a class as a data estimator
#: (mirrors ``fit_family`` in tools/check_estimator_contract.py).
_DATA_FIRST_PARAMS = frozenset({
    "X", "views", "candidates", "labelings", "data",
})


def _is_np_random_attr(node):
    """True for ``np.random.<attr>`` / ``numpy.random.<attr>``."""
    value = node.value
    return (isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in _NUMPY_ALIASES)


@register
class SeededRngThreading(Rule):
    id = "RL001"
    title = "seeded-rng-threading"
    rationale = (
        "Replicability requires one seeded Generator threaded through "
        "the whole fit: global-RNG draws depend on import order and "
        "sibling estimators, and re-seeding inside a loop replays the "
        "same stream every iteration (restarts stop being independent)."
    )
    node_types = (ast.Attribute, ast.Call, ast.ImportFrom)

    def visit(self, node, ctx):
        if isinstance(node, ast.Attribute):
            if _is_np_random_attr(node) and node.attr not in _SAFE_NP_RANDOM:
                yield self.finding(
                    ctx, node,
                    f"np.random.{node.attr} draws from the process-global "
                    "RNG; thread a seeded Generator "
                    "(check_random_state(random_state)) instead",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[:2] == ["numpy",
                                                             "random"]:
                for alias in node.names:
                    if alias.name != "*" and alias.name not in _SAFE_NP_RANDOM:
                        yield self.finding(
                            ctx, node,
                            f"importing {alias.name!r} from numpy.random "
                            "exposes the process-global RNG; use "
                            "default_rng/Generator",
                        )
        else:
            yield from self._visit_call(node, ctx)

    def _visit_call(self, node, ctx):
        name = _terminal_name(node.func)
        if name == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node,
                "default_rng() without a seed is nondeterministic; pass "
                "random_state through check_random_state",
            )
            return
        if name not in _RESEED_CALLEES:
            return
        loops = ctx.enclosing_loops()
        if not loops:
            return
        loop_vars = set()
        for loop in loops:
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                loop_vars |= _names_in(loop.target)
        args = list(node.args) + [kw.value for kw in node.keywords]
        varying = any(_names_in(arg) & loop_vars for arg in args)
        if not varying:
            yield self.finding(
                ctx, node,
                f"{name}(...) inside a loop re-seeds an identical stream "
                "every iteration; create the Generator once before the "
                "loop and thread it through (or derive a per-iteration "
                "seed from the loop variable)",
            )


def _policy_for(module):
    """The ``IMPORT_POLICY`` row covering ``module``, or None."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        row = IMPORT_POLICY.get(".".join(parts[:end]))
        if row is not None:
            return row
    return None


@register
class ImportPolicy(Rule):
    id = "RL002"
    title = "import-policy"
    rationale = (
        "Some modules may be imported only under one package, or "
        "nowhere (IMPORT_POLICY in repro.lint.walk). sklearn, scipy and "
        "pandas nowhere: the library's claim is that ~20 algorithms are "
        "comparable on one pure-NumPy substrate, and a stray import "
        "silently changes numerics. Process pools and executors only in "
        "repro/robustness/, whose pool has process groups, heartbeat "
        "deadlines, crash quarantine and journal shards. HTTP servers "
        "only in repro/serve/, which brings backpressure, budgets, "
        "caching and tracing. Each justified exception carries a pragma."
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Attribute)

    def visit(self, node, ctx):
        if isinstance(node, ast.Attribute):
            if node.attr in ("Pool", "ThreadPool"):
                yield from self._judge(ctx, node,
                                       f"multiprocessing.{node.attr}",
                                       f"use of .{node.attr}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from self._judge(ctx, node, alias.name,
                                       f"import of {alias.name!r}")
        elif not node.level:  # a relative import is always in-library
            module = node.module or ""
            targets = ([module] if _policy_for(module) is not None
                       else [f"{module}.{a.name}" for a in node.names])
            for target in targets:
                yield from self._judge(ctx, node, target,
                                       f"import of {target!r}")

    def _judge(self, ctx, node, module, what):
        row = _policy_for(module)
        if row is None:
            return
        allowed, reason = row
        if allowed is None:
            yield self.finding(ctx, node, f"{what} is banned: {reason}")
        elif not path_under(ctx.path, allowed):
            yield self.finding(ctx, node,
                               f"{what} outside {allowed}: {reason}")


@register
class NoPrint(Rule):
    id = "RL003"
    title = "no-print"
    rationale = (
        "Library diagnostics go through the repro.* loggers; a bare "
        "print corrupts machine-read output (JSONL traces, report "
        "markdown) and cannot be silenced by the embedding application. "
        "Docstrings and comments are exempt by construction (the rule "
        "matches name nodes, not text)."
    )
    node_types = (ast.Name,)

    def visit(self, node, ctx):
        if node.id == "print" and not any(path_under(ctx.path, area)
                                          for area in PRINT_ALLOWED):
            yield self.finding(
                ctx, node,
                "print in library code (use "
                "repro.observability.get_logger instead)",
            )


def _catches_base_exception(handler_type):
    """True when the except clause names ``BaseException``."""
    nodes = (handler_type.elts if isinstance(handler_type, ast.Tuple)
             else [handler_type])
    for node in nodes:
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
        if name == "BaseException":
            return True
    return False


@register
class NoSwallowedInterrupt(Rule):
    id = "RL004"
    title = "no-swallowed-interrupt"
    rationale = (
        "A bare except: (or except BaseException) swallows "
        "KeyboardInterrupt and SystemExit, so Ctrl-C cannot stop a "
        "sweep and the crash-safe worker layer cannot reap children. "
        "Handlers that re-raise are exempt."
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node, ctx):
        broad = node.type is None or _catches_base_exception(node.type)
        if not broad:
            return
        reraises = any(isinstance(n, ast.Raise) and n.exc is None
                       for n in ast.walk(node))
        if reraises:
            return
        clause = ("bare 'except:'" if node.type is None
                  else "'except BaseException'")
        yield self.finding(
            ctx, node,
            f"{clause} swallows KeyboardInterrupt/SystemExit; catch "
            "Exception (or narrower) or re-raise",
        )


def _is_float_literal(node):
    """True for ``1.5`` / ``-1.5`` / ``+1.5`` literal expressions."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class NoFloatEquality(Rule):
    id = "RL005"
    title = "no-float-equality"
    rationale = (
        "Exact == / != against a float literal is unstable under "
        "floating-point arithmetic and silently elementwise on arrays; "
        "metrics guards must use inequalities or tolerances "
        "(np.isclose), or justify exactness with a pragma."
    )
    node_types = (ast.Compare,)

    def visit(self, node, ctx):
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left, *node.comparators]
        if any(_is_float_literal(operand) for operand in operands):
            yield self.finding(
                ctx, node,
                "== / != against a float literal; compare with a "
                "tolerance (np.isclose) or restructure the guard as an "
                "inequality",
            )


@register
class NoMutableDefault(Rule):
    id = "RL006"
    title = "no-mutable-default"
    rationale = (
        "A mutable default argument is created once and shared by every "
        "call — estimator state leaks across fits and across instances. "
        "Default to None (or a tuple) and build the object inside."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(self, node, ctx):
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                yield self.finding(
                    ctx, default,
                    "mutable default argument is shared across calls; "
                    "default to None (or a tuple) and create the object "
                    "inside the function",
                )

    @staticmethod
    def _is_mutable(node):
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and _terminal_name(node.func) in _MUTABLE_FACTORIES)


def _first_fit_param(fit):
    """Name of the first non-self parameter of a ``fit`` def, or None."""
    params = [a.arg for a in (*fit.args.posonlyargs, *fit.args.args)]
    params = [p for p in params if p not in ("self", "cls")]
    if params:
        return params[0]
    if fit.args.vararg is not None:
        return fit.args.vararg.arg
    return None


def _self_fitted_targets(stmt):
    """``self.<name>_`` attribute targets assigned by one statement."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return
    for target in targets:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr.endswith("_")
                and not target.attr.endswith("__")):
            yield target


@register
class EstimatorContract(Rule):
    id = "RL007"
    title = "estimator-contract-static"
    rationale = (
        "The static half of the runtime estimator contract: fitted "
        "(trailing-underscore) attributes are results, so they may only "
        "be computed in fit — __init__ declares them as None — and a "
        "class exposing fit(X) must be get_params-clonable so RunGuard "
        "can retry-with-reseed it."
    )
    node_types = (ast.ClassDef,)

    def visit(self, node, ctx):
        methods = {m.name: m for m in node.body
                   if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        fit = methods.get("fit")
        if fit is None:
            return
        if _first_fit_param(fit) not in _DATA_FIRST_PARAMS:
            return  # wrapper (e.g. RunGuard.fit(estimator, ...)), not data
        if not node.bases and "get_params" not in methods:
            yield self.finding(
                ctx, node,
                f"estimator {node.name} defines fit but neither inherits "
                "nor defines get_params; derive from ParamsMixin so the "
                "run layer can clone/reseed it",
            )
        for name, method in methods.items():
            if name == "fit":
                continue
            if name.startswith("_") and name != "__init__":
                continue  # private helpers are presumed fit-internal
            yield from self._check_method(node, name, method, ctx)

    def _check_method(self, cls, name, method, ctx):
        declaring = name == "__init__"
        for stmt in ast.walk(method):
            for target in _self_fitted_targets(stmt):
                value = getattr(stmt, "value", None)
                is_none = (isinstance(value, ast.Constant)
                           and value.value is None)
                if declaring and is_none:
                    continue  # the declare-unfitted-as-None idiom
                where = ("declared with a non-None value in __init__"
                         if declaring else f"assigned in {name}")
                yield self.finding(
                    ctx, stmt,
                    f"fitted attribute self.{target.attr} {where}; "
                    "fitted attributes are computed in fit only "
                    "(__init__ may declare them as None)",
                )


_PARAM_ENTRY_RE = re.compile(
    r"^(\*{0,2}[A-Za-z_]\w*(?:\s*,\s*\*{0,2}[A-Za-z_]\w*)*)\s*(?::.*)?$"
)


def _indent(line):
    return len(line) - len(line.lstrip())


def _is_underline(line):
    stripped = line.strip()
    return bool(stripped) and set(stripped) == {"-"}


def _documented_params(doc):
    """Parameter names declared in a numpydoc ``Parameters`` section."""
    lines = doc.splitlines()
    names = []
    for i in range(len(lines) - 1):
        if lines[i].strip() != "Parameters" or not _is_underline(lines[i + 1]):
            continue
        header_indent = _indent(lines[i])
        j = i + 2
        while j < len(lines):
            line = lines[j]
            if not line.strip():
                j += 1
                continue
            indent = _indent(line)
            if indent < header_indent:
                break
            if indent == header_indent:
                if j + 1 < len(lines) and _is_underline(lines[j + 1]):
                    break  # next section header (Returns, Raises, ...)
                match = _PARAM_ENTRY_RE.match(line.strip())
                if match is None:
                    break  # free text: treat the section as over
                for name in match.group(1).split(","):
                    names.append(name.strip().lstrip("*"))
            j += 1
        break
    return names


@register
class DocstringSignatureSync(Rule):
    id = "RL008"
    title = "docstring-signature-sync"
    rationale = (
        "A Parameters section naming an argument the signature no "
        "longer has is documentation lying about the API — the usual "
        "residue of a rename. Signature parameters missing from the "
        "docstring are tolerated (docstrings may document a subset)."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node, ctx):
        if node.name.startswith("_"):
            return
        doc = ast.get_docstring(node)
        if not doc:
            return
        documented = _documented_params(doc)
        if not documented:
            return
        args = node.args
        sig = {a.arg for a in (*args.posonlyargs, *args.args,
                               *args.kwonlyargs)}
        if args.vararg is not None:
            sig.add(args.vararg.arg)
        if args.kwarg is not None:
            sig.add(args.kwarg.arg)
        for name in documented:
            if name not in sig:
                yield self.finding(
                    ctx, node,
                    f"docstring documents parameter {name!r} but "
                    f"{node.name}'s signature has no such parameter",
                )


@register
class StrictJson(Rule):
    id = "RL010"
    title = "strict-json"
    rationale = (
        "json.dumps/dump with allow_nan=True writes bare NaN/Infinity "
        "tokens, which are not RFC JSON and break strict clients; "
        "non-finite floats must go through repro.io.dumps, which "
        "encodes them as null/string sentinels."
    )
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        if _terminal_name(node.func) not in ("dumps", "dump"):
            return
        for keyword in node.keywords:
            if (keyword.arg == "allow_nan"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True):
                yield self.finding(
                    ctx, node,
                    "json emission with allow_nan=True writes bare "
                    "NaN/Infinity tokens (not RFC JSON); use "
                    "repro.io.dumps, which sanitises non-finite floats",
                )
