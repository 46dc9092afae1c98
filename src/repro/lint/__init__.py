"""Static-analysis engine enforcing the library's invariants.

The tutorial's value is that ~20 alternative-clustering algorithms are
comparable under one roof; that only holds if every estimator obeys the
same invariants — seeded RNG threading, pure-NumPy substrates, the
``get_params``/fitted-attribute contract, logging-only output. This
package checks those invariants *statically*, in two passes: pass 1
parses each file and walks its AST exactly once, running the per-file
rules (``RL001``–``RL008``, ``RL010``) and recording each cross-module
rule's facts on the way; pass 2 assembles those facts into a whole-program
index (module/import graph, docs corpus) and runs the cross-module
rules (``RL012``–``RL018``) — fork-safety, lock discipline, resource
lifecycle, metric-name consistency, the exception taxonomy, dead
exports, dead pragmas. Suppression is explicit: inline
``# repro: noqa[RL0xx]`` pragmas, and dead ones are themselves
findings.

Run it as ``python -m repro.lint``, or through ``python -m repro
check`` with the other gates; the rule catalog, suppression policy and
JSON output schema are documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from .engine import (
    DEAD_PRAGMA_RULE_ID,
    Finding,
    LintEngine,
    LintReport,
    PARSE_RULE_ID,
    Rule,
    SCHEMA_VERSION,
    all_rule_classes,
    format_human,
    format_json,
    register,
    resolve_rules,
)
from .index import ModuleRecord, ProgramIndex, module_name_for_path
from . import rules  # noqa: F401 - importing populates the registry
from .walk import PACKAGE_ROOT, PRINT_ALLOWED, walk_source_tree

__all__ = [
    "DEAD_PRAGMA_RULE_ID",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleRecord",
    "PACKAGE_ROOT",
    "PARSE_RULE_ID",
    "PRINT_ALLOWED",
    "ProgramIndex",
    "Rule",
    "SCHEMA_VERSION",
    "all_rule_classes",
    "format_human",
    "format_json",
    "module_name_for_path",
    "register",
    "resolve_rules",
    "walk_source_tree",
]
