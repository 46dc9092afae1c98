"""Command-line front-end for the lint engine.

Usage::

    PYTHONPATH=src python -m repro.lint                  # lint src/repro
    PYTHONPATH=src python -m repro.lint --format json path/to/file.py
    PYTHONPATH=src python -m repro.lint --select RL003,RL004

Exit status: 0 — clean (all findings fixed or pragma-suppressed),
1 — unsuppressed findings, 2 — usage error.
"""

from __future__ import annotations

import argparse
import sys

from .engine import LintEngine, all_rule_classes, format_human, format_json

__all__ = ["main"]

_FORMATS = {
    "human": format_human,
    "json": format_json,
}


def _rule_ids(value):
    """``"RL001, rl002"`` -> ``["RL001", "RL002"]``."""
    return [part.strip().upper() for part in value.split(",") if part.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST static-analysis gate enforcing the library's "
                    "determinism, purity and contract invariants "
                    "(see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=sorted(_FORMATS), default="human",
        help="output format (json follows the documented schema)",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RL0xx[,..]",
        help="run only these rule ids (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RL0xx[,..]",
        help="skip these rule ids (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules():
    for cls in all_rule_classes():
        print(f"{cls.id}  {cls.title} [{cls.severity}]")
        print(f"       {cls.rationale}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()

    select = sum((_rule_ids(v) for v in args.select), []) \
        if args.select else None
    ignore = sum((_rule_ids(v) for v in args.ignore), []) \
        if args.ignore else None
    try:
        engine = LintEngine(select=select, ignore=ignore)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.paths:
        paths = args.paths
    else:
        from .walk import PACKAGE_ROOT

        paths = [PACKAGE_ROOT]
    report = engine.lint_paths(paths)
    print(_FORMATS[args.format](report))
    return 0 if report.ok else 1
