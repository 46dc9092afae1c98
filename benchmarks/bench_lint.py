"""Measure the full-tree cost of the repro.lint static-analysis gate.

Usage:  python benchmarks/bench_lint.py

Times one complete two-pass lint of the library — discovery, parse, the
one walk of each file with every rule, and the whole-program pass — and,
for scale, the parse-only component (no rules). Each configuration is
timed as the *minimum* over ``--repeats`` rounds — the standard
microbenchmark estimator for the noise-free cost — and the rounds
interleave the configurations so interpreter warm-up hits them alike.

Writes the committed ``BENCH_lint.json`` at the repo root with one
explicit budget: the gate runs inside tier-1 CI and ``repro check`` on
every change, so a full-tree lint must stay under ``--budget`` (default
1.5 s). Exit status 1 when it is over budget.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.lint import (  # noqa: E402
    LintEngine,
    all_rule_classes,
    walk_source_tree,
)

OUTPUT = ROOT / "BENCH_lint.json"

#: Name -> engine factory per timed configuration.
CONFIGURATIONS = [
    ("full", lambda: LintEngine()),
    ("parse_only", lambda: LintEngine(rules=[])),
]


def measure(repeats=5):
    """Min-of-N timings for each configuration; returns the report dict."""
    files = list(walk_source_tree())
    times = {name: [] for name, _ in CONFIGURATIONS}
    reports = {}
    # warm-up round: imports and the evidence corpus
    for _, factory in CONFIGURATIONS:
        factory().lint_paths(files)
    for round_no in range(repeats):
        shift = round_no % len(CONFIGURATIONS)
        for name, factory in CONFIGURATIONS[shift:] + CONFIGURATIONS[:shift]:
            engine = factory()
            start = time.perf_counter()
            report = engine.lint_paths(files)
            times[name].append(time.perf_counter() - start)
            reports[name] = report
    full = reports["full"]
    best = {name: min(vals) for name, vals in times.items()}
    return {
        "benchmark": "repro.lint full-tree gate",
        "config": {
            "repeats": int(repeats),
            "timing": "min seconds per configuration, rounds interleaved",
            "rules": [cls.id for cls in all_rule_classes()],
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "tree": {
            "files": full.files_checked,
            "findings": len(full.findings),
            "pragma_suppressed": full.suppressed_pragma,
        },
        "timings": {
            "full_s": round(best["full"], 4),
            "parse_only_s": round(best["parse_only"], 4),
            "rules_overhead_s": round(best["full"] - best["parse_only"], 4),
            "ms_per_file": round(1000.0 * best["full"]
                                 / max(full.files_checked, 1), 3),
            "full_runs_s": [round(t, 4) for t in times["full"]],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--budget", type=float, default=1.5,
                        help="max allowed full-tree seconds (default 1.5)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure without rewriting BENCH_lint.json")
    args = parser.parse_args(argv)

    report = measure(repeats=args.repeats)
    full_s = report["timings"]["full_s"]
    report["summary"] = {
        "budget_s": args.budget,
        "within_budget": full_s <= args.budget,
    }
    if not args.no_write:
        OUTPUT.write_text(json.dumps(report, indent=2) + "\n",
                          encoding="utf-8")
        print(f"wrote {OUTPUT}")
    print(f"full tree: {report['tree']['files']} files, "
          f"{full_s:.3f}s (budget {args.budget:.1f}s), parse only "
          f"{report['timings']['parse_only_s']:.3f}s -> "
          f"{'OK' if report['summary']['within_budget'] else 'OVER BUDGET'}")
    return 0 if report["summary"]["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
