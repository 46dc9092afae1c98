"""Measure the full-tree cost of the repro.lint static-analysis gate.

Usage:  python benchmarks/bench_lint.py

Times one complete two-pass lint of the library in its two operating
modes — **cold** (no incremental cache: discovery + parse + all rules
+ the whole-program pass) and **warm** (a prewarmed cache: pass 1
served from disk, pass 2 live) — and, for scale, the engine's cost
components in isolation: parse-only (rules disabled) and a
single-rule RL003 run. Each
configuration is timed as the *minimum* over ``--repeats`` rounds —
the standard microbenchmark estimator for the noise-free cost — and
the rounds interleave the configurations so interpreter warm-up hits
them alike.

Writes the committed ``BENCH_lint.json`` at the repo root with two
explicit budgets: the gate runs inside tier-1 CI on every change, so a
cold run must stay under ``--budget-cold`` (default 5 s) and the warm
run every iteration loop actually experiences under ``--budget-warm``
(default 1.5 s). Exit status 1 when either is over budget.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.lint import (  # noqa: E402
    LintCache,
    LintEngine,
    all_rule_classes,
    walk_source_tree,
)

OUTPUT = ROOT / "BENCH_lint.json"


def _configurations(cache_path):
    """Name -> (engine factory, cache factory) per timed configuration."""
    return [
        ("full_cold", lambda: LintEngine(), lambda: None),
        ("full_warm", lambda: LintEngine(),
         lambda: LintCache(cache_path)),
        ("parse_only", lambda: LintEngine(rules=[]), lambda: None),
        ("rl003_only", lambda: LintEngine(select=["RL003"]),
         lambda: None),
    ]


def _one_run_seconds(factory, cache_factory, files):
    engine = factory()
    cache = cache_factory()
    start = time.perf_counter()
    report = engine.lint_paths(files, cache=cache)
    seconds = time.perf_counter() - start
    hits = cache.hits if cache is not None else 0
    return seconds, report, hits


def measure(repeats=5):
    """Min-of-N timings for each configuration; returns the report dict."""
    files = list(walk_source_tree())
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = pathlib.Path(tmp) / "lint_cache.json"
        configs = _configurations(cache_path)
        times = {name: [] for name, _, _ in configs}
        reports = {}
        hits = {}
        # warm-up round: imports, the evidence corpus, and — for the
        # warm configuration — the cache file itself
        for name, factory, cache_factory in configs:
            _one_run_seconds(factory, cache_factory, files)
        for round_no in range(repeats):
            order = configs[round_no % len(configs):] + \
                configs[:round_no % len(configs)]
            for name, factory, cache_factory in order:
                seconds, report, run_hits = _one_run_seconds(
                    factory, cache_factory, files)
                times[name].append(seconds)
                reports[name] = report
                hits[name] = run_hits
    full = reports["full_cold"]
    best = {name: min(vals) for name, vals in times.items()}
    return {
        "benchmark": "repro.lint full-tree gate",
        "config": {
            "repeats": int(repeats),
            "timing": "min seconds per configuration, rounds interleaved",
            "rules": [cls.id for cls in all_rule_classes()],
        },
        "tree": {
            "files": full.files_checked,
            "findings": len(full.findings),
            "pragma_suppressed": full.suppressed_pragma,
            "warm_cache_hits": hits["full_warm"],
        },
        "timings": {
            "full_cold_s": round(best["full_cold"], 4),
            "full_warm_s": round(best["full_warm"], 4),
            "parse_only_s": round(best["parse_only"], 4),
            "rl003_only_s": round(best["rl003_only"], 4),
            "rules_overhead_s": round(
                best["full_cold"] - best["parse_only"], 4),
            "cache_speedup": round(
                best["full_cold"] / max(best["full_warm"], 1e-9), 1),
            "ms_per_file_cold": round(1000.0 * best["full_cold"]
                                      / max(full.files_checked, 1), 3),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--budget-cold", type=float, default=5.0,
                        help="max allowed cold full-tree seconds "
                             "(default 5.0)")
    parser.add_argument("--budget-warm", type=float, default=1.5,
                        help="max allowed warm (cached) full-tree seconds "
                             "(default 1.5)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure without rewriting BENCH_lint.json")
    args = parser.parse_args(argv)

    report = measure(repeats=args.repeats)
    cold_s = report["timings"]["full_cold_s"]
    warm_s = report["timings"]["full_warm_s"]
    report["summary"] = {
        "budget_cold_s": args.budget_cold,
        "budget_warm_s": args.budget_warm,
        "within_budget": (cold_s <= args.budget_cold
                          and warm_s <= args.budget_warm),
    }
    if not args.no_write:
        OUTPUT.write_text(json.dumps(report, indent=2) + "\n",
                          encoding="utf-8")
        print(f"wrote {OUTPUT}")
    print(f"full tree: {report['tree']['files']} files, "
          f"cold {cold_s:.3f}s (budget {args.budget_cold:.1f}s), "
          f"warm {warm_s:.3f}s (budget {args.budget_warm:.1f}s, "
          f"{report['tree']['warm_cache_hits']} cache hits, "
          f"{report['timings']['cache_speedup']}x) -> "
          f"{'OK' if report['summary']['within_budget'] else 'OVER BUDGET'}")
    return 0 if report["summary"]["within_budget"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
