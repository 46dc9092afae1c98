"""Alternating A/B runs of one perfbench workload in two checkouts.

Usage:  python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
            --pairs N [--seed S] [--out FILE]

Each pair runs ``python3 perfbench/run.py`` once in each checkout, and
the side that goes first alternates from pair to pair (the parent opens
pair 0), so a drift in host speed lands on both sides. The metric names,
units, bounds and better directions come from the parent's
``BENCHMARK.json``, and every run lasts its ``run_seconds``. Only
the last line of each run's output, its JSON result, is read, and
nothing in either checkout is written by this script.

For every end-to-end metric the report gives each side's median and
quartiles, the pairs the change won (a tie counts for neither side),
whether the median gap exceeds the parent's interquartile range, and
whether the change's median is worse than the parent's by more than the
metric's bound. ``--out FILE`` also writes all of it as one JSON
record (:func:`build_record`), with the host it ran on and every run's
value, so a speed claim can be committed as ``BENCH_<workload>.json``.
Exit status: 0; 1 when a run failed or reported ``correct: false``, or
a metric is past its bound; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import subprocess
import sys

#: Environment variables that set the BLAS thread pools of the runs.
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def quantile(values, q):
    """Linearly interpolated ``q``-quantile of ``values`` (NumPy's
    default rule)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(spec, parent, change):
    """Compare one metric over paired runs.

    ``spec`` is the metric's ``BENCHMARK.json`` entry (``better`` and
    ``bound``); ``parent[i]`` and ``change[i]`` come from pair ``i``.
    Returns the quartiles ``(q1, median, q3)`` of each side, the pairs
    each side won, whether the medians differ in the change's favour by
    more than the parent's interquartile range (``clears_iqr``), and
    whether the change's median is worse than the parent's by more than
    ``bound`` times the parent's median (``past_bound``).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if spec["better"] == "lower" else -1.0
    # gain > 0: the change is better
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p_q = tuple(quantile(parent, q) for q in (0.25, 0.5, 0.75))
    c_q = tuple(quantile(change, q) for q in (0.25, 0.5, 0.75))
    median_gain = sign * (p_q[1] - c_q[1])
    return {
        "parent": p_q,
        "change": c_q,
        "wins": sum(g > 0 for g in gains),
        "losses": sum(g < 0 for g in gains),
        "pairs": len(gains),
        "clears_iqr": median_gain > p_q[2] - p_q[0],
        "past_bound": -median_gain > spec["bound"] * abs(p_q[1]),
    }


def host_info():
    """What the runs' speed depends on besides the code: core count,
    Python and NumPy versions, and the BLAS thread settings (``None``
    where unset) that the benchmark subprocesses inherit."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_ENV},
    }


def build_record(workload, seed, seconds, host, specs, values, bad_runs):
    """The ``--out`` record of one comparison, and the :func:`summarize`
    result of each metric.

    ``values[side]`` lists each run's ``{metric: value}`` in pair order.
    Each end-to-end metric gets its verdicts, the quartiles of both
    sides and the values of every run.
    """
    metrics, summaries = {}, {}
    for spec in specs:
        name = spec["name"]
        runs = {side: [v[name] for v in values[side]]
                for side in ("parent", "change")}
        summary = summaries[name] = summarize(spec, runs["parent"],
                                              runs["change"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **{side: dict(zip(("q1", "median", "q3"), summary[side]))
               for side in ("parent", "change")},
            **{key: summary[key] for key in ("wins", "losses",
                                             "clears_iqr", "past_bound")},
            "runs": runs,
        }
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "pairs": len(values["parent"]),
        "order": "alternating, parent first in even pairs",
        "host": host,
        "bad_runs": bad_runs,
        "metrics": metrics,
    }, summaries


def run_once(checkout, workload, seed, seconds):
    """The JSON result on the last line of one ``perfbench/run.py``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def render(specs, summaries):
    rows = [f"{'metric':<16} {'parent q1/med/q3':>26} "
            f"{'change q1/med/q3':>26} {'wins':>6} {'>IQR':>5} bound"]
    for spec in specs:
        s = summaries[spec["name"]]
        sides = ["/".join(f"{v:.4g}" for v in s[side])
                 for side in ("parent", "change")]
        clears = "yes" if s["clears_iqr"] else "no"
        rows.append(
            f"{spec['name']:<16} {sides[0]:>26} {sides[1]:>26} "
            f"{s['wins']:>2}/{s['pairs']:<3} {clears:>5} "
            f"{'WORSE' if s['past_bound'] else 'ok'}")
    return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the comparison as a JSON record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    catalog = json.loads(
        (args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in catalog["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = catalog["run_seconds"]
    specs = catalog["end_to_end"]
    values = {"parent": [], "change": []}
    bad_runs = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                            "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed,
                              seconds)
            bad_runs += (not result["correct"]) or result["failed"] > 0
            values[side].append({name: m["value"] for name, m
                                 in result["metrics"].items()})
            sys.stderr.write(
                f"pair {pair} {side}: correct={result['correct']} "
                f"failed={result['failed']} " + " ".join(
                    f"{s['name']}={values[side][-1][s['name']]:.4g}"
                    for s in specs) + "\n")
    record, summaries = build_record(args.workload, args.seed, seconds,
                                     host_info(), specs, values, bad_runs)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pair(s), "
          f"{seconds:g} s runs; runs not correct or with failures: "
          f"{bad_runs}")
    print(render(specs, summaries))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")
    past = any(s["past_bound"] for s in summaries.values())
    return 1 if bad_runs or past else 0


if __name__ == "__main__":
    sys.exit(main())
