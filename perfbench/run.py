"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit-panel --seed 0 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 1

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric (layers a
workload does not run report 0). The last line of standard output is
the JSON result; the lines before it are a human report and the
environment stamp. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

#: set-up time counts from here, before NumPy or repro is imported
STARTED = time.perf_counter()

import argparse
import importlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the seed whose outputs ``reference.json`` pins exactly
DEFAULT_SEED = 0

#: set-ups per run: this process's own and fresh ``--setup-only``
#: processes; ``setup_s`` is their median
SETUP_REPEATS = 3

WORKLOADS = {"fit-panel": "panel", "sweep": "sweep", "serve-mix": "servemix"}

# Pin BLAS to one thread before NumPy loads; every process started from
# here (server, pool workers) inherits it. The host has two cores and the
# sweep runs two pool workers, so more threads would oversubscribe it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, args, reference, workdir):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = args.scale
        self.reference = reference
        self.default_seed = DEFAULT_SEED
        self.workdir = workdir
        self.started = STARTED
        self.setup_only = args.setup_only


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (the benchmark's own "
                             "smoke tests); 1 is the measured size")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh process, print "
                             "it and stop (the benchmark runs this itself)")
    return parser.parse_args(argv)


def load_catalog():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def build_result(outcome, trace):
    """The result object: the catalog's metrics in its units; a layer a
    workload does not run reports 0."""
    end_to_end, per_layer = load_catalog()
    produced = outcome["layers"] if trace else outcome["e2e"]
    metrics = {}
    for spec in (per_layer if trace else end_to_end):
        value, unit = produced.get(spec["name"], (0, spec["unit"]))
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit!r}, catalog says "
                             f"{spec['unit']!r}")
        metrics[spec["name"]] = {"value": float(value), "unit": unit}
    failed = len(outcome["failures"])
    return {"correct": failed == 0, "attempted": int(outcome["attempted"]),
            "failed": failed, "metrics": metrics}


def setup_seconds(args):
    """Set-up times of fresh processes; each prints ``setup_s <value>``."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale),
             "--setup-only"], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def run(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import emit, environment_stamp

    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        ctx = Context(args, load_reference(), workdir)
        outcome = module.run(ctx)
        if ctx.setup_only:
            print(f"setup_s {outcome['setup_s']!r}")
            return 0
        times = [outcome["e2e"]["setup_s"][0], *setup_seconds(args)]
        outcome["e2e"]["setup_s"] = (statistics.median(times), "s")
        outcome["report"].append(
            "set-up seconds: " + ", ".join(f"{t:.3f}" for t in times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = build_result(outcome, ctx.trace)
    report = list(outcome["report"])
    report += [f"FAIL {line}" for line in outcome["failures"][:20]]
    if ctx.trace:
        for label in ("e2e", "layers"):
            report.append(f"{label} " + json.dumps(
                {k: v[0] for k, v in outcome[label].items()},
                sort_keys=True))
    emit(result, environment_stamp(), report)
    return 0


if __name__ == "__main__":
    sys.exit(run())
