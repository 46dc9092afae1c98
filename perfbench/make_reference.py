"""Regenerate ``perfbench/reference.json``.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

The reference pins, at the default seed, the labels digest and the
objective of every panel fit (each of its random states), every sweep
task and every hot-set served model, and records planted-truth recovery
floors that any seed must meet. The floor of an estimator is
``FLOOR_SHARE`` of its lowest adjusted Rand index over ``FLOOR_SEEDS``
seeds (and, in the panel, every random state of each): a broken estimator
scores near 0, while an unlucky seed of a working one stays above half
its worst score. Estimators whose worst score is below ``MIN_SCORE``
(the density and subspace miners, on these views) get no floor. Fits
run serially in this process; the benchmark then checks that the pool
and the server reproduce them. Regenerate only when a change to the program is meant
to change its results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

FLOOR_SEEDS = range(16)
FLOOR_SHARE = 0.5
MIN_SCORE = 0.1
DEFAULT_SEED = 0


def _floor(scores):
    if any(score is None for score in scores) or min(scores) < MIN_SCORE:
        return None
    return round(FLOOR_SHARE * min(scores), 4)


def panel_reference():
    import panel
    from common import recovery

    reference = {}
    scores = {}
    for seed in FLOOR_SEEDS:
        entries = panel.build_panel(seed)
        for state in range(panel.STATES):
            for entry, _, output, _, error in panel.run_pass(entries, state):
                if error is not None:
                    raise SystemExit(f"{entry.name} ({entry.tier}) failed "
                                     f"at seed {seed}: {error}")
                digest, objective, labelings = output
                base = entry.key(state).rsplit("/", 1)[0]
                scores.setdefault(base, []).append(
                    recovery(labelings, entry.truths))
                if seed == DEFAULT_SEED:
                    reference[entry.key(state)] = {"digest": digest,
                                                   "objective": objective}
    for key, entry in reference.items():
        entry["floor"] = _floor(scores[key.rsplit("/", 1)[0]])
    return reference


def sweep_reference():
    import sweep
    from common import recovery

    reference = {}
    scores = {}
    for seed in FLOOR_SEEDS:
        grid = sweep.Grid(seed)
        for key, body in grid.experiments().items():
            row = body().rows[0]
            cls, data_index, _ = grid.tasks[key]
            scores.setdefault(cls.__name__, []).append(
                recovery([row["labels"]], grid.data[data_index][1]))
            if seed == DEFAULT_SEED:
                reference[f"sweep/{key}/{grid.n}"] = {
                    "digest": row["digest"], "objective": row["objective"]}
    for name, values in scores.items():
        reference[f"sweep-floor/{name}/{sweep.TASK_N}"] = _floor(values)
    return reference


def serve_reference():
    import servemix
    from common import fit_output
    from repro.cluster import KMeans

    X = servemix.make_dataset()
    reference = {}
    for seed in servemix.hot_seeds_for(DEFAULT_SEED):
        digest, objective, _ = fit_output(
            KMeans(**servemix.PARAMS, random_state=seed).fit(X), X.shape[0])
        reference[f"serve/{seed}"] = {"digest": digest,
                                      "objective": objective}
    return reference


def main():
    reference = {}
    reference.update(panel_reference())
    reference.update(sweep_reference())
    reference.update(serve_reference())
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(reference)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
