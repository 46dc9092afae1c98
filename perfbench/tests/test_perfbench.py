"""Smoke-size tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that a corrupted label is counted as a failure, that the
traced run leaves no wrapper behind, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import panel  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402

SMOKE = ["--scale", "0.1", "--seconds", "0.5"]
WORKLOADS = ("fit-panel", "sweep", "serve-mix")


def _catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), *SMOKE],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced_outputs():
    return {workload: _run(workload, 1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    end_to_end, _ = _catalog()
    out = _run(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in end_to_end}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_runs_produce_every_per_layer_metric(traced_outputs):
    _, per_layer = _catalog()
    units = {spec["name"]: spec["unit"] for spec in per_layer}
    produced = set()
    for workload, out in traced_outputs.items():
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"], workload
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        layers = next(line for line in lines if line.startswith("layers "))
        produced |= set(json.loads(layers[len("layers "):]))
    # zero-filled entries are layers a workload does not run; every
    # metric must be measured by at least one workload
    assert sorted(set(units) - produced) == []


def test_serve_mix_reports_cached_path_verdict(traced_outputs):
    out = traced_outputs["serve-mix"].stdout
    assert "cached-path verdict: verify (hit)" in out
    assert "checksums per hit" in out


class _Ctx:
    def __init__(self, workdir, trace, reference=None):
        self.seed = self.default_seed = 0
        self.seconds = 0.1
        self.trace = trace
        self.scale = 0.1
        self.reference = reference or {}
        self.workdir = pathlib.Path(workdir)
        self.started = 0.0
        self.setup_only = False


def test_corrupted_label_counts_in_failed_frac(tmp_path, monkeypatch):
    reference = {}
    entries = panel.build_panel(0, 0.1)
    for state in range(panel.STATES):
        for entry, _, output, _, error in panel.run_pass(entries, state):
            assert error is None
            reference[entry.key(state)] = {
                "digest": output[0], "objective": output[1], "floor": None}
    clean = panel.run(_Ctx(tmp_path, trace=True, reference=reference))
    assert clean["failures"] == []
    assert clean["layers"]["failed_frac"][0] == 0.0

    from repro.cluster import KMeans

    fit = KMeans.fit

    def corrupted_fit(self, X, *args, **kwargs):
        fitted = fit(self, X, *args, **kwargs)
        self.labels_ = self.labels_.copy()
        self.labels_[0] = (self.labels_[0] + 1) % self.n_clusters
        return fitted

    monkeypatch.setattr(KMeans, "fit", corrupted_fit)
    outcome = panel.run(_Ctx(tmp_path, trace=True, reference=reference))
    assert any("KMeans" in line and "differs from reference" in line
               for line in outcome["failures"])
    assert outcome["layers"]["failed_frac"][0] > 0
    result = bench.build_result(outcome, trace=False)
    assert result["failed"] == len(outcome["failures"])
    assert result["correct"] is False


def test_traced_runs_remove_their_wrappers(tmp_path):
    import repro.cluster.kmeans as kmeans_module
    import repro.robustness.pool as pool
    import repro.utils.linalg as linalg

    original = linalg.cdist_sq
    recorder = spans.Recorder()
    installation = spans.install(recorder, dump_dir=tmp_path)
    try:
        assert spans.wrapped_bindings()
        assert kmeans_module.cdist_sq is not original
        linalg.pairwise_sq_distances(panel.make_data(40, 0)[0])
        names = [span[2] for span in recorder.spans]
        assert names == ["linalg.cdist_sq", "linalg.pairwise_sq_distances"]
    finally:
        installation.remove()
    assert spans.wrapped_bindings() == []
    assert kmeans_module.cdist_sq is original
    assert not hasattr(pool._pool_worker_main, spans.ORIGINAL_ATTR)

    outcome = sweep.run(_Ctx(tmp_path, trace=True))
    assert outcome["failures"] == []
    assert outcome["layers"]["checkpoint.records"][0] > 0
    assert spans.wrapped_bindings() == []


def test_host_speed_probes_only_in_its_window():
    import common

    host = common.HostSpeed()
    window = host.open(burst=3)
    host.sample(2)
    slowdown = host.close(window, burst=3)
    assert len(host.slowdowns) == 8
    # every probe runs the same fixed work, so none reads zero
    assert min(host.slowdowns) > 0
    assert slowdown == host.slowdown(0) == host.last
    assert "host slowdown" in host.describe()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-panel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout == ""
