"""``tools/perf_pairs.py``'s summary of paired benchmark runs: wins with
ties for neither side, interpolated quartiles, the interquartile-range
test and the bound check in both metric directions, and the ``--out``
JSON record (host, quartiles, verdicts and every run's value)."""

import importlib.util
import json
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _TOOL)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

LOWER = {"name": "op_p90_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_ops", "better": "higher", "bound": 0.25}


def test_quantiles_interpolate_linearly():
    assert perf_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert perf_pairs.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
    assert perf_pairs.quantile([1.0, 2.0, 3.0, 4.0], 0.75) == 3.25
    assert perf_pairs.quantile([7.0], 0.25) == 7.0


def test_wins_and_ties_lower_is_better():
    s = perf_pairs.summarize(LOWER, [10.0, 10.0, 10.0, 10.0],
                             [9.0, 10.0, 11.0, 8.0])
    assert (s["wins"], s["losses"], s["pairs"]) == (2, 1, 4)
    assert s["parent"] == (10.0, 10.0, 10.0)
    assert s["change"] == (8.75, 9.5, 10.25)


def test_wins_higher_is_better():
    s = perf_pairs.summarize(HIGHER, [80.0, 82.0, 84.0], [90.0, 82.0, 70.0])
    assert (s["wins"], s["losses"]) == (1, 1)


def test_iqr_and_bound_lower_is_better():
    parent = [30.0, 33.0, 34.0, 35.0, 36.0]
    faster = perf_pairs.summarize(LOWER, parent, [28.0] * 5)
    assert faster["clears_iqr"] and not faster["past_bound"]
    within = perf_pairs.summarize(LOWER, parent, [34.5] * 5)
    assert not within["clears_iqr"] and not within["past_bound"]
    # 34 * 1.25 = 42.5: 42 is within the bound, 43 past it
    assert not perf_pairs.summarize(LOWER, parent, [42.0] * 5)["past_bound"]
    assert perf_pairs.summarize(LOWER, parent, [43.0] * 5)["past_bound"]


def test_bound_higher_is_better():
    parent = [100.0] * 3
    assert not perf_pairs.summarize(HIGHER, parent, [76.0] * 3)["past_bound"]
    assert perf_pairs.summarize(HIGHER, parent, [74.0] * 3)["past_bound"]
    assert perf_pairs.summarize(HIGHER, parent, [130.0] * 3)["clears_iqr"]


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        perf_pairs.summarize(LOWER, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        perf_pairs.summarize(LOWER, [], [])


SPECS = [dict(LOWER, unit="ms"), dict(HIGHER, unit="1/s")]
HOST = {"cores": 2, "python": "3.12.0", "numpy": "2.0.0",
        "blas_threads": {"OMP_NUM_THREADS": "1"}}


def _values(parent_p90, change_p90):
    return {side: [{"op_p90_ms": p90, "throughput_ops": 100.0}
                   for p90 in runs]
            for side, runs in (("parent", parent_p90),
                               ("change", change_p90))}


def test_record_holds_host_quartiles_and_verdicts():
    values = _values([30.0, 33.0, 34.0, 35.0, 36.0], [28.0] * 5)
    record, summaries = perf_pairs.build_record(
        "serve-mix", 7, 20, HOST, SPECS, values, 0)
    assert {k: v for k, v in record.items() if k != "metrics"} == {
        "workload": "serve-mix", "seed": 7, "run_seconds": 20, "pairs": 5,
        "order": "alternating, parent first in even pairs", "host": HOST,
        "bad_runs": 0}
    assert record["metrics"]["op_p90_ms"] == {
        "unit": "ms", "better": "lower", "bound": 0.25,
        "parent": {"q1": 33.0, "median": 34.0, "q3": 35.0},
        "change": {"q1": 28.0, "median": 28.0, "q3": 28.0},
        "wins": 5, "losses": 0, "clears_iqr": True, "past_bound": False,
        "runs": {"parent": [30.0, 33.0, 34.0, 35.0, 36.0],
                 "change": [28.0] * 5}}
    flat = record["metrics"]["throughput_ops"]
    assert (flat["wins"], flat["losses"], flat["clears_iqr"],
            flat["past_bound"]) == (0, 0, False, False)
    assert summaries["op_p90_ms"]["parent"] == (33.0, 34.0, 35.0)


def test_host_info_reads_the_blas_thread_env(monkeypatch):
    for name in perf_pairs.BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    host = perf_pairs.host_info()
    assert host["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert host["blas_threads"]["OMP_NUM_THREADS"] is None
    assert host["cores"] >= 1 and host["numpy"]


def test_out_writes_the_record(tmp_path, monkeypatch, capsys):
    catalog = {"run_seconds": 20, "workloads": [{"name": "serve-mix"}],
               "end_to_end": SPECS}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(catalog))
    p90 = {"parent": iter([40.0, 41.0]), "change": iter([30.0, 31.0])}
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return {"correct": True, "failed": 0, "metrics": {
            "op_p90_ms": {"value": next(p90[checkout.name])},
            "throughput_ops": {"value": 100.0}}}

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_serve-mix.json"
    assert perf_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                            "--workload", "serve-mix", "--pairs", "2",
                            "--out", str(out)]) == 0
    assert calls == ["parent", "change", "change", "parent"]
    record = json.loads(out.read_text())
    assert record["pairs"] == 2 and record["host"]["cores"] >= 1
    assert record["metrics"]["op_p90_ms"]["runs"] == {
        "parent": [40.0, 41.0], "change": [30.0, 31.0]}
    assert record["metrics"]["op_p90_ms"]["wins"] == 2
    assert "op_p90_ms" in capsys.readouterr().out
