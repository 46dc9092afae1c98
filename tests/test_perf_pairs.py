"""``tools/perf_pairs.py``'s summary of paired benchmark runs: wins with
ties for neither side, interpolated quartiles, the interquartile-range
test and the bound check in both metric directions."""

import importlib.util
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
