"""Golden outputs: seed-exact results of the hierarchical, alternative
and spectral clusterers, pinned across refactors and kernel
optimisations.

``tools/gen_golden.py`` defines the cases and wrote ``tests/golden/``.
Labels and merge pairs must match exactly, floats to rtol 1e-9.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "gen_golden.py"
_spec = importlib.util.spec_from_file_location("gen_golden", _TOOL)
gen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden)


@pytest.mark.parametrize("family", sorted(gen_golden.cases()))
def test_matches_golden(family):
    expected = gen_golden.load(family)
    actual = gen_golden.compute(family)
    assert gen_golden.mismatches(expected, actual) == []


def test_mismatches_reports_labels_and_float_drift():
    expected = {"c": {"labels": [0, 1], "objective": 1.0}}
    assert gen_golden.mismatches(expected, expected) == []
    drifted = {"c": {"labels": [1, 1], "objective": 1.0 + 1e-6}}
    found = gen_golden.mismatches(expected, drifted)
    assert len(found) == 2
    within = {"c": {"labels": [0, 1], "objective": 1.0 + 1e-12}}
    assert gen_golden.mismatches(expected, within) == []
