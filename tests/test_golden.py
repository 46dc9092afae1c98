"""Golden outputs: seed-exact results of the hierarchical, alternative
and spectral clusterers, of the density-based miners (DBSCAN, SUBCLU,
PreDeCon, DUSC, FIRES), of kernel k-means and of the k-means and EM
substrate, pinned across refactors and kernel optimisations.

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


def test_named_families_rewrite_only_those(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(gen_golden, "GOLDEN_DIR", tmp_path)
    assert gen_golden.main(["kmeans"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["kmeans.json"]
    assert gen_golden.main(["--check", "kmeans"]) == 0
    assert gen_golden.main(["kmeans", "no-such-family"]) == 2
    assert "no-such-family" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kmeans.json"]
