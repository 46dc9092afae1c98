"""F4 — alternative clustering via learned space transformations."""

from repro.experiments import run_f4_transformation


def test_f4_transformation(show_table):
    table = run_f4_transformation(n_samples=160)
    show_table(table)
    rows = {r["method"]: r for r in table.rows}
    assert rows["Davidson&Qi 2008 (SVD stretcher inversion)"][
        "ari_vs_secondary_truth"] > 0.9
