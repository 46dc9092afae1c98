"""F8 — SCHISM's dimensionality-adaptive density threshold."""

from repro.experiments import run_f8_schism_threshold


def test_f8_schism_threshold(show_table):
    table = run_f8_schism_threshold(n_samples=300)
    show_table(table)
    rows = {r["quantity"]: r["value"] for r in table.rows}
    assert rows["schism found cluster in hidden subspace"] is True
