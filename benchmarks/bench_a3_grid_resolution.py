"""A3 — CLIQUE grid resolution ablation."""

from repro.experiments import run_a3_grid_resolution


def test_a3_grid_resolution(show_table):
    table = run_a3_grid_resolution()
    show_table(table)
    f1 = {r["n_intervals"]: r["object_f1"] for r in table.rows}
    assert max(f1.values()) > f1[3]  # too-coarse grids lose objects
