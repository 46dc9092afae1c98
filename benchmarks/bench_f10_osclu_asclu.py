"""F10 — orthogonal concepts and subspace alternatives."""

from repro.experiments import run_f10_osclu_asclu


def test_f10_osclu_asclu(show_table):
    table = run_f10_osclu_asclu(n_samples=240)
    show_table(table)
    rows = {r["quantity"]: r["value"] for r in table.rows}
    assert rows["ASCLU reuses known concept"] is False
