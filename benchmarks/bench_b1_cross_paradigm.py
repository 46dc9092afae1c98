"""B1 — cross-paradigm benchmark over the scenario suite."""

from repro.experiments import run_b1_cross_paradigm


def test_b1_cross_paradigm(show_table):
    table = run_b1_cross_paradigm(scenarios=("toy2", "views3"))
    show_table(table)
    toy = [r for r in table.rows if r["scenario"] == "toy2"]
    assert all(r["recovery"] == 1.0 for r in toy)
