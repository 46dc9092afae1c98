"""A5 — fixed vs adaptive grid on a border-straddling cluster."""

from repro.experiments import run_a5_adaptive_grid


def test_a5_adaptive_grid(show_table):
    table = run_a5_adaptive_grid()
    show_table(table)
    f1 = {r["method"]: r["object_f1"] for r in table.rows}
    assert f1["MAFIA (adaptive windows)"] >= f1["CLIQUE (fixed grid)"]
