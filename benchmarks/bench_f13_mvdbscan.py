"""F13 — multi-view DBSCAN: union vs intersection."""

from repro.experiments import run_f13_mvdbscan


def test_f13_mvdbscan(show_table):
    table = run_f13_mvdbscan(n_samples=240)
    show_table(table)
    rows = {(r["scenario"], r["method"]): r for r in table.rows}
    assert rows[("sparse views", "union")]["coverage"] > \
        rows[("sparse views", "intersection")]["coverage"]
