"""F9 — redundancy of raw subspace mining vs selection models."""

from repro.experiments import run_f9_redundancy


def test_f9_redundancy(show_table):
    table = run_f9_redundancy(n_samples=240)
    show_table(table)
    rows = {r["method"]: r for r in table.rows}
    assert rows["CLIQUE (ALL)"]["redundancy_ratio"] > \
        rows["OSCLU (select)"]["redundancy_ratio"]
