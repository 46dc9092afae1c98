"""A2 — dec-kmeans lambda x restarts ablation."""

from repro.experiments import run_a2_deckmeans_restarts


def test_a2_deckmeans_restarts(show_table):
    table = run_a2_deckmeans_restarts(n_seeds=5)
    show_table(table)
    rows = {(r["lam"], r["n_init"]): r for r in table.rows}
    assert rows[(5.0, 20)]["both_truths_rate"] > rows[(0.0, 20)][
        "both_truths_rate"]
