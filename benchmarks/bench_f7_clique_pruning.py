"""F7 — monotonicity pruning on the subspace lattice."""

from repro.experiments import run_f7_clique_pruning


def test_f7_clique_pruning(show_table):
    table = run_f7_clique_pruning(feature_counts=(6, 8, 10, 12),
                                  n_samples=240)
    show_table(table)
    assert all(r["identical_results"] for r in table.rows)
