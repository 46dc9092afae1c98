"""F5 — successive orthogonal projections peel off views."""

from repro.experiments import run_f5_orthogonal_iterations


def test_f5_orthogonal_iterations(show_table):
    table = run_f5_orthogonal_iterations(n_samples=240)
    show_table(table)
    aris = table.column("best_view_ari")
    assert aris[0] > 0.9
