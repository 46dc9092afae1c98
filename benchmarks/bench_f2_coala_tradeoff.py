"""F2 — COALA's w trade-off between quality and dissimilarity."""

from repro.experiments import run_f2_coala_tradeoff


def test_f2_coala_tradeoff(show_table):
    table = run_f2_coala_tradeoff(n_samples=160)
    show_table(table)
    diss = table.column("dissimilarity_to_given")
    assert diss[0] > diss[-1]
