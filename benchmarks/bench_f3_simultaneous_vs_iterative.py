"""F3 — naive chaining vs conditioning on all previous solutions."""

from repro.experiments import run_f3_simultaneous_vs_iterative


def test_f3_simultaneous_vs_iterative(show_table):
    table = run_f3_simultaneous_vs_iterative(n_samples=160)
    show_table(table)
    rows = {r["strategy"]: r for r in table.rows}
    assert rows["naive chain: C3 = alt(C2) only"][
        "min_pairwise_dissimilarity"] < 0.1
