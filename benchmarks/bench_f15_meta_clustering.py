"""F15 — meta clustering: duplication of blind generation."""

from repro.experiments import run_f15_meta_clustering


def test_f15_meta_clustering(show_table):
    table = run_f15_meta_clustering(n_samples=160, n_base=40)
    show_table(table)
    rows = {r["quantity"]: r["value"] for r in table.rows}
    assert rows["duplicate pair rate (diss < 0.05)"] > 0.1
