"""F1 — the slide-26 toy: recovering the second 2-partition."""

from repro.experiments import run_f1_toy_alternatives


def test_f1_toy_alternatives(show_table):
    table = run_f1_toy_alternatives(n_samples=160)
    show_table(table)
    rows = {r["method"]: r for r in table.rows}
    assert rows["COALA (alt)"]["ari_vs_secondary_truth"] > 0.9
