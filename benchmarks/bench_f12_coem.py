"""F12 — co-EM vs single-view EM."""

from repro.experiments import run_f12_coem


def test_f12_coem(show_table):
    table = run_f12_coem(n_samples=240)
    show_table(table)
    rows = {r["method"]: r for r in table.rows}
    assert rows["co-EM (both views)"]["ari_vs_truth"] > 0.85
