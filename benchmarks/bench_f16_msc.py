"""F16 — mSC: HSIC penalty enforces non-redundant spectral views."""

from repro.experiments import run_f16_msc


def test_f16_msc(show_table):
    table = run_f16_msc(n_samples=150, n_seeds=5)
    show_table(table)
    rows = {r["lam"]: r for r in table.rows}
    assert rows[2.0]["mean_pairwise_hsic"] < rows[0.0]["mean_pairwise_hsic"]
