"""F14 — consensus over extracted views stabilises clustering."""

from repro.experiments import run_f14_consensus


def test_f14_consensus(show_table):
    table = run_f14_consensus(n_samples=200, n_runs=8)
    show_table(table)
    rows = {r["method"]: r for r in table.rows}
    ens = [v for k, v in rows.items() if "ensemble" in k][0]
    single = [v for k, v in rows.items() if k.startswith("single")][0]
    assert ens["ari_std"] <= single["ari_std"] + 1e-9
