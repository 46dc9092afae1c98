"""A4 — base-miner runtime vs dimensionality."""

from repro.experiments import run_a4_miner_scaling


def test_a4_miner_scaling(show_table):
    table = run_a4_miner_scaling()
    show_table(table)
    subclu = [r for r in table.rows if r["miner"] == "SUBCLU"]
    assert subclu[-1]["seconds"] >= subclu[0]["seconds"]
