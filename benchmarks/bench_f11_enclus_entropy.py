"""F11 — ENCLUS entropy/interest of planted vs noise subspaces."""

from repro.experiments import run_f11_enclus_entropy


def test_f11_enclus_entropy(show_table):
    table = run_f11_enclus_entropy(n_samples=240)
    show_table(table)
    planted = [r for r in table.rows if r["kind"] == "planted"]
    noise = [r for r in table.rows if r["kind"] == "noise"]
    assert min(p["interest"] for p in planted) > \
        max(n["interest"] for n in noise)
