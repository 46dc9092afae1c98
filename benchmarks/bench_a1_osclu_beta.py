"""A1 — OSCLU concept-width beta ablation (slide 82 extremes)."""

from repro.experiments import run_a1_osclu_beta


def test_a1_osclu_beta(show_table):
    table = run_a1_osclu_beta()
    show_table(table)
    rows = {r["beta"]: r for r in table.rows}
    assert rows[0.4]["near_duplicate_survives"] is False
    assert rows[1.0]["near_duplicate_survives"] is True
