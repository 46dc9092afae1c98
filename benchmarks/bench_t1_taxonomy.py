"""T1 — regenerate the slide-116 taxonomy comparison table."""

from repro.experiments import run_t1_taxonomy


def test_t1_taxonomy_table(show_table):
    table = run_t1_taxonomy()
    show_table(table)
    assert len(table.rows) >= 20
