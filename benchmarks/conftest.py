"""Benchmark-suite helpers.

Each ``bench_*`` file regenerates one tutorial table/figure: it runs
the experiment once, prints its :class:`ResultTable` (so running the
suite reproduces EXPERIMENTS.md) and asserts the claim's shape.
Per-experiment seconds come from ``python -m repro run <id>``.
"""

import pytest


@pytest.fixture
def show_table(capsys):
    """Print a ResultTable to the real terminal (past capture)."""

    def _show(table):
        with capsys.disabled():
            print()
            print(table.render())
        return table

    return _show
