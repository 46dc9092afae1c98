"""F6 — the curse of dimensionality (slide 12)."""

from repro.experiments import run_f6_distance_concentration


def test_f6_distance_concentration(show_table):
    table = run_f6_distance_concentration(dims=(2, 5, 10, 20, 50, 100),
                                          n_samples=120)
    show_table(table)
    contrasts = table.column("relative_contrast")
    assert contrasts[0] > contrasts[-1]
