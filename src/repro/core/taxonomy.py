"""Machine-readable version of the tutorial's taxonomy (slides 20-22, 116).

Every algorithm in this library registers a :class:`TaxonomyEntry`
describing where it sits along the tutorial's axes:

* **search space** — original space / orthogonal transformations /
  subspace projections / multiple given views or sources;
* **processing** — iterative vs. simultaneous (or n/a for generators);
* **given knowledge** — whether a prior clustering is required;
* **number of clusterings** — exactly two, >= 2, one (consensus), ...;
* **subspace/view detection** — none, dissimilarity-aware, given views;
* **flexibility** — exchangeable cluster definition vs. specialised.

The registry regenerates the comparison table of slide 116 from the code
itself (experiment **T1**).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ValidationError

__all__ = [
    "ESTIMATOR_PACKAGES",
    "SearchSpace",
    "Processing",
    "TaxonomyEntry",
    "register",
    "get_entry",
    "all_entries",
    "render_table",
]

#: The algorithm subpackages whose ``__all__`` exports define the
#: estimator population: the estimators the server offers, the ones
#: ``tools/check_estimator_contract.py`` checks, and the scope of lint
#: rule ``RL007``.
ESTIMATOR_PACKAGES = (
    "repro.cluster",
    "repro.originalspace",
    "repro.subspace",
    "repro.transform",
    "repro.multiview",
)


class SearchSpace:
    """Search-space axis values (slide 21)."""

    ORIGINAL = "original"
    TRANSFORMED = "transformed"
    SUBSPACES = "subspaces"
    MULTI_SOURCE = "multi-source"

    ALL = (ORIGINAL, TRANSFORMED, SUBSPACES, MULTI_SOURCE)


class Processing:
    """Processing axis values (slide 22)."""

    ITERATIVE = "iterative"
    SIMULTANEOUS = "simultaneous"
    INDEPENDENT = "independent"

    ALL = (ITERATIVE, SIMULTANEOUS, INDEPENDENT)


@dataclass(frozen=True)
class TaxonomyEntry:
    """One row of the slide-116 comparison table."""

    key: str                    # registry key, e.g. "coala"
    reference: str              # citation, e.g. "Bae & Bailey, 2006"
    search_space: str
    processing: str
    given_knowledge: bool       # requires a given clustering?
    n_clusterings: str          # "2", ">=2", "1"
    view_detection: str         # "", "dissimilarity", "no dissimilarity", "given views"
    flexible_definition: bool   # exchangeable cluster definition?
    estimator: str = ""         # dotted class name
    notes: str = field(default="")

    def __post_init__(self):
        if self.search_space not in SearchSpace.ALL:
            raise ValidationError(f"unknown search space {self.search_space!r}")
        if self.processing not in Processing.ALL:
            raise ValidationError(f"unknown processing {self.processing!r}")
        if self.n_clusterings not in {"1", "2", ">=2"}:
            raise ValidationError(f"unknown n_clusterings {self.n_clusterings!r}")


_REGISTRY: dict[str, TaxonomyEntry] = {}


def register(entry):
    """Register a taxonomy entry (idempotent for identical entries)."""
    existing = _REGISTRY.get(entry.key)
    if existing is not None and existing != entry:
        raise ValidationError(f"conflicting taxonomy entry for key {entry.key!r}")
    _REGISTRY[entry.key] = entry
    return entry


def get_entry(key):
    """Look up a registered entry by key."""
    try:
        return _REGISTRY[key]
    except KeyError as exc:
        raise ValidationError(f"no taxonomy entry registered for {key!r}") from exc


def all_entries():
    """All entries, ordered by search space (paradigm) then key — the order
    used by the slide-116 table."""
    order = {s: i for i, s in enumerate(SearchSpace.ALL)}
    return sorted(_REGISTRY.values(), key=lambda e: (order[e.search_space], e.key))


def render_table(entries=None):
    """Render entries as a fixed-width text table (experiment T1)."""
    if entries is None:
        entries = all_entries()
    headers = [
        "algorithm", "reference", "space", "processing", "given know.",
        "#clusterings", "view detection", "flexibility",
    ]
    rows = [
        [
            e.key,
            e.reference,
            e.search_space,
            e.processing,
            "given clustering" if e.given_knowledge else "no",
            f"m == {e.n_clusterings}" if e.n_clusterings in {"1", "2"} else "m >= 2",
            e.view_detection or "-",
            "exchang. def." if e.flexible_definition else "specialized",
        ]
        for e in entries
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
