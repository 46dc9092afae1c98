"""Core abstractions: containers, estimator bases, objectives, taxonomy.

This package carries the tutorial's actual contribution — the common
problem statement (slide 27) and the taxonomy of approaches (slides
20-22, 116) — as executable code the concrete algorithms plug into.
"""

from .base import (
    AlternativeClusterer,
    BaseClusterer,
    MultiClusteringEstimator,
    ParamsMixin,
)
from .clustering import Clustering, cross_tabulate
from .objectives import (
    MultipleClusteringObjective,
    quality_silhouette,
)
from .pipeline import IterativeAlternativePipeline
from .subspace import SubspaceCluster, SubspaceClustering
from .taxonomy import (
    Processing,
    SearchSpace,
    TaxonomyEntry,
    all_entries,
    get_entry,
    register,
    render_table,
)

__all__ = [
    "AlternativeClusterer",
    "BaseClusterer",
    "MultiClusteringEstimator",
    "ParamsMixin",
    "Clustering",
    "cross_tabulate",
    "MultipleClusteringObjective",
    "quality_silhouette",
    "IterativeAlternativePipeline",
    "SubspaceCluster",
    "SubspaceClustering",
    "Processing",
    "SearchSpace",
    "TaxonomyEntry",
    "all_entries",
    "get_entry",
    "register",
    "render_table",
]
