"""multiclust — multiple clustering solutions library.

A production-oriented reproduction of the tutorial *"Discovering Multiple
Clustering Solutions: Grouping Objects in Different Views of the Data"*
(Müller, Günnemann, Färber, Seidl; SDM 2011 / ICDE 2012).

Subpackages
-----------
``repro.core``
    Containers (Clustering, SubspaceCluster), estimator base classes,
    the Q/Diss objective of slide 27, and the taxonomy registry.
``repro.cluster``
    Traditional single-solution substrates (k-means, EM/GMM, DBSCAN,
    agglomerative, spectral, k-medoids).
``repro.metrics``
    Quality and dissimilarity measures at object / clustering /
    clusterings / subspace level.
``repro.data``
    Synthetic generators with planted multiple ground truths.
``repro.originalspace``
    Paradigm 1: multiple clusterings in the original data space.
``repro.transform``
    Paradigm 2: orthogonal space transformations.
``repro.subspace``
    Paradigm 3: clusters in subspace projections.
``repro.multiview``
    Paradigm 4: multiple given views/sources and consensus.
``repro.experiments``
    The benchmark harness regenerating the tutorial's tables/figures.
``repro.robustness``
    Fault-tolerant run layer: budgets, retries, structured failures,
    and fault injection (see ``docs/robustness.md``).
``repro.observability``
    Instrumentation layer: tracing spans, metrics registry, convergence
    telemetry, and logging (see ``docs/observability.md``).
``repro.lint``
    AST static-analysis gate enforcing the determinism/purity/contract
    invariants (see ``docs/static-analysis.md``). Development tooling:
    ``import repro`` does not load it; import ``repro.lint`` directly.
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    cluster,
    core,
    data,
    io,
    metrics,
    observability,
    robustness,
    utils,
)
from .core import (
    Clustering,
    MultipleClusteringObjective,
    SubspaceCluster,
    SubspaceClustering,
)

__all__ = [
    "__version__",
    "cluster",
    "core",
    "data",
    "io",
    "metrics",
    "observability",
    "robustness",
    "utils",
    "Clustering",
    "MultipleClusteringObjective",
    "SubspaceCluster",
    "SubspaceClustering",
]
