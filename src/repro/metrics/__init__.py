"""Quality and (dis-)similarity measures.

Three levels, mirroring slide 24 of the tutorial:

* between **objects** — distances live in :mod:`repro.utils.linalg`;
* within one **clustering** — :mod:`repro.metrics.internal` (quality ``Q``);
* between **clusterings** — :mod:`repro.metrics.partition`,
  :mod:`repro.metrics.information`, :mod:`repro.metrics.clusterings`
  (dissimilarity ``Diss``);
* between **subspaces/views** — :mod:`repro.metrics.subspace`,
  :mod:`repro.metrics.hsic`.
"""

from .clusterings import (
    ProfileBinning,
    adco_dissimilarity,
    adco_similarity,
    ari_dissimilarity,
    density_profile,
    mean_pairwise_dissimilarity,
    rand_dissimilarity,
    vi_dissimilarity,
)
from .contingency import (
    contingency_matrix,
    pair_confusion,
    pair_confusions,
    relabel_consecutive,
)
from .external import clustering_accuracy, f_measure, purity
from .hsic import hsic, linear_hsic, normalized_hsic
from .information import (
    conditional_entropy,
    entropy_of_distribution,
    entropy_of_labels,
    mutual_information,
    normalized_mutual_information,
    variation_of_information,
)
from .internal import compactness, davies_bouldin, dunn_index, silhouette_score, sse
from .multiset import MultipleClusteringReport, solution_truth_matrix
from .partition import (
    adjusted_rand_index,
    agreement_matrix,
    fowlkes_mallows,
    jaccard_index,
    pair_precision_recall_f1,
    rand_index,
)
from .subspace import (
    clustering_error,
    micro_object_count,
    pair_f1_subspace,
    redundancy_ratio,
    rnia,
    subspace_coverage,
)

__all__ = [
    "ProfileBinning",
    "adco_dissimilarity",
    "adco_similarity",
    "ari_dissimilarity",
    "density_profile",
    "mean_pairwise_dissimilarity",
    "rand_dissimilarity",
    "vi_dissimilarity",
    "contingency_matrix",
    "pair_confusion",
    "pair_confusions",
    "relabel_consecutive",
    "clustering_accuracy",
    "f_measure",
    "purity",
    "hsic",
    "linear_hsic",
    "normalized_hsic",
    "conditional_entropy",
    "entropy_of_distribution",
    "entropy_of_labels",
    "mutual_information",
    "normalized_mutual_information",
    "variation_of_information",
    "compactness",
    "MultipleClusteringReport",
    "solution_truth_matrix",
    "davies_bouldin",
    "dunn_index",
    "silhouette_score",
    "sse",
    "adjusted_rand_index",
    "agreement_matrix",
    "fowlkes_mallows",
    "jaccard_index",
    "pair_precision_recall_f1",
    "rand_index",
    "clustering_error",
    "micro_object_count",
    "pair_f1_subspace",
    "redundancy_ratio",
    "rnia",
    "subspace_coverage",
]
