"""Cluster ensembles (Strehl & Ghosh 2002) — slide 110.

Consensus functions that merge several clusterings of the same objects
into one, maximising shared information:

* **CSPA** — cluster-based similarity partitioning: the co-association
  matrix (fraction of clusterings co-grouping each pair) is reclustered
  (here: average-link agglomeration on ``1 - coassociation``);
* **MCLA-style** label alignment: clusterings are aligned to the first
  via Hungarian matching on cluster overlap, then majority-voted;
* **ANMI** — the average normalised mutual information objective used to
  score a consensus against the ensemble.
"""

from __future__ import annotations

import numpy as np

from ..cluster.hierarchical import LinkageMatrix
from ..core.base import ParamsMixin
from ..core.taxonomy import Processing, SearchSpace, TaxonomyEntry, register
from ..exceptions import ValidationError
from ..metrics.contingency import contingency_matrix
from ..metrics.information import normalized_mutual_information
from ..utils.assignment import min_cost_assignment
from ..utils.validation import check_labels

__all__ = [
    "coassociation_matrix",
    "cspa_consensus",
    "align_labels",
    "majority_vote_consensus",
    "average_nmi",
    "ClusterEnsemble",
]


register(TaxonomyEntry(
    key="ensemble",
    reference="Strehl & Ghosh, 2002",
    search_space=SearchSpace.MULTI_SOURCE,
    processing=Processing.SIMULTANEOUS,
    given_knowledge=False,
    n_clusterings="1",
    view_detection="given views",
    flexible_definition=True,
    estimator="repro.multiview.ensemble.ClusterEnsemble",
    notes="knowledge-reuse consensus; ANMI objective",
))


def _as_label_list(labelings):
    labelings = [check_labels(lab) for lab in labelings]
    if not labelings:
        raise ValidationError("need at least one labeling")
    n = labelings[0].shape[0]
    if any(lab.shape[0] != n for lab in labelings):
        raise ValidationError("all labelings must cover the same objects")
    return labelings, n


def coassociation_matrix(labelings):
    """Fraction of clusterings grouping each object pair together.

    Noise assignments never co-associate.
    """
    labelings, n = _as_label_list(labelings)
    co = np.zeros((n, n))
    for lab in labelings:
        same = (lab[:, None] == lab[None, :]) & (lab[:, None] != -1)
        co += same
    co /= len(labelings)
    np.fill_diagonal(co, 1.0)
    return co


def cspa_consensus(labelings, n_clusters):
    """CSPA: average-link clustering of the co-association similarity."""
    co = coassociation_matrix(labelings)
    d = 1.0 - co
    lm = LinkageMatrix(d, linkage="average")
    lm.cut(n_clusters)
    return lm.current_labels(co.shape[0])


def align_labels(reference, labels):
    """Relabel ``labels`` to best match ``reference`` (Hungarian on the
    contingency overlap). Noise stays noise."""
    ref = check_labels(reference)
    lab = check_labels(labels, n_samples=ref.shape[0])
    mat = contingency_matrix(lab, ref, include_noise=False)
    rows, cols = min_cost_assignment(-mat)
    lab_ids = np.unique(lab[lab != -1])
    ref_ids = np.unique(ref[ref != -1])
    mapping = {}
    for r, c in zip(rows, cols):
        mapping[int(lab_ids[r])] = int(ref_ids[c])
    next_free = (int(ref_ids.max()) + 1) if ref_ids.size else 0
    out = np.full(lab.shape, -1, dtype=np.int64)
    for cid in lab_ids:
        target = mapping.get(int(cid))
        if target is None:
            target = next_free
            next_free += 1
        out[lab == cid] = target
    return out


def majority_vote_consensus(labelings):
    """MCLA-style consensus: align all clusterings to the first, then take
    the per-object majority label (ties broken by lowest label)."""
    labelings, n = _as_label_list(labelings)
    aligned = [labelings[0]]
    for lab in labelings[1:]:
        aligned.append(align_labels(labelings[0], lab))
    stacked = np.stack(aligned)
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        votes = stacked[:, i]
        votes = votes[votes != -1]
        if votes.size == 0:
            out[i] = -1
            continue
        vals, counts = np.unique(votes, return_counts=True)
        out[i] = int(vals[np.argmax(counts)])
    return out


def average_nmi(consensus, labelings):
    """ANMI: mean NMI of the consensus against every ensemble member."""
    labelings, _ = _as_label_list(labelings)
    return float(np.mean([
        normalized_mutual_information(consensus, lab) for lab in labelings
    ]))


class ClusterEnsemble(ParamsMixin):
    """Consensus over a set of labelings.

    Parameters
    ----------
    n_clusters : int — target cluster count of the consensus.
    method : {"cspa", "majority", "best"}
        ``"best"`` runs both and keeps the higher-ANMI result (the
        supra-consensus strategy of Strehl & Ghosh).

    Attributes
    ----------
    labels_ : ndarray — the consensus clustering.
    anmi_ : float — its ANMI against the ensemble.
    method_used_ : str
    """

    def __init__(self, n_clusters=2, method="best"):
        self.n_clusters = n_clusters
        self.method = method
        self.labels_ = None
        self.anmi_ = None
        self.method_used_ = None

    def fit(self, labelings):
        labelings, _ = _as_label_list(labelings)
        candidates = {}
        if self.method in ("cspa", "best"):
            candidates["cspa"] = cspa_consensus(labelings, self.n_clusters)
        if self.method in ("majority", "best"):
            candidates["majority"] = majority_vote_consensus(labelings)
        if not candidates:
            raise ValidationError(f"unknown method {self.method!r}")
        scored = {
            name: (average_nmi(lab, labelings), lab)
            for name, lab in candidates.items()
        }
        name = max(scored, key=lambda m: scored[m][0])
        self.anmi_, self.labels_ = scored[name]
        self.method_used_ = name
        return self

    def fit_predict(self, labelings):
        """Fit and return the consensus labels."""
        return self.fit(labelings).labels_
