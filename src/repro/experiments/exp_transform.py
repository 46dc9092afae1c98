"""Experiments F4-F5 — paradigm 2 (orthogonal space transformations)."""

from __future__ import annotations

import numpy as np

from .harness import ResultTable
from ..cluster.kmeans import KMeans
from ..data.synthetic import make_four_squares, make_multiple_truths
from ..metrics.partition import adjusted_rand_index, agreement_matrix
from ..transform import (
    AlternativeClusteringViaTransformation,
    FlexibleAlternativeClustering,
    OrthogonalClustering,
)

__all__ = ["run_f4_transformation", "run_f5_orthogonal_iterations"]


def run_f4_transformation(n_samples=160, random_state=0):
    """F4 — slides 50-55: after the learned alternative transformation,
    re-running the *same* clusterer yields the other grouping; without a
    transformation it reproduces the given one.
    """
    X, truth_h, truth_v = make_four_squares(
        n_samples=n_samples, random_state=random_state)
    given = KMeans(n_clusters=2, random_state=random_state).fit(X).labels_
    primary_is_h = (adjusted_rand_index(given, truth_h)
                    >= adjusted_rand_index(given, truth_v))
    primary = truth_h if primary_is_h else truth_v
    secondary = truth_v if primary_is_h else truth_h
    table = ResultTable(
        "F4: alternative clustering via space transformation (slides 50-55)",
        ["method", "ari_vs_given", "ari_vs_secondary_truth"],
    )
    rerun = KMeans(n_clusters=2, random_state=random_state + 1).fit(X).labels_
    table.add(method="kmeans rerun (no transform)",
              ari_vs_given=adjusted_rand_index(rerun, given),
              ari_vs_secondary_truth=adjusted_rand_index(rerun, secondary))
    dq = AlternativeClusteringViaTransformation(
        random_state=random_state).fit(X, given)
    table.add(method="Davidson&Qi 2008 (SVD stretcher inversion)",
              ari_vs_given=adjusted_rand_index(dq.labels_, given),
              ari_vs_secondary_truth=adjusted_rand_index(dq.labels_, secondary))
    qd = FlexibleAlternativeClustering(random_state=random_state).fit(X, given)
    table.add(method="Qi&Davidson 2009 (closed-form Sigma~^-1/2)",
              ari_vs_given=adjusted_rand_index(qd.labels_, given),
              ari_vs_secondary_truth=adjusted_rand_index(qd.labels_, secondary))
    return table


def run_f5_orthogonal_iterations(n_samples=240, n_views=3, random_state=5):
    """F5 — slides 57-60: Cui et al. iterations peel off one dominant
    view after another; once the residual space holds no structure the
    clusterings stop matching any planted view (auto-termination).
    """
    spreads = tuple(8.0 - 2.5 * v for v in range(n_views))
    X, truths, _ = make_multiple_truths(
        n_samples=n_samples, n_views=n_views, clusters_per_view=2,
        features_per_view=4, center_spread=spreads, cluster_std=0.4,
        random_state=random_state,
    )
    oc = OrthogonalClustering(n_clusters=2, max_clusterings=n_views + 2,
                              random_state=random_state).fit(X)
    table = ResultTable(
        "F5: successive orthogonal projections reveal the views (s57-60)",
        ["iteration", "best_matching_view", "best_view_ari"]
        + [f"ari_view_{v}" for v in range(n_views)],
    )
    for i, aris in enumerate(agreement_matrix(oc.labelings_, truths)):
        row = {
            "iteration": i,
            "best_matching_view": int(np.argmax(aris)),
            "best_view_ari": float(aris.max()),
        }
        for v, a in enumerate(aris):
            row[f"ari_view_{v}"] = float(a)
        table.add(**row)
    return table
