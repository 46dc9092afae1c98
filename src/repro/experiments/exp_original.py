"""Experiments F1-F3 and F15 — paradigm 1 (original data space)."""

from __future__ import annotations

import numpy as np

from .harness import ResultTable, timed
from ..cluster.kmeans import KMeans
from ..core.objectives import MultipleClusteringObjective
from ..data.synthetic import make_four_squares
from ..metrics.clusterings import ari_dissimilarity, mean_pairwise_dissimilarity
from ..metrics.internal import silhouette_score
from ..metrics.partition import adjusted_rand_index, agreement_matrix
from ..originalspace import (
    CAMI,
    COALA,
    DecorrelatedKMeans,
    MetaClustering,
    MinCEntropy,
)

__all__ = [
    "run_f1_toy_alternatives",
    "run_f2_coala_tradeoff",
    "run_f3_simultaneous_vs_iterative",
    "run_f15_meta_clustering",
]


def _toy(n_samples, random_state):
    return make_four_squares(n_samples=n_samples, separation=4.0,
                             cluster_std=0.5, random_state=random_state)


def run_f1_toy_alternatives(n_samples=160, random_state=0):
    """F1 — slide 26: one data set, two meaningful 2-partitions.

    Plain k-means locks onto one of them; every alternative/multiple
    method should surface the *other* partition as well.
    """
    X, truth_h, truth_v = _toy(n_samples, random_state)
    given = KMeans(n_clusters=2, random_state=random_state).fit(X).labels_
    # Which truth did the given clustering capture? The alternative
    # methods should then capture the other one.
    primary_is_h = (adjusted_rand_index(given, truth_h)
                    >= adjusted_rand_index(given, truth_v))
    primary = truth_h if primary_is_h else truth_v
    secondary = truth_v if primary_is_h else truth_h

    table = ResultTable(
        "F1: recovering the second 2-partition of the toy data (slide 26)",
        ["method", "ari_vs_primary_truth", "ari_vs_secondary_truth",
         "silhouette", "seconds"],
    )
    table.add(method="kmeans (given)",
              ari_vs_primary_truth=adjusted_rand_index(given, primary),
              ari_vs_secondary_truth=adjusted_rand_index(given, secondary),
              silhouette=silhouette_score(X, given), seconds=0.0)

    def report(name, labels, secs):
        table.add(method=name,
                  ari_vs_primary_truth=adjusted_rand_index(labels, primary),
                  ari_vs_secondary_truth=adjusted_rand_index(labels, secondary),
                  silhouette=silhouette_score(X, labels), seconds=secs)

    coala, secs = timed(
        lambda: COALA(n_clusters=2, w=0.8).fit(X, given))
    report("COALA (alt)", coala.labels_, secs)
    mce, secs = timed(
        lambda: MinCEntropy(n_clusters=2, beta=2.0,
                            random_state=random_state).fit(X, given))
    report("minCEntropy (alt)", mce.labels_, secs)
    dk, secs = timed(
        lambda: DecorrelatedKMeans(n_clusters=2, n_clusterings=2, lam=5.0,
                                   n_init=20, random_state=random_state).fit(X))
    for i, lab in enumerate(dk.labelings_):
        report(f"dec-kmeans [{i}]", lab, secs if i == 0 else 0.0)
    cami, secs = timed(
        lambda: CAMI(n_clusters=2, mu=5.0, step=0.3, n_init=8,
                     random_state=random_state).fit(X))
    for i, lab in enumerate(cami.labelings_):
        report(f"CAMI [{i}]", lab, secs if i == 0 else 0.0)
    return table


def run_f2_coala_tradeoff(n_samples=160, random_state=0,
                          w_values=(0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.5)):
    """F2 — slide 33: COALA's w sweeps dissimilarity against quality.

    Small ``w`` must give high dissimilarity to the given clustering;
    large ``w`` converges to plain average-link (low dissimilarity).
    """
    # Asymmetric toy: the left/right split is clearly the higher-quality
    # clustering, so large w must fall back to it (low dissimilarity)
    # while small w buys the weaker top/bottom alternative.
    X, truth_h, truth_v = make_four_squares(
        n_samples=n_samples, separation=(6.0, 3.0), cluster_std=0.5,
        random_state=random_state)
    given = KMeans(n_clusters=2, random_state=random_state).fit(X).labels_
    table = ResultTable(
        "F2: COALA quality vs dissimilarity trade-off (slides 31-33)",
        ["w", "dissimilarity_to_given", "silhouette",
         "quality_merges", "dissimilarity_merges"],
    )
    for w in w_values:
        coala = COALA(n_clusters=2, w=float(w)).fit(X, given)
        table.add(
            w=float(w),
            dissimilarity_to_given=ari_dissimilarity(coala.labels_, given),
            silhouette=silhouette_score(X, coala.labels_),
            quality_merges=coala.n_quality_merges_,
            dissimilarity_merges=coala.n_dissimilarity_merges_,
        )
    return table


def run_f3_simultaneous_vs_iterative(n_samples=160, random_state=0):
    """F3 — slides 37-39: extracting three clusterings.

    The *naive* chain (C3 = alternative of C2 only) circles back to C1 —
    ``Diss(C1, C3) ≈ 0`` is never checked (slide 37). Conditioning each
    step on *all* previous solutions (minCEntropy's set-valued given)
    and simultaneous optimisation both keep the minimum pairwise
    dissimilarity high.
    """
    X, truth_h, truth_v = _toy(n_samples, random_state)
    objective = MultipleClusteringObjective(lam=1.0)
    table = ResultTable(
        "F3: naive chaining vs conditioning on all knowledge (s37-39)",
        ["strategy", "min_pairwise_dissimilarity", "quality_sum",
         "combined_score"],
    )

    def report(name, labelings):
        b = objective.breakdown(X, labelings)
        diss = 1.0 - agreement_matrix(labelings)
        min_diss = diss[np.triu_indices(len(labelings), k=1)].min()
        table.add(strategy=name, min_pairwise_dissimilarity=float(min_diss),
                  quality_sum=b["quality_sum"], combined_score=b["score"])

    c1 = KMeans(n_clusters=2, random_state=random_state).fit(X).labels_
    c2 = MinCEntropy(n_clusters=2, beta=2.0,
                     random_state=random_state).fit(X, c1).labels_
    # Naive chain: alternative of the last solution only (slide 37).
    c3_naive = MinCEntropy(n_clusters=2, beta=2.0,
                           random_state=random_state).fit(X, c2).labels_
    report("naive chain: C3 = alt(C2) only", [c1, c2, c3_naive])
    # Proper extension: alternative to the full set {C1, C2}.
    c3_full = MinCEntropy(n_clusters=2, beta=2.0,
                          random_state=random_state).fit(X, [c1, c2]).labels_
    report("conditioned chain: C3 = alt({C1, C2})", [c1, c2, c3_full])
    dk = DecorrelatedKMeans(n_clusters=2, n_clusterings=3, lam=5.0,
                            n_init=20, random_state=random_state).fit(X)
    report("simultaneous (dec-kmeans, T=3)", dk.labelings_)
    return table


def run_f15_meta_clustering(n_samples=160, n_base=40, random_state=0):
    """F15 — slide 29: undirected generation yields many near-duplicate
    clusterings; meta-level grouping compresses them to a few diverse
    representatives.
    """
    X, truth_h, truth_v = _toy(n_samples, random_state)
    meta = MetaClustering(n_base=n_base, n_clusters=2, n_meta_clusters=3,
                          random_state=random_state).fit(X)
    table = ResultTable(
        "F15: meta clustering — duplication of blind generation (slide 29)",
        ["quantity", "value"],
    )
    table.add(quantity="base clusterings generated", value=n_base)
    table.add(quantity="duplicate pair rate (diss < 0.05)",
              value=float(meta.duplication_rate_))
    table.add(quantity="representatives returned",
              value=len(meta.labelings_))
    reps = meta.labelings_
    table.add(quantity="mean dissimilarity among representatives",
              value=mean_pairwise_dissimilarity(reps))
    best_h = max(adjusted_rand_index(r, truth_h) for r in reps)
    best_v = max(adjusted_rand_index(r, truth_v) for r in reps)
    table.add(quantity="best representative ARI vs horizontal truth",
              value=float(best_h))
    table.add(quantity="best representative ARI vs vertical truth",
              value=float(best_v))
    return table
