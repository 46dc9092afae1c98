"""Ablation experiments A1-A5 — sensitivity of the key design choices.

These go beyond the tutorial's displayed items: each ablates one
parameter or mechanism the slides call out as a design decision and
verifies the claimed failure mode at the extremes.
"""

from __future__ import annotations

import numpy as np

from .exp_subspace import _planted
from .harness import ResultTable, timed
from ..data.synthetic import make_four_squares, make_subspace_data
from ..metrics.partition import adjusted_rand_index
from ..metrics.subspace import clustering_error, pair_f1_subspace
from ..originalspace import DecorrelatedKMeans
from ..subspace import CLIQUE, MAFIA, OSCLU, SCHISM, SUBCLU

__all__ = [
    "run_a1_osclu_beta",
    "run_a2_deckmeans_restarts",
    "run_a3_grid_resolution",
    "run_a4_miner_scaling",
    "run_a5_adaptive_grid",
]


def run_a1_osclu_beta(betas=(0.4, 0.6, 0.8, 1.0)):
    """A1 — slide 82's extremes of ``coveredSubspaces_beta``.

    A controlled candidate set: a big cluster in subspace (0,1,2), a
    near-duplicate sharing 2 of 3 dimensions *and* 80% of its objects in
    (1,2,3), and an independent concept in (5,6). At ``beta <= 2/3`` the
    (1,2,3) candidate falls into the (0,1,2) concept group and is
    rejected as redundant; at ``beta`` near 1 the two subspaces count as
    different concepts and the near-duplicate survives — exactly the
    slide-82 trade-off between "no shared dimensions" and "exact
    projections only".
    """
    from ..core.subspace import SubspaceCluster, SubspaceClustering

    big = SubspaceCluster(range(0, 200), (0, 1, 2))
    near_dup = SubspaceCluster(list(range(160, 240)) + list(range(0, 120)),
                               (1, 2, 3))      # 120 of its 200 objects shared
    independent = SubspaceCluster(range(0, 80), (5, 6))
    candidates = SubspaceClustering([big, near_dup, independent])
    table = ResultTable(
        "A1: OSCLU concept-width beta ablation (slide 82 extremes)",
        ["beta", "n_selected", "near_duplicate_survives",
         "independent_survives"],
    )
    for beta in betas:
        osclu = OSCLU(alpha=0.5, beta=float(beta)).fit(candidates)
        chosen = set(osclu.clusters_)
        table.add(beta=float(beta), n_selected=len(osclu.clusters_),
                  near_duplicate_survives=near_dup in chosen,
                  independent_survives=independent in chosen)
    return table


def run_a2_deckmeans_restarts(n_samples=160, n_seeds=5,
                              n_inits=(1, 4, 20), lams=(0.0, 5.0)):
    """A2 — Dec-kMeans needs BOTH the penalty and restart diversity.

    A symmetric initialisation is a fixed point of the alternating
    updates (both clusterings lock onto the same split), so lam > 0
    with a single init often fails; lam = 0 fails regardless of inits.
    """
    table = ResultTable(
        "A2: dec-kmeans lambda x restarts ablation",
        ["lam", "n_init", "both_truths_rate", "mean_cross_ari"],
    )
    for lam in lams:
        for n_init in n_inits:
            hits = []
            cross = []
            for seed in range(n_seeds):
                X, lh, lv = make_four_squares(
                    n_samples=n_samples, cluster_std=0.5,
                    random_state=seed)
                dk = DecorrelatedKMeans(
                    n_clusters=2, n_clusterings=2, lam=float(lam),
                    n_init=int(n_init), random_state=seed).fit(X)
                a, b = dk.labelings_
                got_h = max(adjusted_rand_index(a, lh),
                            adjusted_rand_index(b, lh))
                got_v = max(adjusted_rand_index(a, lv),
                            adjusted_rand_index(b, lv))
                hits.append(float(got_h > 0.8 and got_v > 0.8))
                cross.append(adjusted_rand_index(a, b))
            table.add(lam=float(lam), n_init=int(n_init),
                      both_truths_rate=float(np.mean(hits)),
                      mean_cross_ari=float(np.mean(cross)))
    return table


def run_a3_grid_resolution(n_samples=240, random_state=3,
                           resolutions=(3, 6, 10, 16, 24)):
    """A3 — CLIQUE's grid resolution xi: too coarse merges clusters with
    noise, too fine fragments them below the density threshold."""
    X, hidden = _planted(n_samples, random_state=random_state)
    table = ResultTable(
        "A3: CLIQUE grid resolution ablation",
        ["n_intervals", "n_clusters", "object_f1", "ce"],
    )
    for xi in resolutions:
        clique = CLIQUE(n_intervals=int(xi), density_threshold=0.05,
                        max_dim=2).fit(X)
        table.add(n_intervals=int(xi), n_clusters=len(clique.clusters_),
                  object_f1=pair_f1_subspace(clique.clusters_, hidden),
                  ce=clustering_error(clique.clusters_, hidden))
    return table


def run_a4_miner_scaling(feature_counts=(6, 10, 14), n_samples=200,
                         random_state=3):
    """A4 — runtime scaling of the base miners with dimensionality (the
    slide-76 observation that redundancy drives runtime)."""
    table = ResultTable(
        "A4: base-miner runtime vs dimensionality",
        ["n_features", "miner", "n_clusters", "seconds"],
    )
    for d in feature_counts:
        X, hidden = make_subspace_data(
            n_samples=n_samples, n_features=int(d),
            clusters=[(n_samples // 3, (0, 1)), (n_samples // 3, (2, 3))],
            cluster_std=0.4, random_state=random_state,
        )
        for name, factory in (
            ("CLIQUE", lambda: CLIQUE(n_intervals=8, density_threshold=0.05,
                                      max_dim=3)),
            ("SCHISM", lambda: SCHISM(n_intervals=8, tau=0.01, max_dim=3)),
            ("SUBCLU", lambda: SUBCLU(eps=1.0, min_pts=8, max_dim=2)),
            ("MAFIA", lambda: MAFIA(alpha=2.5, max_dim=3)),
        ):
            miner = factory()
            _, secs = timed(miner.fit, X)
            table.add(n_features=int(d), miner=name,
                      n_clusters=len(miner.clusters_), seconds=secs)
    return table


def run_a5_adaptive_grid(n_samples=300, random_state=11):
    """A5 — MAFIA's motivation: a cluster straddling a fixed-grid border
    is fragmented/missed by CLIQUE's equal-width cells but captured by
    adaptive windows that snap to the density profile."""
    # Plant a cluster whose centre sits exactly on a CLIQUE cell border.
    rng = np.random.default_rng(random_state)
    n = n_samples
    X = rng.uniform(0.0, 10.0, size=(n, 4))
    xi = 5  # CLIQUE cells of width 2.0: borders at 2, 4, 6, 8
    members = np.arange(n // 3)
    center = np.array([4.0, 4.0])  # exactly on a border in both dims
    X[np.ix_(members, [0, 1])] = center + 0.25 * rng.standard_normal(
        (members.size, 2))
    from ..core.subspace import SubspaceCluster
    hidden = [SubspaceCluster(members.tolist(), (0, 1))]
    table = ResultTable(
        "A5: fixed vs adaptive grid on a border-straddling cluster",
        ["method", "n_clusters_in_(0,1)", "object_f1", "ce"],
    )
    clique = CLIQUE(n_intervals=xi, density_threshold=0.08, max_dim=2).fit(X)
    mafia = MAFIA(alpha=3.0, n_fine_bins=30, max_dim=2).fit(X)
    for name, result in (("CLIQUE (fixed grid)", clique.clusters_),
                         ("MAFIA (adaptive windows)", mafia.clusters_)):
        in_sub = [c for c in result if c.dim_tuple() == (0, 1)]
        table.add(**{
            "method": name,
            "n_clusters_in_(0,1)": len(in_sub),
            "object_f1": pair_f1_subspace(result, hidden),
            "ce": clustering_error(result, hidden),
        })
    return table
