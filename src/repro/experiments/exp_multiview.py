"""Experiments F12-F14 and F16 — paradigm 4 (given views / consensus)."""

from __future__ import annotations

import numpy as np

from .harness import ResultTable
from ..cluster.gmm import GaussianMixtureEM
from ..data.synthetic import make_blobs, make_four_squares, make_two_view_sources
from ..metrics.partition import adjusted_rand_index, agreement_matrix
from ..multiview import (
    ClusterEnsemble,
    CoEM,
    MultipleSpectralViews,
    MultiViewDBSCAN,
    RandomProjectionEnsemble,
    average_nmi,
)

__all__ = [
    "run_f12_coem",
    "run_f13_mvdbscan",
    "run_f14_consensus",
    "run_f16_msc",
]


def run_f12_coem(n_samples=240, n_clusters=3, random_state=0):
    """F12 — slides 101-104: co-EM's bootstrapped hypotheses agree with
    the shared structure at least as well as single-view EM, and the
    final views agree with each other.
    """
    (X1, X2), truth = make_two_view_sources(
        n_samples=n_samples, n_clusters=n_clusters, cluster_std=0.8,
        min_center_distance=3.0, random_state=random_state,
    )
    table = ResultTable(
        "F12: co-EM vs single-view EM on conditionally independent views",
        ["method", "ari_vs_truth", "view_agreement"],
    )
    for name, X in (("EM view 1 only", X1), ("EM view 2 only", X2)):
        em = GaussianMixtureEM(n_components=n_clusters,
                               covariance_type="spherical",
                               random_state=random_state).fit(X)
        table.add(method=name,
                  ari_vs_truth=adjusted_rand_index(em.labels_, truth),
                  view_agreement="")
    co = CoEM(n_clusters=n_clusters, random_state=random_state).fit((X1, X2))
    table.add(method="co-EM (both views)",
              ari_vs_truth=adjusted_rand_index(co.labels_, truth),
              view_agreement=float(co.agreement_))
    from ..multiview import MultiViewKMeans, MultiViewSpectral

    mk = MultiViewKMeans(n_clusters=n_clusters,
                         random_state=random_state).fit((X1, X2))
    table.add(method="shared-partition k-means (both views)",
              ari_vs_truth=adjusted_rand_index(mk.labels_, truth),
              view_agreement="")
    sp = MultiViewSpectral(n_clusters=n_clusters,
                           random_state=random_state).fit((X1, X2))
    table.add(method="mixed-walk spectral (both views)",
              ari_vs_truth=adjusted_rand_index(sp.labels_, truth),
              view_agreement="")
    return table


def run_f13_mvdbscan(n_samples=240, n_clusters=3, random_state=0):
    """F13 — slides 105-107: union wins on sparse views (full coverage,
    correct clusters), intersection wins on unreliable views (purer
    clusters at lower coverage), and each fails in the other regime.
    """
    table = ResultTable(
        "F13: multi-view DBSCAN union vs intersection (slides 105-107)",
        ["scenario", "method", "ari_vs_truth", "coverage", "n_clusters"],
    )

    def report(scenario, method, labels, truth):
        coverage = float(np.mean(labels != -1))
        ari = (adjusted_rand_index(labels, truth)
               if coverage > 0 else 0.0)
        table.add(scenario=scenario, method=method, ari_vs_truth=ari,
                  coverage=coverage,
                  n_clusters=len(set(labels.tolist()) - {-1}))

    (S1, S2), ys = make_two_view_sources(
        n_samples=n_samples, n_clusters=n_clusters,
        sparse_noise_fraction=0.3, center_spread=6.0,
        min_center_distance=4.0, random_state=random_state,
    )
    for method in ("union", "intersection"):
        mv = MultiViewDBSCAN(eps=0.8, min_pts=6, method=method).fit((S1, S2))
        report("sparse views", method, mv.labels_, ys)
    (U1, U2), yu = make_two_view_sources(
        n_samples=n_samples, n_clusters=n_clusters,
        unreliable_view=1, unreliable_fraction=0.4, center_spread=6.0,
        min_center_distance=4.0, random_state=random_state,
    )
    for method in ("union", "intersection"):
        mv = MultiViewDBSCAN(eps=0.8, min_pts=6, method=method).fit((U1, U2))
        report("unreliable view", method, mv.labels_, yu)
    return table


def run_f14_consensus(n_samples=200, n_features=20, n_clusters=3,
                      n_runs=8, random_state=0):
    """F14 — slides 108-110: single EM runs on high-dimensional data are
    unstable; the random-projection ensemble (and a Strehl-Ghosh
    consensus over the runs) is both better and more stable.
    """
    X, truth = make_blobs(n_samples=n_samples, centers=n_clusters,
                          n_features=n_features, cluster_std=2.0,
                          random_state=random_state)
    rng = np.random.default_rng(random_state)
    single_aris = []
    single_labelings = []
    for _ in range(n_runs):
        em = GaussianMixtureEM(n_components=n_clusters,
                               covariance_type="spherical", n_init=1,
                               random_state=rng.integers(2**31 - 1)).fit(X)
        single_aris.append(adjusted_rand_index(em.labels_, truth))
        single_labelings.append(em.labels_)
    table = ResultTable(
        "F14: consensus over extracted views stabilises clustering (s108-110)",
        ["method", "ari_mean", "ari_std", "anmi"],
    )
    table.add(method=f"single EM x{n_runs}",
              ari_mean=float(np.mean(single_aris)),
              ari_std=float(np.std(single_aris)), anmi="")
    ens = ClusterEnsemble(n_clusters=n_clusters).fit(single_labelings)
    table.add(method=f"Strehl-Ghosh consensus ({ens.method_used_})",
              ari_mean=adjusted_rand_index(ens.labels_, truth),
              ari_std=0.0, anmi=float(ens.anmi_))
    rp_aris = []
    for _ in range(3):
        rp = RandomProjectionEnsemble(
            n_clusters=n_clusters, n_views=n_runs,
            random_state=rng.integers(2**31 - 1)).fit(X)
        rp_aris.append(adjusted_rand_index(rp.labels_, truth))
        anmi = average_nmi(rp.labels_, rp.view_labelings_)
    table.add(method="random-projection ensemble (Fern&Brodley)",
              ari_mean=float(np.mean(rp_aris)),
              ari_std=float(np.std(rp_aris)), anmi=float(anmi))
    return table


def run_f16_msc(n_samples=150, n_seeds=5, random_state=0):
    """F16 — slide 90: with the HSIC penalty mSC reliably produces two
    non-redundant views matching both planted truths; without it the
    views may collapse onto the same structure.
    """
    table = ResultTable(
        "F16: mSC HSIC penalty enforces non-redundant views (slide 90)",
        ["lam", "both_truths_recovered_rate", "mean_cross_ari",
         "mean_pairwise_hsic"],
    )
    for lam in (0.0, 2.0):
        recovered = []
        cross = []
        hsics = []
        for seed in range(n_seeds):
            X, lh, lv = make_four_squares(
                n_samples=n_samples, random_state=random_state + seed)
            msc = MultipleSpectralViews(
                n_clusters=2, n_views=2, n_components=1, lam=lam,
                random_state=seed).fit(X)
            a, b = msc.labelings_
            ari = agreement_matrix([a, b], [lh, lv, b])
            got_h, got_v = ari[:, :2].max(axis=0)
            recovered.append(float(got_h > 0.9 and got_v > 0.9))
            cross.append(ari[0, 2])
            hsics.append(float(msc.pairwise_hsic_[0, 1]))
        table.add(lam=lam,
                  both_truths_recovered_rate=float(np.mean(recovered)),
                  mean_cross_ari=float(np.mean(cross)),
                  mean_pairwise_hsic=float(np.mean(hsics)))
    return table
