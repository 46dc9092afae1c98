"""Generate the golden outputs that ``tests/test_golden.py`` pins.

Usage:  python tools/gen_golden.py                # rewrite tests/golden/
        python tools/gen_golden.py kmeans gmm     # rewrite only these
        python tools/gen_golden.py --check        # compare, exit = mismatches

Family names restrict either mode to those families; an unknown name
exits 2. Some families (``msc``) carry sums that follow the host's BLAS
in the last bits, so rewrite only the families a change is about.

Each pinned case fits one estimator (or calls one function) on small
deterministic data at a pinned seed and records its labels and its
objective or merge history. ``tests/golden/<family>.json`` holds one
family's cases. Labels must match exactly and floats to ``RTOL``, so a
change that is meant to keep results (a faster kernel, a refactor) can
prove it does. Regenerate only for a change that is meant to alter
results, and say so in that change's description.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"

#: relative tolerance for every float in a golden record
RTOL = 1e-9

#: data seeds of the planted two-view tables every family fits
DATA_SEEDS = (0, 1)


def planted(seed):
    """``(X, truths)``: 90 objects, two independent three-cluster views."""
    from repro.data import make_multiple_truths

    X, truths, _ = make_multiple_truths(n_samples=90, random_state=seed)
    return X, truths


def tie_heavy():
    """60 integer points on a 4x4 grid: duplicate rows and many tied
    distances, which pin the merge order's tie-breaking."""
    rng = np.random.default_rng(7)
    X = rng.integers(0, 4, size=(60, 2)).astype(np.float64)
    given = (X[:, 0] >= 2).astype(np.int64)
    return X, [given, (X[:, 1] >= 2).astype(np.int64)]


def _datasets():
    sets = {f"planted{s}": planted(s) for s in DATA_SEEDS}
    sets["ties"] = tie_heavy()
    return sets


def _labels(value):
    return [int(v) for v in np.asarray(value).tolist()]


def _trace(estimator):
    return [float(e.objective) for e in estimator.convergence_trace_]


def _kmeans(X, truths, seed, k, init="k-means++"):
    from repro.cluster import KMeans

    est = KMeans(n_clusters=k, init=init, random_state=seed).fit(X)
    return {"labels": _labels(est.labels_),
            "inertia": float(est.inertia_),
            "n_iter": int(est.n_iter_)}


def _gmm(X, truths, seed, covariance_type, k=3):
    from repro.cluster import GaussianMixtureEM

    est = GaussianMixtureEM(n_components=k, covariance_type=covariance_type,
                            random_state=seed).fit(X)
    return {"labels": _labels(est.labels_),
            "log_likelihood": float(est.log_likelihood_),
            "n_iter": int(est.n_iter_)}


def _agglomerative(X, truths, linkage):
    from repro.cluster import Agglomerative

    est = Agglomerative(n_clusters=3, linkage=linkage).fit(X)
    return {"labels": _labels(est.labels_),
            "merges": [[int(a), int(b), float(d)]
                       for a, b, d in est.merge_history_]}


def _coala(X, truths, w):
    from repro.originalspace import COALA

    est = COALA(n_clusters=3, w=w).fit(X, truths[0])
    return {"labels": _labels(est.labels_),
            "n_quality_merges": int(est.n_quality_merges_),
            "n_dissimilarity_merges": int(est.n_dissimilarity_merges_),
            "merge_distances": _trace(est)}


def _mincentropy(X, truths, seed, n_given, k=3):
    from repro.originalspace import MinCEntropy

    est = MinCEntropy(n_clusters=k, random_state=seed)
    est.fit(X, truths[:n_given] if n_given > 1 else truths[0])
    return {"labels": _labels(est.labels_),
            "objective": float(est.objective_),
            "quality": float(est.quality_),
            "penalty": float(est.penalty_),
            "n_iter": int(est.n_iter_),
            "trace": _trace(est)}


def _adco(X, truths, seed, k=3):
    from repro.originalspace import ADCOAlternative

    est = ADCOAlternative(n_clusters=k, max_iter=8, n_init=2,
                          random_state=seed)
    est.fit(X[:50], truths[0][:50])
    return {"labels": _labels(est.labels_),
            "objective": float(est.objective_),
            "adco_to_given": float(est.adco_to_given_)}


def _cib(X, truths, seed, k, beta=5.0):
    from repro.originalspace import ConditionalInformationBottleneck

    est = ConditionalInformationBottleneck(n_clusters=k, beta=beta,
                                           random_state=seed)
    est.fit(X - X.min(axis=0), truths[0])
    return {"labels": _labels(est.labels_),
            "objective": float(est.objective_),
            "mutual_information_x": float(est.mutual_information_x_),
            "conditional_information": float(est.conditional_information_)}


def _randproj(X, truths, seed):
    from repro.multiview import RandomProjectionEnsemble

    est = RandomProjectionEnsemble(n_clusters=3, n_views=5,
                                   random_state=seed).fit(X)
    return {"labels": _labels(est.labels_),
            "aggregated_similarity_sum":
                float(est.aggregated_similarity_.sum())}


def _meta(X, truths, seed):
    from repro.originalspace import MetaClustering

    est = MetaClustering(n_base=12, n_clusters=(2, 3), n_meta_clusters=3,
                         random_state=seed).fit(X)
    return {"meta_labels": _labels(est.meta_labels_),
            "labelings": [_labels(lab) for lab in est.labelings_],
            "duplication_rate": float(est.duplication_rate_)}


def _cspa(X, truths, seed):
    from repro.multiview import cspa_consensus

    rng = np.random.default_rng(seed)
    noisy = truths[0].copy()
    flip = rng.random(noisy.shape[0]) < 0.2
    noisy[flip] = rng.integers(3, size=int(flip.sum()))
    labelings = [truths[0], truths[1], noisy]
    return {"labels": _labels(cspa_consensus(labelings, 3))}


def _spectral(X, truths, seed, k):
    from repro.cluster import SpectralClustering

    est = SpectralClustering(n_clusters=k, random_state=seed).fit(X)
    return {"labels": _labels(est.labels_)}


def _msc(X, truths, seed, k):
    from repro.multiview import MultipleSpectralViews

    est = MultipleSpectralViews(n_clusters=k, random_state=seed).fit(X)
    return {"labelings": [_labels(lab) for lab in est.labelings_],
            "pairwise_hsic": [[float(h) for h in row]
                              for row in est.pairwise_hsic_],
            "trace": _trace(est)}


def _mv_spectral(X, truths, seed, k):
    from repro.multiview import MultiViewSpectral

    est = MultiViewSpectral(n_clusters=k, random_state=seed)
    return {"labels": _labels(est.fit([X[:, :2], X[:, 2:]]).labels_)}


def _condens(X, truths, seed, k):
    from repro.originalspace import ConditionalEnsembles

    est = ConditionalEnsembles(n_clusters=k, random_state=seed)
    est.fit(X, truths[0])
    return {"labels": _labels(est.labels_),
            "local_labelings": [_labels(lab)
                                for lab in est.local_labelings_]}


def _subspace_clusters(clustering):
    return sorted([sorted(c.dims), sorted(c.objects)] for c in clustering)


def _p3c(X, truths):
    from repro.subspace import P3C

    est = P3C().fit(X)
    return {"labels": _labels(est.labels_),
            "clusters": _subspace_clusters(est.clusters_),
            "intervals": {str(j): [[float(lo), float(hi)] for lo, hi in iv]
                          for j, iv in est.intervals_.items()}}


def _statpc(X, truths):
    from repro.subspace import StatPC

    est = StatPC().fit(X)
    return {"clusters": _subspace_clusters(est.clusters_),
            "p_values": [float(p) for p in est.p_values_]}


def _fires(X, truths):
    from repro.subspace import FIRES

    est = FIRES().fit(X)
    return {"clusters": _subspace_clusters(est.clusters_),
            "base_clusters": _subspace_clusters(est.base_clusters_),
            "n_components": int(est.n_components_)}


def _clusters_in_order(clustering):
    """``[dims, objects, quality]`` per cluster, in the estimator's order."""
    return [[sorted(c.dims), sorted(c.objects),
             None if c.quality is None else float(c.quality)]
            for c in clustering]


def _dbscan(X, truths, eps, min_pts):
    from repro.cluster import DBSCAN

    est = DBSCAN(eps=eps, min_pts=min_pts).fit(X)
    return {"labels": _labels(est.labels_),
            "core": _labels(est.core_sample_indices_)}


def _subclu(X, truths, eps, min_pts):
    from repro.subspace import SUBCLU

    est = SUBCLU(eps=eps, min_pts=min_pts).fit(X)
    return {"clusters": _clusters_in_order(est.clusters_),
            "subspaces_visited": int(est.subspaces_visited_),
            "candidate_objects_scanned":
                int(est.candidate_objects_scanned_)}


def _predecon(X, truths, **params):
    from repro.subspace import PreDeCon

    est = PreDeCon(**params).fit(X)
    return {"labels": _labels(est.labels_),
            "clusters": _clusters_in_order(est.clusters_),
            "preference_dims": [list(p) for p in est.preference_dims_]}


def _dusc(X, truths, **params):
    from repro.subspace import DUSC

    est = DUSC(**params).fit(X)
    return {"clusters": _clusters_in_order(est.clusters_),
            "core_thresholds": {str(d): int(t) for d, t
                                in est.core_thresholds_.items()},
            "subspaces_visited": int(est.subspaces_visited_)}


def _kernel_kmeans(X, truths, seed, k):
    from repro.cluster import KernelKMeans

    est = KernelKMeans(n_clusters=k, random_state=seed).fit(X)
    return {"labels": _labels(est.labels_),
            "quality": float(est.quality_),
            "n_iter": int(est.n_iter_),
            "trace": _trace(est)}


def _tie_labelings(X, truths):
    """Labelings of the tie-heavy grid whose contingency tables admit
    several optimal one-to-one matchings."""
    x0, x1 = X[:, 0].astype(np.int64), X[:, 1].astype(np.int64)
    return {"x0": [x0, x1, truths[1], x1 // 2 + 2 * (x0 % 2)],
            "sum3": [(x0 + x1) % 3, x0 % 2, (x0 + x1) % 2, x1]}


def _majority_vote(X, truths, reference):
    from repro.multiview import align_labels, majority_vote_consensus

    labelings = _tie_labelings(X, truths)[reference]
    return {"labels": _labels(majority_vote_consensus(labelings)),
            "aligned": [_labels(align_labels(labelings[0], lab))
                        for lab in labelings[1:]]}


def _solution_set(X, truths, seed):
    """The planted truths, a noisy copy, one labeling with ``-1`` noise
    and a pair whose clustered objects do not overlap."""
    rng = np.random.default_rng(seed)
    noisy = truths[0].copy()
    flip = rng.random(noisy.shape[0]) < 0.2
    noisy[flip] = rng.integers(3, size=int(flip.sum()))
    with_noise = truths[1].copy()
    with_noise[rng.random(with_noise.shape[0]) < 0.3] = -1
    half = np.arange(truths[0].shape[0]) < truths[0].shape[0] // 2
    left = np.where(half, truths[0], -1)
    right = np.where(half, -1, truths[1])
    return [truths[0], truths[1], noisy, with_noise], [left, right]


def _multiset(X, truths, seed):
    from repro.core import MultipleClusteringObjective
    from repro.metrics import MultipleClusteringReport

    overlapping, disjoint = _solution_set(X, truths, seed)
    report = MultipleClusteringReport(overlapping + disjoint, truths)
    breakdown = MultipleClusteringObjective(lam=1.0).breakdown(X,
                                                               overlapping)
    return {"matrix": [[float(v) for v in row] for row in report.matrix_],
            "assignment": [[r, c, float(v)]
                           for r, c, v in report.assignment_],
            "redundancy": float(report.redundancy()),
            "breakdown": breakdown}


def cases():
    """``{family: {case_id: thunk}}`` — every pinned case, unevaluated."""
    data = _datasets()
    out = {family: {} for family in (
        "agglomerative", "coala", "mincentropy", "adco_alternative", "cib",
        "random_projection_ensemble", "meta_clustering", "cspa_consensus",
        "spectral", "msc", "mv_spectral", "condens", "p3c", "statpc",
        "fires", "majority_vote", "kmeans", "gmm", "dbscan", "subclu",
        "predecon", "dusc", "kernel_kmeans", "multiset")}

    def add(family, case_id, fn, name, *args, **params):
        X, truths = data[name]
        out[family][f"{name}/{case_id}"] = lambda: fn(X, truths, *args,
                                                      **params)

    for name in data:
        for linkage in ("single", "complete", "average"):
            add("agglomerative", linkage, _agglomerative, name, linkage)
        for w in (0.5, 1.0, 2.0):
            add("coala", f"w={w}", _coala, name, w)
        add("cspa_consensus", "seed=0", _cspa, name, 0)
        add("multiset", "seed=0", _multiset, name, 0)
    for name in ("planted0", "planted1"):
        for seed in (0, 1):
            add("mincentropy", f"seed={seed}", _mincentropy, name, seed, 1)
            add("adco_alternative", f"seed={seed}", _adco, name, seed)
            add("random_projection_ensemble", f"seed={seed}", _randproj,
                name, seed)
            add("meta_clustering", f"seed={seed}", _meta, name, seed)
            # the panel fits these at k = 2
            add("mincentropy", f"k=2/seed={seed}", _mincentropy, name,
                seed, 1, 2)
            add("adco_alternative", f"k=2/seed={seed}", _adco, name, seed, 2)
            for k in (2, 3):
                # the default beta merges most objects into one cluster
                # at n = 90; beta = 30 keeps k clusters
                add("cib", f"k={k}/seed={seed}", _cib, name, seed, k)
                add("cib", f"k={k}/beta=30/seed={seed}", _cib, name, seed,
                    k, 30.0)
                add("spectral", f"k={k}/seed={seed}", _spectral, name,
                    seed, k)
                add("msc", f"k={k}/seed={seed}", _msc, name, seed, k)
                add("mv_spectral", f"k={k}/seed={seed}", _mv_spectral,
                    name, seed, k)
        add("mincentropy", "seed=0/two-givens", _mincentropy, name, 0, 2)
        add("p3c", "default", _p3c, name)
        add("statpc", "default", _statpc, name)
        add("fires", "default", _fires, name)
        for seed in (0, 1):
            for k in (2, 3):
                add("condens", f"k={k}/seed={seed}", _condens, name, seed, k)
    for seed in (0, 1):
        for name in ("planted0", "planted1"):
            for k in (2, 3, 8):
                add("kmeans", f"k={k}/seed={seed}", _kmeans, name, seed, k)
            for covariance_type in ("full", "diag", "spherical"):
                add("gmm", f"{covariance_type}/seed={seed}", _gmm, name,
                    seed, covariance_type)
        # random seeding picks duplicate rows of the grid, so Lloyd
        # reseeds empty clusters; k-means++ never picks a duplicate
        for init in ("k-means++", "random"):
            add("kmeans", f"k=8/{init}/seed={seed}", _kmeans, "ties", seed,
                8, init)
        for covariance_type in ("full", "diag", "spherical"):
            add("gmm", f"{covariance_type}/k=8/seed={seed}", _gmm, "ties",
                seed, covariance_type, 8)
    # density-based miners: parameters that leave both clusters and
    # noise on each table (the defaults find nothing at n = 90)
    planted_density = {
        "dbscan": [(1.0, 5), (0.8, 3)],
        "subclu": [(0.5, 5), (0.3, 4)],
        "predecon": [dict(eps=2.0, delta=1.0, min_pts=4),
                     dict(eps=1.0, delta=0.5, min_pts=2,
                          max_preference_dim=1)],
        "dusc": [dict(eps=0.5, factor=2.0), dict(eps=0.4, factor=2.0)],
    }
    tie_density = {
        "dbscan": [(0.5, 5), (0.3, 3), (1.0, 5)],
        "subclu": [(0.5, 5), (0.3, 4)],
        "predecon": [dict(eps=1.0, delta=0.5, min_pts=5),
                     dict(eps=1.5, delta=1.0, min_pts=5),
                     dict(eps=2.0, delta=1.0, min_pts=4)],
        "dusc": [dict(eps=1.0, factor=1.0),
                 dict(eps=1.0, factor=0.5, min_cluster_size=2)],
    }
    density = {"dbscan": _dbscan, "subclu": _subclu}
    for name in data:
        settings = tie_density if name == "ties" else planted_density
        for family, fn in density.items():
            for eps, min_pts in settings[family]:
                add(family, f"eps={eps}/min_pts={min_pts}", fn, name, eps,
                    min_pts)
        for family, fn in (("predecon", _predecon), ("dusc", _dusc)):
            for params in settings[family]:
                case_id = "/".join(f"{key}={value}" for key, value
                                   in sorted(params.items()))
                add(family, case_id, fn, name, **params)
        for seed in (0, 1):
            for k in (2, 3):
                add("kernel_kmeans", f"k={k}/seed={seed}", _kernel_kmeans,
                    name, seed, k)
    for reference in ("x0", "sum3"):
        add("majority_vote", f"reference={reference}", _majority_vote,
            "ties", reference)
    return out


def compute(family):
    """``{case_id: record}`` of one family, freshly computed."""
    return {case_id: thunk() for case_id, thunk in cases()[family].items()}


def load(family):
    with open(GOLDEN_DIR / f"{family}.json", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(expected, actual, path=""):
    """Paths where ``actual`` differs from ``expected``: ints, strings and
    lengths exactly, floats to ``RTOL``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [path or "/"]
        return [m for key in sorted(expected)
                for m in mismatches(expected[key], actual[key],
                                    f"{path}/{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [path]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=RTOL, abs_tol=1e-12):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    check = "--check" in argv
    named = [arg for arg in argv if arg != "--check"]
    families = cases()
    unknown = sorted(set(named) - set(families))
    if unknown:
        sys.stderr.write(f"unknown golden families: {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(families))}\n")
        return 2
    failures = 0
    for family in named or families:
        actual = compute(family)
        if check:
            for line in mismatches(load(family), actual):
                sys.stderr.write(f"{family}{line}\n")
                failures += 1
            continue
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        lines = [f"{json.dumps(key)}: {json.dumps(actual[key], sort_keys=True)}"
                 for key in sorted(actual)]
        text = "{\n" + ",\n".join(lines) + "\n}\n"
        (GOLDEN_DIR / f"{family}.json").write_text(text, encoding="utf-8")
    return failures


if __name__ == "__main__":
    sys.exit(main())
