"""EXPERIMENTS.md generator: paper claims + measured tables.

``python -m repro report`` regenerates the full experiments document
from the registered experiments and the claim annotations below, so the
shipped EXPERIMENTS.md is reproducible with one command.
"""

from __future__ import annotations

import time

__all__ = ["CLAIMS", "generate_report"]

# (paper claim, measured outcome) per experiment id.
CLAIMS = {
    "T1": ("Slides 21/116/122 — the taxonomy table classifying every "
           "surveyed algorithm along search space, processing, given "
           "knowledge, number of clusterings, view detection, and "
           "flexibility.",
           "Regenerated from the code itself: each implemented estimator "
           "registers a `TaxonomyEntry`; the rendered table matches the "
           "slide-116 rows for all implemented algorithms (e.g. COALA = "
           "original/iterative/given/2/specialized and Cui et al. = "
           "transformed/iterative/given/>=2/exchangeable)."),
    "F1": ("Slide 26 — the four-blob toy admits two equally meaningful "
           "2-partitions; traditional clustering returns only one of them, "
           "multiple-clustering methods surface the other.",
           "k-means captures one truth perfectly (ARI 1.0) and is "
           "orthogonal to the other (ARI ~0). COALA and minCEntropy, given "
           "the k-means solution, recover the *other* truth at ARI 1.0 "
           "with essentially unchanged silhouette; Dec-kMeans and CAMI "
           "find both truths simultaneously without any given knowledge."),
    "F2": ("Slides 31-33 — COALA's `w` trades quality against "
           "dissimilarity: small w prefers dissimilarity merges, large w "
           "converges to unconstrained average-link.",
           "On an asymmetric toy, small w (0.2-0.4) buys a fully "
           "dissimilar alternative (1-ARI ~0.8-1.0) at lower silhouette; "
           "from w >= 0.6 COALA performs only quality merges and returns "
           "the high-quality clustering identical to plain average-link. "
           "Monotone trade-off as claimed."),
    "F3": ("Slides 37-39 — naively chaining alternatives (C3 = alt(C2)) "
           "never checks Diss(C1, C3); conditioning on all previous "
           "solutions or optimising simultaneously avoids the collapse.",
           "The naive chain circles straight back: min pairwise "
           "dissimilarity 0.000 (C3 == C1 up to labels). Conditioning "
           "minCEntropy on the set {C1, C2} keeps min pairwise "
           "dissimilarity above 1.0 and attains the best combined score."),
    "F4": ("Slides 50-55 — a transformation learned from the given "
           "clustering (Davidson & Qi's inverted stretcher; Qi & "
           "Davidson's closed-form Sigma~^-1/2) makes the *same* clusterer "
           "produce the alternative grouping.",
           "Re-running k-means without a transform reproduces the given "
           "clustering (ARI 1.0). After either transformation the same "
           "k-means lands on the second truth at ARI 1.0 and ARI ~0 to "
           "the given."),
    "F5": ("Slides 57-60 — iteratively projecting out the explanatory "
           "subspace reveals successively weaker views; the number of "
           "clusterings is determined automatically once the residual is "
           "structureless.",
           "With three planted views of decreasing dominance, iterations "
           "0-2 recover each view once at ARI 1.0; later iterations match "
           "nothing — the residual space is exhausted, the slide-60 "
           "auto-termination story."),
    "F6": ("Slide 12 — Beyer et al.'s distance concentration: the "
           "relative contrast (dmax-dmin)/dmin of i.i.d. data tends to 0 "
           "as dimensionality grows, motivating subspace methods.",
           "Monotone collapse measured from ~42 (d=2) through ~1.0 (d=20) "
           "to ~0.2 (d=200)."),
    "F7": ("Slides 70-71 — monotonicity pruning explores a vanishing "
           "fraction of the exponential subspace lattice without changing "
           "the result.",
           "At every width the pruned run returns the *identical* cluster "
           "set while visiting a shrinking fraction of the lattice (96 of "
           "4095 nodes at d=12) — the gap widens exponentially."),
    "F8": ("Slides 72-73 — CLIQUE's fixed density threshold cannot serve "
           "all dimensionalities; SCHISM's Chernoff-Hoeffding threshold "
           "tau(s) decreases with s and keeps high-dimensional clusters.",
           "tau(s) falls ~0.25 -> ~0.09 from s=1 to s=4. A fixed "
           "threshold high enough to suppress 1-d uniform noise misses "
           "the planted 4-dimensional cluster entirely; SCHISM recovers "
           "it in the exact hidden subspace."),
    "F9": ("Slides 76-79 and the Müller et al. 2009b evaluation study — "
           "raw subspace clustering drowns in redundant projections "
           "(hurting CE and runtime); selection models shrink the result "
           "toward the hidden cluster count.",
           "The exhaustive miners emit 14-181x more clusters than planted "
           "(CE 0.02-0.27); the selection models cut this to 1-3x with CE "
           "rising to 0.27-0.42, and the statistically guided miners "
           "(P3C cores, FIRES merge-and-refine) go straight to the "
           "planted count with the best CE (0.63 / 0.82). Direction of "
           "every metric matches the study."),
    "F10": ("Slides 80-87 — OSCLU keeps one cluster per orthogonal "
            "concept; ASCLU, given one concept as Known, returns a valid "
            "alternative that does not reuse it.",
            "OSCLU keeps the planted concepts; ASCLU with Known = the "
            "(0,1)-concept returns exactly the other two concepts and "
            "never reuses the known one."),
    "F11": ("Slides 88-89 — ENCLUS: clustered subspaces have low grid "
            "entropy and high interest (total correlation); uniform "
            "subspaces do not.",
            "The three planted subspaces score the lowest entropies and "
            "highest interests; the pure-noise subspace scores highest "
            "entropy and near-zero interest; the top-3 subspaces by "
            "interest are exactly the planted ones."),
    "F12": ("Slides 101-104 — co-EM's bootstrapped hypotheses agree with "
            "the shared structure at least as well as single-view EM, and "
            "the two views converge to agreement.",
            "Single-view EM: ARI ~0.96-1.00. co-EM: ARI 1.000 with >99% "
            "inter-view agreement."),
    "F13": ("Slides 105-107 — union cores win on sparse views, "
            "intersection cores win on unreliable views.",
            "Sparse: union ARI 1.0 at coverage 1.0 while intersection "
            "covers ~25%. Unreliable: union collapses to one cluster "
            "(ARI 0.0) while intersection keeps ARI ~0.79 on the ~61% it "
            "dares to cluster."),
    "F14": ("Slides 108-110 — consensus over extracted views (random "
            "projections + EM, Strehl & Ghosh ensembles) stabilises "
            "clustering of high-dimensional data.",
            "Independent EM runs: mean ARI ~0.87 with std ~0.23. The CSPA "
            "consensus and the random-projection ensemble both reach ARI "
            "1.0 with zero variance."),
    "F15": ("Slide 29 — meta clustering's blind generation produces many "
            "near-duplicate solutions; grouping at the meta level "
            "compresses them into a few diverse representatives.",
            "~49% of base-clustering pairs are near-duplicates; the meta-"
            "medoid representatives are mutually diverse and cover both "
            "planted truths at ARI 1.0."),
    "F16": ("Slide 90 — mSC's HSIC penalty steers the spectral views "
            "toward statistically independent subspaces; without it views "
            "collapse onto the dominant structure.",
            "Without the penalty only 1 of 5 seeds recovers both truths "
            "(mean HSIC 0.80 — collapsed views). With lam = 2 every seed "
            "recovers both truths with HSIC ~0.002."),
}

CROSS_CLAIMS = {
    "B1": ("Slide 123 lists a common benchmark and evaluation framework "
           "as the field's open challenge; slides 45/61/91/111 each state "
           "that no paradigm dominates — each has a regime.",
           "No method wins every scenario: all paradigms ace the toy; the "
           "subspace pipeline is the only one to recover all three "
           "dominance-ordered views AND both document topic structures "
           "(at the price of redundant solutions), while the original-"
           "space and transformation methods win on the low-dimensional "
           "customer and two-view scenarios where flat alternatives "
           "exist. Recovery is Hungarian-matched ARI over ALL planted "
           "truths (MultipleClusteringReport)."),
}

ABLATION_CLAIMS = {
    "A1": ("Slide 82 names the two extremes of `coveredSubspaces_beta`: "
           "beta->0 allows only disjoint attribute sets as distinct "
           "concepts, beta=1 only excludes exact projections.",
           "A near-duplicate cluster sharing 2/3 dimensions and 60% of "
           "objects is rejected for every beta <= 2/3 and survives for "
           "beta > 2/3 — the crossover sits exactly at the shared-"
           "dimension fraction; the independent concept always survives."),
    "A2": ("Slides 40-41 present Dec-kMeans' decorrelation penalty; a "
           "symmetric initialisation is a fixed point of the alternating "
           "updates.",
           "Both ingredients are necessary: lam=0 never exceeds 20% "
           "both-truth recovery however many restarts; lam=5 with a "
           "single init also stays at 20%; lam=5 with 20 restarts reaches "
           "100% with cross-ARI ~0."),
    "A3": ("Slide 69: CLIQUE discretises with a fixed grid resolution xi "
           "— a classic sensitivity.",
           "xi=3 merges clusters with noise (lowest F1); xi=6 is the "
           "sweet spot; very fine grids fragment density below threshold "
           "and CE degrades."),
    "A4": ("Slide 76: redundancy, not data size, drives subspace-mining "
           "runtime as dimensionality grows.",
           "SUBCLU's runtime and output size grow fastest with added "
           "noise dimensions; SCHISM's statistical threshold keeps both "
           "flat; CLIQUE sits in between."),
    "A5": ("Slide 72 motivates MAFIA: fixed equal-width cells split "
           "clusters that straddle cell borders; adaptive windows snap to "
           "the density profile.",
           "A cluster centred exactly on a CLIQUE cell border loses ~15% "
           "of its objects to the threshold; MAFIA's adaptive windows "
           "recover ~97%."),
}

_HEADER = '''# EXPERIMENTS — paper claims vs. measured results

Every displayed item of the tutorial *"Discovering Multiple Clustering
Solutions"* (Müller, Günnemann, Färber, Seidl; SDM 2011 / ICDE 2012) is
reproduced as a measured experiment. The tutorial is a survey, so its
"evaluation" consists of one comparison table (T1) and conceptual
figures/claims (F1-F16); each experiment below plants the figure's
premise in synthetic data with known ground truth and measures whether
the claimed shape emerges. Regenerate any table with

    pytest benchmarks/bench_<id>_*.py

or `python -m repro run <id>`; this whole document is the output of
`python -m repro report`. All numbers are from the default experiment
sizes (fixed seeds; values reproduce bit-for-bit with the same NumPy).

Absolute runtimes are not comparable to the cited papers' testbeds;
the *shape* of each claim (who wins, direction of every trend,
crossovers) is the reproduction target, and it holds in all
experiments.
'''

_ABLATION_HEADER = '''
## Ablations (beyond the tutorial's displayed items)

The DESIGN.md inventory calls out several design choices; each ablation
isolates one and verifies its claimed failure modes at the extremes.
Regenerate via `pytest benchmarks/bench_a*.py` or
`python -m repro run A1` etc.
'''


def generate_report(stream=None, keys=None):
    """Run every registered experiment and emit the markdown report.

    ``keys`` optionally restricts the experiment ids (used by tests);
    returns the markdown string and also writes to ``stream`` if given.
    """
    from . import ALL_EXPERIMENTS

    sections = (
        (_HEADER, CLAIMS, "##", "Paper claim"),
        ("\n## Cross-paradigm benchmark\n", CROSS_CLAIMS, "###",
         "Paper claim"),
        (_ABLATION_HEADER, ABLATION_CLAIMS, "###", "Design choice"),
    )
    parts = []
    for header, claims, heading, label in sections:
        parts.append(header)
        for key, (claim, measured) in claims.items():
            if keys is not None and key not in keys:
                continue
            table = ALL_EXPERIMENTS[key]()
            parts += [f"{heading} {key}\n", f"**{label}.** {claim}\n",
                      f"**Measured.** {measured}\n", "```text",
                      table.render(), "```\n"]
    text = "\n".join(parts)
    if stream is not None:
        stream.write(text)
    return text
