"""Evaluating a *set* of clustering solutions against a *set* of truths.

The tutorial's problem statement (slide 27) asks for m solutions that
are each good and mutually dissimilar; when ground truths are planted
(as in all our experiments) the natural questions are:

* which planted truth does each solution capture, one-to-one?
* how many truths are recovered above a threshold?
* how much redundancy is left among the solutions?

:class:`MultipleClusteringReport` answers these with a Hungarian
matching on the solution-vs-truth ARI matrix; the experiment harness
and user code share it.
"""

from __future__ import annotations

import numpy as np

from .partition import agreement_matrix
from ..exceptions import ValidationError
from ..utils.assignment import min_cost_assignment

__all__ = ["solution_truth_matrix", "MultipleClusteringReport"]


def _as_label_list(labelings, name):
    out = [np.asarray(lab) for lab in labelings]
    if not out:
        raise ValidationError(f"{name} must contain at least one labeling")
    return out


def solution_truth_matrix(solutions, truths):
    """Matrix ``M[i, j]`` = ARI of ``solutions[i]`` against ``truths[j]``.

    Subspace-derived labelings may mark most objects as noise; a pair
    that clusters no object in common scores 0 (no agreement)."""
    return agreement_matrix(_as_label_list(solutions, "solutions"),
                            _as_label_list(truths, "truths"), no_overlap=0.0)


class MultipleClusteringReport:
    """One-to-one evaluation of multiple solutions vs multiple truths.

    Parameters
    ----------
    solutions : sequence of label vectors
        The method's output (e.g. ``estimator.labelings_``).
    truths : sequence of label vectors
        The planted ground truths.

    Attributes
    ----------
    matrix_ : ndarray (n_solutions, n_truths)
        ARI of each solution against each truth
        (:func:`solution_truth_matrix`).
    assignment_ : list of (solution_idx, truth_idx, score)
        Hungarian matching maximising the summed score.
    """

    def __init__(self, solutions, truths):
        self.solutions = _as_label_list(solutions, "solutions")
        self.truths = _as_label_list(truths, "truths")
        self.matrix_ = solution_truth_matrix(self.solutions, self.truths)
        rows, cols = min_cost_assignment(-self.matrix_)
        self.assignment_ = [
            (int(r), int(c), float(self.matrix_[r, c]))
            for r, c in zip(rows, cols)
        ]

    def recovered_truths(self, threshold=0.8):
        """Indices of truths matched one-to-one above ``threshold``."""
        return sorted(
            c for _, c, v in self.assignment_ if v >= threshold
        )

    def recovery_rate(self, threshold=0.8):
        """Fraction of truths recovered above ``threshold``."""
        return len(self.recovered_truths(threshold)) / len(self.truths)

    def redundancy(self):
        """Mean pairwise *similarity* among the solutions (1 - mean
        pairwise dissimilarity); 0 means perfectly diverse solutions.
        Pairs with no jointly clustered objects count as similarity 0."""
        m = len(self.solutions)
        if m < 2:
            return 0.0
        sims = agreement_matrix(self.solutions, no_overlap=0.0)
        return float(np.mean(sims[np.triu_indices(m, k=1)]))

    def best_score_per_truth(self):
        """Best (not necessarily one-to-one) score for each truth."""
        return self.matrix_.max(axis=0)

    def summary(self, threshold=0.8):
        """Dict with the headline numbers."""
        return {
            "n_solutions": len(self.solutions),
            "n_truths": len(self.truths),
            "recovery_rate": self.recovery_rate(threshold),
            "matched_scores": [v for _, _, v in self.assignment_],
            "redundancy": self.redundancy(),
        }

    def render(self, threshold=0.8):
        """Human-readable multi-line summary."""
        lines = [
            f"solutions: {len(self.solutions)}   truths: {len(self.truths)}",
        ]
        for r, c, v in self.assignment_:
            marker = "recovered" if v >= threshold else "missed"
            lines.append(
                f"  solution {r} <-> truth {c}: score {v:+.3f} ({marker})"
            )
        lines.append(f"recovery rate @ {threshold}: "
                     f"{self.recovery_rate(threshold):.2f}")
        lines.append(f"solution redundancy: {self.redundancy():+.3f}")
        return "\n".join(lines)
