"""NumPy is the only runtime dependency: the package, the server, the
experiments and every estimator that matches clusterings or tests
binomial significance run without loading SciPy, which the kernel
oracles use as a test-only reference."""

import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys

import repro
import repro.experiments
import repro.serve
from repro.data import make_multiple_truths
from repro.metrics import MultipleClusteringReport, clustering_accuracy
from repro.multiview import majority_vote_consensus
from repro.originalspace import ConditionalEnsembles
from repro.subspace import FIRES, P3C, StatPC

X, truths, _ = make_multiple_truths(n_samples=60, random_state=0)
P3C().fit(X)
StatPC().fit(X)
FIRES().fit(X)
alt = ConditionalEnsembles(n_clusters=3, random_state=0).fit(X, truths[0])
clustering_accuracy(alt.labels_, truths[1])
majority_vote_consensus([truths[0], truths[1], alt.labels_])
MultipleClusteringReport([alt.labels_, truths[0]], truths)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_paths_never_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    assert proc.stdout.strip() == "[]"
