"""Shared helpers: environment stamp, resource use, statistics and the
output digests the correctness checks compare.

Nothing here imports ``repro``; the workload modules do that after
``run.py`` has put the checkout's ``src`` on ``sys.path`` and pinned the
BLAS thread count.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import zlib

import numpy as np
from scipy.special import betainc

#: relative tolerance for scalar objectives compared with the reference
OBJECTIVE_RTOL = 1e-9

#: seconds of one host-speed probe on the 2-core Xeon VM the benchmark
#: was calibrated on, in a quiet period (see ``HostSpeed``)
PROBE_REFERENCE_S = 0.00086
#: the probe: k-means-style iterations in NumPy on a small matrix, a
#: JSON round trip of a small document, a sha256 of a short buffer and
#: a dict of Python lists -- the kinds of work the workloads do, at a
#: size that stays in a core's own caches
PROBE_SHAPE = (300, 10)
PROBE_CENTERS = 6
PROBE_ITERATIONS = 6
PROBE_ROWS = 60
PROBE_BYTES = 1 << 16
PROBE_KEYS = 300
#: probes in one burst
PROBE_BURST = 15


# -- environment --------------------------------------------------------------


def blas_thread_count():
    """Threads the loaded OpenBLAS reports, or ``None`` when no OpenBLAS
    library is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii",
                  errors="replace") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_version():
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return f"{info.get('name')} {info.get('version')}"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_stamp():
    """Host facts every result carries, so numbers are read in context."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": blas_thread_count(),
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class HostSpeed:
    """How fast the shared host runs right now.

    The host is a 2-core VM whose speed drifts with its neighbours'
    load -- by up to three times between runs minutes apart,
    and each core on its own within seconds -- while the code under
    test stays the same. A probe is one fixed unit of work that runs no
    ``repro`` code but is made of the kinds of work the workloads do:
    small NumPy array operations, JSON, hashing, Python dicts and
    lists. It runs twice, while the workload is idle; the wall time of
    the second run (warm caches, so it does not depend on what the
    workload left in them) over :data:`PROBE_REFERENCE_S` is one
    slowdown sample. Wall time, because it counts the moments the host
    stalls the core, which the workload's timings count too.

    A run measures in one window, its timed phase, and divides its
    end-to-end timings by the mean of every sample in it: the mean of
    probes spread through the run weighs stalls by the share of the run
    they took, where a median would ignore them. Normalised timings read
    as seconds on the host when it was quiet. The probe runs no code of
    the program, so a change to the program moves the normalised
    timings as it would the raw ones.
    """

    def __init__(self):
        rng = np.random.default_rng(stable_seed("host-speed"))
        self._X = rng.normal(size=PROBE_SHAPE)
        self._doc = {"rows": self._X[:PROBE_ROWS].round(6).tolist()}
        self._bytes = rng.bytes(PROBE_BYTES)
        #: cores the probes take turns on (``None``: wherever this
        #: thread runs)
        self.cpus = None
        self.slowdowns = []
        self.cpu_slowdowns = []
        self.last = 1.0
        self.window = 0
        self._work()

    def _work(self):
        X = self._X
        centers = X[:PROBE_CENTERS]
        for _ in range(PROBE_ITERATIONS):
            dist = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = dist.argmin(axis=1)
            centers = np.array([X[labels == k].mean(axis=0)
                                for k in range(PROBE_CENTERS)])
        json.loads(json.dumps(self._doc))
        hashlib.sha256(self._bytes).digest()
        table = {}
        for i in range(PROBE_KEYS):
            table[str(i)] = [i, labels[i % PROBE_SHAPE[0]]]
        return table

    def sample(self, count=PROBE_BURST):
        """Run ``count`` probes, taking turns on the cores in
        ``self.cpus`` when set; returns the index of the first."""
        first = len(self.slowdowns)
        enabled = gc.isenabled()
        gc.disable()
        cores = os.sched_getaffinity(0) if self.cpus else None
        try:
            for _ in range(count):
                if cores is not None:
                    turn = len(self.slowdowns) % len(self.cpus)
                    os.sched_setaffinity(0, {self.cpus[turn]})
                self._work()  # warm the caches the workload just used
                cpu = time.thread_time()
                wall = time.perf_counter()
                self._work()
                self.slowdowns.append(
                    (time.perf_counter() - wall) / PROBE_REFERENCE_S)
                self.cpu_slowdowns.append(
                    (time.thread_time() - cpu) / PROBE_REFERENCE_S)
        finally:
            if cores is not None:
                os.sched_setaffinity(0, cores)
            if enabled:
                gc.enable()
        return first

    def open(self, burst=PROBE_BURST):
        """Start a measured window with a burst of probes. The workload
        may :meth:`sample` inside the window while it is idle."""
        return self.sample(burst)

    def close(self, window, burst=PROBE_BURST):
        """End a window with a burst of probes; returns its slowdown, the
        factor to divide the window's timings by."""
        self.sample(burst)
        self.last = self.slowdown(window)
        self.window = window
        return self.last

    def slowdown(self, first=0, end=None):
        """Mean slowdown of the probes ``first`` to ``end``."""
        return statistics.mean(self.slowdowns[first:end])

    def describe(self):
        """The last window's slowdown, for the report."""
        walls = self.slowdowns[self.window:]
        cpus = self.cpu_slowdowns[self.window:]
        return (f"host slowdown {self.last:.3f} (mean of {len(walls)} "
                f"probes; median {statistics.median(walls):.3f}, CPU-time "
                f"median {statistics.median(cpus):.3f})")


def setup_seconds(ctx):
    """``(seconds, host)``: the set-up time from the start of the process
    to now, normalised by a burst of probes taken after it, and the
    :class:`HostSpeed` for the timed phase (built after the set-up time
    is taken)."""
    seconds = time.perf_counter() - ctx.started
    host = HostSpeed()
    return seconds / host.slowdown(host.sample()), host


def peak_rss_mb():
    """Highest resident set size of this process and of every child it
    has waited for (server, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- statistics ---------------------------------------------------------------


def quantile(values, q):
    """The ``q`` quantile of ``values`` (0 when empty).

    Harrell-Davis estimate: a Beta-weighted mean of the order
    statistics. A single order statistic jumps when the sample has a gap
    at rank ``q*n`` -- the panel's fit times have one near the median --
    while this estimate moves smoothly. With a non-finite value (a
    failed request counted as a miss) it falls back to the interpolated
    order statistic.
    """
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.shape[0]
    if not np.all(np.isfinite(ordered)):
        pos = q * (n - 1)
        lo = math.floor(pos)
        if lo == pos:
            return float(ordered[lo])
        return float(ordered[lo] + (ordered[lo + 1] - ordered[lo])
                     * (pos - lo))
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ ordered)


def median(values):
    return statistics.median(values) if values else 0.0


def stable_seed(*parts):
    """A 31-bit seed derived from ``parts`` that does not depend on
    Python's per-process string hash randomisation."""
    return zlib.crc32(repr(parts).encode("utf-8")) & 0x7FFFFFFF


# -- output digests -----------------------------------------------------------


def canonical_labels(labels):
    """Relabel in order of first appearance, keeping negative (noise)
    labels as they are, so two labelings that differ only by a
    permutation of cluster ids compare equal."""
    labels = np.asarray(labels).ravel()
    mapping = {}
    out = np.empty(labels.shape[0], dtype=np.int64)
    for i, value in enumerate(labels.tolist()):
        if value < 0:
            out[i] = -1
            continue
        out[i] = mapping.setdefault(value, len(mapping))
    return out


def _subspace_clusters(clusters):
    return sorted((tuple(sorted(c.dims)), tuple(sorted(c.objects)))
                  for c in clusters)


def _clusters_to_labels(clusters, n):
    """Object labels from a subspace clustering: each object takes the
    first cluster (in canonical order) that contains it, else -1."""
    labels = np.full(n, -1, dtype=np.int64)
    for index, (_, objects) in enumerate(_subspace_clusters(clusters)):
        idx = np.asarray(objects, dtype=np.int64)
        idx = idx[labels[idx] < 0]
        labels[idx] = index
    return labels


_OBJECTIVE_ATTRS = ("objective_", "inertia_", "log_likelihood_", "quality_")
_MATRIX_ATTRS = ("matrix_", "transform_matrix_", "projector_", "metric_",
                 "transform_")


def fit_output(estimator, n):
    """``(digest, objective, labelings)`` of a fitted estimator.

    The digest hashes the permutation-invariant labels (or subspace
    clusters, or grid cells); the objective is the estimator's own
    scalar objective, or a matrix norm for transforms; ``labelings`` are
    the partitions used to score planted-truth recovery.
    """
    parts = []
    labelings = []
    for attr in ("labels_", "meta_labels_"):
        value = getattr(estimator, attr, None)
        if isinstance(value, np.ndarray):
            canon = canonical_labels(value)
            parts.append((attr, canon.tolist()))
            if value.shape[0] == n:
                labelings.append(canon)
    for labels in getattr(estimator, "labelings_", None) or ():
        canon = canonical_labels(labels)
        parts.append(("labelings_", canon.tolist()))
        labelings.append(canon)
    clusters = getattr(estimator, "clusters_", None)
    if clusters is not None and not isinstance(clusters, np.ndarray):
        parts.append(("clusters_", _subspace_clusters(clusters)))
        if not labelings:
            labelings.append(_clusters_to_labels(clusters, n))
    cells = getattr(estimator, "cell_index_", None)
    if isinstance(cells, np.ndarray):
        parts.append(("cell_index_", cells.tolist()))
    subspaces = getattr(estimator, "subspaces_", None)
    if isinstance(subspaces, list):
        parts.append(("subspaces_", [sorted(map(int, s)) for s in subspaces]))
    objective = None
    for attr in _OBJECTIVE_ATTRS:
        value = getattr(estimator, attr, None)
        if isinstance(value, (int, float, np.floating)):
            objective = float(value)
            break
    if objective is None:
        for attr in _MATRIX_ATTRS:
            value = getattr(estimator, attr, None)
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                objective = float(np.linalg.norm(value))
                break
    entropies = getattr(estimator, "entropies_", None)
    if objective is None and isinstance(entropies, dict):
        objective = float(sum(entropies.values()))
    digest = hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()
    return digest[:24], objective, labelings


def adjusted_rand(a, b):
    """Adjusted Rand index of two label vectors (noise is a label)."""
    a = np.asarray(a)
    b = np.asarray(b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float(np.sum(x * (x - 1)) / 2.0)

    total = pairs(np.array([a.shape[0]], dtype=float))
    sum_ij = pairs(table)
    sum_a = pairs(table.sum(axis=1))
    sum_b = pairs(table.sum(axis=0))
    expected = sum_a * sum_b / total if total else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def recovery(labelings, truths):
    """Best adjusted Rand index of any produced labeling against any
    planted truth, or ``None`` when the estimator yields no partition."""
    if not labelings:
        return None
    return max(adjusted_rand(lab, truth)
               for lab in labelings for truth in truths)


def objectives_match(a, b):
    if a is None or b is None:
        return a is None and b is None
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=OBJECTIVE_RTOL, abs_tol=1e-12)


# -- result line --------------------------------------------------------------


def emit(result, env, report_lines=()):
    """Print the human report, the environment stamp and, as the last
    line of standard output, the one-line JSON result."""
    for line in report_lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
