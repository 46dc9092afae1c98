"""The pinned estimator panel and the ``fit-panel`` workload.

The panel holds every estimator the server can fit
(``servable_estimators()``) in a ``small`` tier, and again the ones
whose cost grows faster than n in a ``large`` tier. Each tier fits on
pinned planted-truth data from ``make_multiple_truths`` (two independent
three-cluster views); the workload seed sets every ``random_state``, so
every pass repeats the same fits. The data is pinned because a fit's
cost depends on it: drawing it from the seed made pass time differ by
10 % between seeds.
"""

from __future__ import annotations

import time
import tracemalloc
import warnings

from common import (fit_output, median, objectives_match, quantile,
                    recovery, stable_seed)

#: default fit size per tier
TIER_N = {"small": 300, "large": 600}

#: estimators that need a smaller n to stay under about a quarter of
#: their tier's pass (ADCOAlternative takes 3.4 s at n=300, 1.5 s at
#: n=100)
N_OVERRIDES = {
    ("small", "ADCOAlternative"): 50,
    ("small", "ConditionalInformationBottleneck"): 200,
    ("small", "MultipleSpectralViews"): 150,
    ("large", "MultipleSpectralViews"): 300,
}

#: random states per entry: pass i fits with state i mod STATES, and a
#: run makes at least STATES passes. A fit's cost depends on its
#: random_state (GaussianMixtureEM took 3 ms with one and 8 ms with
#: another), so one state per entry made the fit-time percentiles of
#: one seed differ from the next; four average that out.
STATES = 4

#: input-size factor of the warm-up pass
WARM_SCALE = 0.25

#: estimators whose fit cost grows faster than n
LARGE = ("Agglomerative", "COALA", "SpectralClustering", "KernelKMeans",
         "KMedoids", "MinCEntropy", "MultipleSpectralViews", "KMeans")

#: estimators that only accept non-negative data
NON_NEGATIVE = ("ConditionalInformationBottleneck",)


class Entry:
    """One pinned fit: estimator class, tier, size, parameters, data."""

    def __init__(self, tier, name, cls, n, seed, data):
        from repro.serve.scheduler import _fit_signature

        self.tier = tier
        self.name = name
        self.cls = cls
        self.n = n
        self.layer = cls.__module__.split(".")[1]
        self.params = [{} for _ in range(STATES)]
        if "random_state" in cls._param_names():
            for state, params in enumerate(self.params):
                params["random_state"] = stable_seed(seed, tier, name, state)
        X, truths = data
        if name in NON_NEGATIVE:
            X = X - X.min(axis=0)
        self.X = X
        self.truths = truths
        self.given = truths[0] if _fit_signature(cls)[1] else None

    @property
    def metric(self):
        return f"fit_s.{self.layer}.{self.name}.{self.tier}"

    def key(self, state):
        """The entry's key in ``reference.json`` for one random state."""
        return f"panel/{self.tier}/{self.name}/{self.n}/{state}"

    def fit(self, state=0):
        estimator = self.cls(**self.params[state])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if self.given is not None:
                estimator.fit(self.X, self.given)
            else:
                estimator.fit(self.X)
        return estimator


def make_data(n, seed):
    from repro.data import make_multiple_truths

    X, truths, _ = make_multiple_truths(n_samples=n, random_state=seed)
    return X, truths


def build_panel(seed, scale=1.0):
    """``[Entry]`` for both tiers; ``scale`` shrinks every n (tests)."""
    from repro.serve.scheduler import servable_estimators

    servable = servable_estimators()
    tiers = {"small": sorted(servable), "large": list(LARGE)}
    datasets = {}
    entries = []
    for tier, names in tiers.items():
        for name in names:
            n = max(int(N_OVERRIDES.get((tier, name), TIER_N[tier]) * scale),
                    40)
            if n not in datasets:
                datasets[n] = make_data(n, stable_seed("panel", n))
            entries.append(Entry(tier, name, servable[name], n, seed,
                                 datasets[n]))
    return entries


def run_pass(entries, state=0, recorder=None, host=None):
    """Fit every entry once with random state ``state``;
    ``[(entry, seconds, output, n_iter, error)]``. With a ``host``, one
    host-speed probe runs after each fit (outside its time)."""
    results = []
    for entry in entries:
        if host is not None and results:
            host.sample(1)
        start = time.perf_counter()
        try:
            if recorder is None:
                estimator = entry.fit(state)
            else:
                estimator = recorder.call(
                    "fit", entry.fit, (state,), {},
                    attrs={"layer": entry.layer, "tier": entry.tier,
                           "estimator": entry.name})
        except Exception as exc:  # a failing fit is counted, not fatal
            results.append((entry, time.perf_counter() - start, None, 0,
                            f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - start
        output = fit_output(estimator, entry.n)
        n_iter = getattr(estimator, "n_iter_", None)
        results.append((entry, seconds, output,
                        int(n_iter) if n_iter is not None else 0, None))
    return results


def tier_seconds(results):
    totals = {}
    for entry, seconds, *_ in results:
        totals[entry.tier] = totals.get(entry.tier, 0.0) + seconds
    return totals


def fit_peaks(entries):
    """Peak traced Python/NumPy allocation per tier (MiB), one fit each."""
    peaks = {}
    for entry in entries:
        tracemalloc.start()
        try:
            entry.fit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[entry.tier] = max(peaks.get(entry.tier, 0.0), peak / 2**20)
    return peaks


def check(passes, reference, seed, default_seed):
    """Count failed fits over every ``(state, results)`` pass.

    A fit fails when it raised; at the default seed, when its labels or
    objective differ from the committed reference; at any seed, when it
    disagrees with the same entry's fit in the first pass with the same
    random state, or when its planted-truth recovery falls below the
    reference floor.
    """
    failures = []
    first = {}
    for state, results in passes:
        for entry, _, output, _, error in results:
            key = entry.key(state)
            if error is not None:
                failures.append(f"{key}: {error}")
                continue
            digest, objective, labelings = output
            if key in first:
                if (digest, objective) != first[key]:
                    failures.append(f"{key}: differs between passes")
                continue
            first[key] = (digest, objective)
            ref = reference.get(key)
            if ref is None:
                continue
            if seed == default_seed and (
                    digest != ref["digest"]
                    or not objectives_match(objective, ref["objective"])):
                failures.append(f"{key}: differs from reference")
            elif ref["floor"] is not None:
                score = recovery(labelings, entry.truths)
                if score is None or score < ref["floor"]:
                    failures.append(f"{key}: recovery {score} below floor "
                                    f"{ref['floor']}")
    return failures


def run(ctx):
    """The ``fit-panel`` workload: a closed loop of in-process fits, one
    thread. Untraced and (with ``ctx.trace``) traced passes alternate;
    each cycles through the entries' random states."""
    from common import peak_rss_mb, setup_seconds
    from spans import Recorder, install

    entries = build_panel(ctx.seed, ctx.scale)
    # imports and lazy set-up of every estimator, on smaller inputs
    run_pass(build_panel(ctx.seed, ctx.scale * WARM_SCALE))
    setup_s, host = setup_seconds(ctx)
    if ctx.setup_only:
        return {"setup_s": setup_s}

    recorder = Recorder()
    plain, traced = [], []
    window = host.open()
    deadline = time.perf_counter() + ctx.seconds
    while (len(plain) < STATES or (ctx.trace and not traced)
           or time.perf_counter() < deadline):
        if ctx.trace and len(traced) < len(plain):
            installation = install(recorder)
            try:
                traced.append(run_pass(entries, len(traced) % STATES,
                                       recorder))
            finally:
                installation.remove()
        else:
            plain.append(run_pass(entries, len(plain) % STATES, host=host))
    slowdown = host.close(window)
    failures = check(
        [(i % STATES, results) for runs in (plain, traced)
         for i, results in enumerate(runs)],
        ctx.reference, ctx.seed, ctx.default_seed)

    # end-to-end timings are normalised by the run's host slowdown
    fits = [seconds / slowdown for results in plain
            for _, seconds, *_ in results]
    pass_s = [sum(tier_seconds(results).values()) for results in plain]
    norm_s = [seconds / slowdown for seconds in pass_s]
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (1000 * quantile(fits, 0.5), "ms"),
        "op_p90_ms": (1000 * quantile(fits, 0.9), "ms"),
        "throughput_ops": (len(entries) / median(norm_s), "1/s"),
    }
    attempted = len(entries) * (len(plain) + len(traced))
    report = [f"fit-panel: {len(entries)} fits per pass, {len(plain)} "
              f"untraced and {len(traced)} traced passes, untraced pass "
              f"median {median(pass_s):.3f}s raw, {median(norm_s):.3f}s "
              f"normalised by the {host.describe()}"]
    layers = {}
    if ctx.trace:
        layers = _layer_metrics(entries, plain, traced, recorder)
        layers["failed_frac"] = (len(failures) / attempted, "ratio")
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failures": failures, "report": report}


def _layer_metrics(entries, plain, traced, recorder):
    from spans import Summary

    summary = Summary()
    summary.add_process(recorder.spans, default_tier="panel")
    count = len(traced)
    layers = {}
    for entry in entries:
        layers[entry.metric] = (median([
            seconds for results in traced
            for fitted, seconds, *_ in results if fitted is entry]), "s")
    for tier in TIER_N:
        layers[f"fit_iters.{tier}"] = (sum(
            n_iter for entry, _, _, n_iter, _ in traced[0]
            if entry.tier == tier), "count")
        calls, self_s, nbytes = summary.linalg.get(tier, (0, 0.0, 0))
        layers[f"linalg.calls.{tier}"] = (calls / count, "count")
        layers[f"linalg.self_s.{tier}"] = (self_s / count, "s")
        layers[f"linalg.bytes.{tier}"] = (nbytes / count, "B")
        layers[f"panel_{tier}_s"] = (median(
            [tier_seconds(results)[tier] for results in plain]), "s")
    for tier, peak in fit_peaks(entries).items():
        layers[f"fit_peak_mb.{tier}"] = (peak, "MB")
    for layer, seconds in summary.layer_self.items():
        layers[f"self_s.{layer}"] = (seconds / count, "s")
    plain_s = median([sum(tier_seconds(r).values()) for r in plain])
    traced_s = median([sum(tier_seconds(r).values()) for r in traced])
    layers["trace.base_s"] = (plain_s, "s")
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    return layers
