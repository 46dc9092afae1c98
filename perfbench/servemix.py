"""The ``serve-mix`` workload: ``repro serve`` as a subprocess with its
defaults (``--jobs 1``) and a fresh cache directory, driven by one
client process over at most two connections.

The client sends an open-loop schedule at a few fixed rates (a rate
ladder). Arrivals are evenly spaced and the mix of each rung is exact;
the workload seed sets where the cold requests fall, which hot keys
repeat and every fit seed:

* ``cached`` — a repeat of one of the hot model keys fitted during
  set-up, answered from the model registry without running estimator
  code;
* ``cold`` — a KMeans fit with a fresh seed on the 798x10 shape of
  ``BENCH_serve.json``;
* ``dup`` — a duplicate of a cold request sent while it is in flight,
  which the scheduler coalesces onto the original job.

The server runs on the last core and the client on the first. Each
rung runs in segments of :data:`SEGMENT_S` seconds of its schedule,
with host-speed probes on both cores between them.

One request is submit (``POST /jobs``), poll (``GET /jobs/<id>``) and
fetch (``GET /models/<key>``). Its latency runs from the time it was
due, so a stalled generator charges its wait to the requests behind it;
how late the generator ran is reported as ``gen.late_p90_ms``.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (fit_output, median, objectives_match,
                    quantile, stable_seed)

HERE = pathlib.Path(__file__).resolve().parent

ROWS_PER_CLUSTER, CLUSTERS, FEATURES = 133, 6, 10
PARAMS = {"n_clusters": CLUSTERS, "n_init": 10}
HOT_KEYS = 8
#: planned share of each kind per rung (dups ride on cold requests)
MIX = {"cached": 0.80, "cold": 0.15, "dup": 0.05}
#: ladder rates (requests per second) and each rung's share of the run.
#: Latency metrics come from the lowest rung, which stays light (about a
#: quarter of capacity) even when the shared host runs four times slower
#: than usual; the top rung is far above what two connections can drive,
#: so its goodput measures capacity.
RUNGS = ((12.0, 0.8), (50.0, 0.04), (100.0, 0.04), (400.0, 0.06))
#: p90 limit a rung must meet to count as sustained
LATENCY_LIMIT_S = 0.2
CONNECTIONS = 2
POLL_S = 0.005
DUP_DELAY_S = 0.005
REFUSE_RETRIES = 2
REQUEST_TIMEOUT_S = 30.0
#: a rung runs in segments of this many seconds of its schedule, each
#: drained before the next starts, with a burst of host-speed probes
#: between them (the server is idle then). The host's speed changes
#: within seconds, so probes only at the ends of the 16 s lowest rung
#: missed what its requests met.
SEGMENT_S = 1.0
SEGMENT_PROBES = 10


# -- inputs -------------------------------------------------------------------


def make_dataset():
    """Six Gaussian blobs in 10-d, 798 rows (``BENCH_serve.json``'s shape).

    The dataset is pinned rather than drawn from the workload seed: how
    fast k-means converges depends on the data, and the workload varies
    the arrival order and the fit seeds, not the fit cost."""
    rng = np.random.default_rng(stable_seed("serve-data"))
    centers = rng.normal(scale=6.0, size=(CLUSTERS, FEATURES))
    X = np.concatenate([rng.normal(size=(ROWS_PER_CLUSTER, FEATURES)) + c
                        for c in centers])
    return X.round(6)


def request_body(X_json, seed):
    return (f'{{"estimator": "KMeans", "params": {json.dumps(PARAMS)}, '
            f'"seed": {int(seed)}, "dataset": {X_json}}}').encode("utf-8")


class Request:
    __slots__ = ("due", "kind", "seed", "body", "result")

    def __init__(self, due, kind, seed, body):
        self.due = due
        self.kind = kind
        self.seed = seed
        self.body = body
        self.result = None


def build_plan(seed, seconds, X_json, hot_seeds, scale=1.0):
    """``[[Request]]`` per rung, due times relative to the rung start."""
    rng = random.Random(stable_seed(seed, "serve-plan"))
    hot_bodies = [request_body(X_json, s) for s in hot_seeds]
    next_cold = stable_seed(seed, "cold") * 1000
    plan = []
    for rate, share in RUNGS:
        count = max(int(rate * seconds * share * scale), 4)
        n_dup = max(int(round(count * MIX["dup"])), 1)
        n_cold = max(int(round(count * MIX["cold"])), n_dup)
        # cold requests spread evenly through the rung, at a phase drawn
        # from the seed: a chance cluster of cold fits would queue, and
        # how often one occurs would vary from seed to seed
        slots = count - n_dup
        phase = rng.random()
        cold_slots = [int((k + phase) * slots / n_cold)
                      for k in range(n_cold)]
        dup_of = {cold_slots[int((k + phase) * n_cold / n_dup)]
                  for k in range(n_dup)}
        cold_at = set(cold_slots)
        kinds = ["cold" if i in cold_at else "cached" for i in range(slots)]
        requests = []
        for i, kind in enumerate(kinds):
            due = (i + 0.5) / rate
            if kind == "cached":
                pick = rng.randrange(len(hot_seeds))
                requests.append(Request(due, kind, hot_seeds[pick],
                                        hot_bodies[pick]))
                continue
            next_cold += 1
            body = request_body(X_json, next_cold)
            requests.append(Request(due, kind, next_cold, body))
            if i in dup_of:
                requests.append(Request(due + DUP_DELAY_S, "dup", next_cold,
                                        body))
        requests.sort(key=lambda r: r.due)
        plan.append(requests)
    return plan


# -- server process -----------------------------------------------------------


class Server:
    """``repro serve`` started through ``server.py``, on the cores in
    ``cpus`` when given (every thread it starts inherits them)."""

    def __init__(self, workdir, name, spans=None, cpus=None):
        self.workdir = pathlib.Path(workdir)
        self.stdout = self.workdir / f"{name}.out"
        cmd = [sys.executable, "-u", str(HERE / "server.py")]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--", "serve", "--port", "0",
                "--cache-dir", str(self.workdir / f"{name}-cache")]
        with open(self.stdout, "wb") as out, \
                open(self.workdir / f"{name}.err", "wb") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, cwd=str(HERE.parent),
                preexec_fn=(None if cpus is None
                            else lambda: os.sched_setaffinity(0, cpus)))
        self.host, self.port = self._wait_listening()
        self._wait_healthy()

    def _wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}")
            text = self.stdout.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
            time.sleep(0.02)
        raise RuntimeError("server did not report its address")

    def _wait_healthy(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _, body = self.call("GET", "/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server not healthy")

    def call(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.getheader("Retry-After"), resp.read()
        finally:
            conn.close()

    def stop(self, timeout=60.0):
        """SIGTERM (the server drains, then exits), escalating to SIGKILL;
        waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# -- client -------------------------------------------------------------------


def transact(server, req, start_at):
    """Submit, poll, fetch. Sets ``req.result`` to a dict with the
    outcome (``ok``/``failed``/``refused``), its timings and payload."""
    result = {"status": "failed", "retries": 0, "late": 0.0}
    req.result = result
    due = start_at + req.due
    now = time.monotonic()
    if now < due:
        time.sleep(due - now)
    result["late"] = max(time.monotonic() - due, 0.0)
    try:
        _exchange(server, req, result)
    except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        result["done"] = time.monotonic()
        result["latency"] = result["done"] - due


def _exchange(server, req, result):
    for attempt in range(REFUSE_RETRIES + 1):
        status, retry_after, body = server.call("POST", "/jobs", req.body)
        if status not in (429, 503):
            break
        if attempt == REFUSE_RETRIES:
            result["status"] = "refused"
            return
        result["retries"] += 1
        time.sleep(min(float(retry_after or 0.05), 0.25))
    if status not in (200, 202):
        result["error"] = f"POST /jobs -> {status}"
        return
    job = json.loads(body)["job"]
    while job["status"] not in ("done", "failed"):
        time.sleep(POLL_S)
        status, _, body = server.call("GET", f"/jobs/{job['id']}")
        if status != 200:
            result["error"] = f"GET /jobs -> {status}"
            return
        job = json.loads(body)["job"]
    if job["status"] != "done":
        result["error"] = f"job failed: {job.get('error')}"
        return
    status, _, model = server.call("GET", job["model_url"])
    if status != 200:
        result["error"] = f"GET /models -> {status}"
        return
    result.update(status="ok", cached=job["cached"],
                  coalesced=job["coalesced"], key=job["key"], model=model,
                  fit_seconds=job["metrics"].get("fit_seconds"),
                  queue_seconds=_queue_seconds(job))


def _queue_seconds(job):
    for record in (job.get("trace") or {}).get("records", ()):
        if record.get("name") == "scheduler":
            return record.get("attrs", {}).get("queue_seconds")
    return None


def run_rung(server, requests, offset=0.0):
    """Send one rung's schedule, from ``offset`` seconds into it, over
    ``CONNECTIONS`` client threads; returns the rung's start time."""
    lock = threading.Lock()
    pending = collections.deque(requests)
    start_at = time.monotonic() + 0.02 - offset

    def client():
        while True:
            with lock:
                if not pending:
                    return
                req = pending.popleft()
            transact(server, req, start_at)

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start_at


def segments(requests):
    """``[(offset, requests)]``: a rung's schedule cut every
    :data:`SEGMENT_S` seconds of due time (the rung's own time
    ``offset`` where each starts)."""
    cut = collections.defaultdict(list)
    for req in requests:
        cut[int(req.due // SEGMENT_S)].append(req)
    return [(index * SEGMENT_S, cut[index]) for index in sorted(cut)]


def rung_stats(requests, start_at):
    results = [r.result for r in requests]
    latencies = [r["latency"] if r["status"] == "ok" else float("inf")
                 for r in results]
    ok = [r for r in results if r["status"] == "ok"]
    third = max(len(requests) // 3, 1)
    head = [r["late"] for r in results[:third]]
    tail = [r["late"] for r in results[-third:]]
    return {
        "sent": len(results),
        "succeeded": len(ok),
        "failed": sum(r["status"] == "failed" for r in results),
        "refused": sum(r["status"] == "refused" for r in results),
        "retried": sum(r["retries"] for r in results),
        # completions per second from the rung's start to its last reply
        "goodput": len(ok) / (max(r["done"] for r in results) - start_at),
        "p50": quantile(latencies, 0.5),
        "p90": quantile(latencies, 0.9),
        "late_p90": quantile([r["late"] for r in results], 0.9),
        # the backlog grew when the generator fell further behind over
        # the rung than the latency limit allows
        "backlog_grew": median(tail) - median(head) > LATENCY_LIMIT_S / 2,
    }


def max_rate(stats):
    """Highest ladder rate whose p90 meets the limit without a growing
    backlog, interpolated linearly in p90 towards the first rung that
    misses it."""
    best, best_p90 = 0.0, 0.0
    for (rate, _), rung in zip(RUNGS, stats):
        sustained = rung["p90"] < LATENCY_LIMIT_S and not rung["backlog_grew"]
        if not sustained:
            if best and rung["p90"] > best_p90 and rung["p90"] != float("inf"):
                fraction = ((LATENCY_LIMIT_S - best_p90)
                            / (rung["p90"] - best_p90))
                return best + min(max(fraction, 0.0), 1.0) * (rate - best)
            return best
        best, best_p90 = rate, rung["p90"]
    return best


def prometheus_value(text, name):
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def drive(ctx, X_json, hot_seeds, name, fraction, spans=None):
    """Boot a server, fit the hot set and warm up (the set-up), run the
    ladder, stop the server.

    Returns ``(setup_s, plan, stats, hit_ratio, hot_keys, host)``;
    set-up time counts from the start of this process, and ``host``
    holds the host's slowdown over the ladder (probes run between rungs,
    while the server is idle)."""
    # The client runs on one core and the server on the other. Left to
    # the scheduler, whether the two shared a core was settled once per
    # run, and one run in five read a cached p50 a fifth higher.
    cores = sorted(os.sched_getaffinity(0))
    server_cpus = None
    if len(cores) >= 2:
        server_cpus = {cores[-1]}
        os.sched_setaffinity(0, {cores[0]})
    try:
        return _drive(ctx, X_json, hot_seeds, name, fraction, spans,
                      server_cpus)
    finally:
        os.sched_setaffinity(0, cores)


def _drive(ctx, X_json, hot_seeds, name, fraction, spans, server_cpus):
    from common import setup_seconds

    server = Server(ctx.workdir, name, spans=spans, cpus=server_cpus)
    try:
        hot_keys = set()
        for seed in hot_seeds:
            req = Request(0.0, "cold", seed, request_body(X_json, seed))
            transact(server, req, time.monotonic())
            if req.result["status"] != "ok":
                raise RuntimeError(f"hot-set fit failed: {req.result}")
            hot_keys.add(req.result["key"])
        warm = build_plan(ctx.seed + 7919, 1.0, X_json, hot_seeds,
                          scale=0.25)[0]
        run_rung(server, warm)
        setup_s, host = setup_seconds(ctx)
        if ctx.setup_only:
            return setup_s, None, None, None, hot_keys, None
        # probe both the client's core and the server's
        host.cpus = sorted(os.sched_getaffinity(0) | (server_cpus or set()))
        plan = build_plan(ctx.seed, ctx.seconds * fraction, X_json,
                          hot_seeds, scale=ctx.scale)
        stats = []
        window = before = host.open()
        for requests in plan:
            # a rung's slowdown: the burst before it and those inside it
            first, start_at = before, None
            for offset, segment in segments(requests):
                began = run_rung(server, segment, offset)
                start_at = began if start_at is None else start_at
                before = host.sample(SEGMENT_PROBES)
            stats.append(rung_stats(requests, start_at))
            stats[-1]["slowdown"] = host.slowdown(first)
        host.close(window)
        _, _, text = server.call("GET", "/metrics")
        text = text.decode("utf-8")
        hits = prometheus_value(text, "repro_serve_cache_hits_total")
        misses = prometheus_value(text, "repro_serve_cache_misses_total")
    finally:
        server.stop()
    return (setup_s, plan, stats, hits / max(hits + misses, 1.0), hot_keys,
            host)


def check(ctx, X, plans):
    """Failures among the measured requests: errors, refusals on rungs
    the server sustained, and models that differ from a local reference
    fit (and, at the default seed, from the committed reference)."""
    from repro.cluster import KMeans
    from repro.io import estimator_from_dict

    failures = []
    refits = {}
    decoded = {}
    for plan, stats in plans:
        sustained = max_rate(stats)
        for (rate, _), requests in zip(RUNGS, plan):
            for req in requests:
                result = req.result
                where = f"serve/{req.kind}/{req.seed} at {rate:g}/s"
                if result["status"] == "refused":
                    if rate <= sustained or rate == RUNGS[0][0]:
                        failures.append(f"{where}: refused")
                    continue
                if result["status"] != "ok":
                    failures.append(f"{where}: {result.get('error')}")
                    continue
                model = result["model"]
                if model not in decoded:
                    payload = json.loads(model)
                    estimator = estimator_from_dict(payload["model"])
                    decoded[model] = fit_output(estimator, X.shape[0])[:2]
                if req.seed not in refits:
                    local = KMeans(**PARAMS, random_state=req.seed).fit(X)
                    refits[req.seed] = fit_output(local, X.shape[0])[:2]
                got, want = decoded[model], refits[req.seed]
                if got[0] != want[0] or not objectives_match(got[1], want[1]):
                    failures.append(f"{where}: differs from local fit")
                    continue
                ref = ctx.reference.get(f"serve/{req.seed}")
                if (ctx.seed == ctx.default_seed and ref is not None
                        and (got[0] != ref["digest"] or not objectives_match(
                            got[1], ref["objective"]))):
                    failures.append(f"{where}: differs from reference")
    return failures


def hot_seeds_for(seed):
    return [stable_seed(seed, "hot", i) for i in range(HOT_KEYS)]


def run(ctx):
    from common import peak_rss_mb

    X = make_dataset()
    X_json = json.dumps(X.tolist())
    hot_seeds = hot_seeds_for(ctx.seed)
    fraction = 0.5 if ctx.trace else 1.0
    setup_s, plan, stats, hit_ratio, hot_keys, host = drive(
        ctx, X_json, hot_seeds, "plain", fraction)
    if ctx.setup_only:
        return {"setup_s": setup_s}
    plans = [(plan, stats)]
    traced = None
    if ctx.trace:
        spans_path = pathlib.Path(ctx.workdir) / "server-spans.json"
        traced = drive(ctx, X_json, hot_seeds, "traced", fraction,
                       spans=spans_path)
        plans.append((traced[1], traced[2]))
    failures = check(ctx, X, plans)

    # a failed request enters at the time its failure was seen; the
    # failure itself is counted in ``failed``. Latencies are normalised
    # by the host slowdown over their rung, the lowest, which is most of
    # the run. Goodput is normalised by the run's: the top rung lasts a
    # few seconds, and its own few bursts of probes varied more from run
    # to run than its goodput did.
    all_ms = [1000 * r.result["latency"] / stats[0]["slowdown"]
              for r in plan[0]]
    e2e = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (quantile(all_ms, 0.5), "ms"),
        "op_p90_ms": (quantile(all_ms, 0.9), "ms"),
        "throughput_ops": (stats[-1]["goodput"] * host.last, "1/s"),
    }
    attempted = sum(len(requests) for p, _ in plans for requests in p)
    report = [f"serve-mix: rung {rate:g}/s sent {s['sent']} ok "
              f"{s['succeeded']} failed {s['failed']} refused {s['refused']} "
              f"retried {s['retried']} goodput {s['goodput']:.1f}/s "
              f"p50 {1000 * s['p50']:.1f}ms p90 {1000 * s['p90']:.1f}ms "
              f"late_p90 {1000 * s['late_p90']:.1f}ms host slowdown "
              f"{s['slowdown']:.3f}{' backlog grew' if s['backlog_grew'] else ''}"
              for (rate, _), s in zip(RUNGS, stats)]
    report.append(f"serve-mix: max sustained rate {max_rate(stats):.2f}/s, "
                  f"cache hit ratio {hit_ratio:.3f} (rungs raw); end-to-end "
                  f"metrics normalised by the {host.describe()}")
    layers = {}
    if ctx.trace:
        layers = _layer_metrics(plan, stats, hit_ratio, traced, hot_keys,
                                spans_path)
        layers["failed_frac"] = (len(failures) / attempted, "ratio")
        report.append(f"cached-path verdict: {_verdict(layers)}")
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failures": failures, "report": report}


def _kind_ms(requests, kind, q):
    return quantile([1000 * r.result["latency"] for r in requests
                     if r.kind == kind and r.result["status"] == "ok"], q)


def _layer_metrics(plan, stats, hit_ratio, traced, hot_keys, spans_path):
    from spans import Summary, load_spans

    low = plan[0]
    layers = {
        "cold_p50_ms": (_kind_ms(low, "cold", 0.5), "ms"),
        "cold_p90_ms": (_kind_ms(low, "cold", 0.9), "ms"),
        "cached_p50_ms": (_kind_ms(low, "cached", 0.5), "ms"),
        "cached_p90_ms": (_kind_ms(low, "cached", 0.9), "ms"),
        "max_rate_rps": (max_rate(stats), "1/s"),
        "gen.late_p90_ms": (1000 * stats[0]["late_p90"], "ms"),
        "serve.cache.hit_ratio": (hit_ratio, "ratio"),
    }
    for index, rung in enumerate(stats):
        layers[f"serve.refused.r{index}"] = (rung["refused"], "count")

    tplan = traced[1]
    results = [r.result for requests in tplan for r in requests
               if r.result["status"] == "ok"]
    cold = [r for requests in tplan for r in requests
            if r.kind == "cold" and r.result["status"] == "ok"]
    hot_models = [r["model"] for r in results if r["cached"]]
    layers["serve.model_bytes"] = (median([len(m) for m in hot_models]), "B")
    layers["serve.fit_ms"] = (1000 * median(
        [r.result["fit_seconds"] for r in cold]), "ms")
    waits = [1000 * r.result["queue_seconds"] for r in cold
             if r.result["queue_seconds"] is not None]
    layers["serve.scheduler.queue_wait_p50_ms"] = (quantile(waits, 0.5), "ms")
    layers["serve.scheduler.queue_wait_p90_ms"] = (quantile(waits, 0.9), "ms")

    spans = load_spans(spans_path)
    summary = Summary()
    summary.add_process(spans, default_tier="serve")
    by_id = {span[0]: span for span in spans}

    def durations(name, path_prefix=None):
        out = []
        for _, _, span_name, start, end, attrs in spans:
            if span_name != name:
                continue
            if path_prefix and not attrs["path"].startswith(path_prefix):
                continue
            out.append(1000 * (end - start))
        return out

    for metric, name, prefix in (
            ("serve.api.post_jobs_ms", "api.POST", "/jobs"),
            ("serve.api.get_model_ms", "api.GET", "/models/"),
            ("serve.scheduler.submit_ms", "scheduler.submit", None),
            ("serve.registry.fingerprint_ms", "registry.fingerprint", None),
            ("serve.registry.verify_ms", "registry.verify", None),
            ("serve.registry.get_ms", "registry.get", None),
            ("serve.registry.put_ms", "registry.put", None),
            ("io.checksum_ms", "io.checksum", None),
            ("io.encode_ms", "io.encode", None)):
        layers[metric] = (median(durations(name, prefix)), "ms")
    layers["serve.registry.verify_hit_ms"] = (median(
        [1000 * (end - start) for _, _, name, start, end, attrs in spans
         if name == "registry.verify" and attrs["hit"]]), "ms")

    def root(span):
        while span[1] is not None and span[1] in by_id:
            span = by_id[span[1]]
        return span

    checksums = collections.Counter()
    hit_roots = set()
    for span in spans:
        top = root(span)
        if span[2] == "registry.verify" and span[5]["hit"]:
            hit_roots.add(top[0])
        if span[2] == "io.checksum":
            checksums[top[0]] += 1
    model_roots = [span[0] for span in spans if span[2] == "api.GET"
                   and span[5]["path"].rsplit("/", 1)[-1] in hot_keys]
    per_hit = sum(checksums[r] for r in hit_roots) + sum(
        checksums[r] for r in model_roots)
    layers["io.checksums_per_hit"] = (per_hit / max(len(hit_roots), 1),
                                      "count")
    requests = len([s for s in spans if s[2] == "api.POST"])
    calls, self_s, nbytes = summary.linalg.get("serve", (0, 0.0, 0))
    layers["linalg.calls.serve"] = (calls / requests, "count")
    layers["linalg.self_s.serve"] = (self_s / requests, "s")
    layers["linalg.bytes.serve"] = (nbytes / requests, "B")
    for layer, seconds in summary.layer_self.items():
        layers[f"self_s.{layer}"] = (seconds / requests, "s")
    base = quantile([r.result["latency"] for r in low], 0.5)
    traced_p50 = quantile([r.result["latency"] for r in tplan[0]], 0.5)
    layers["trace.base_s"] = (base, "s")
    layers["trace.overhead_s"] = (traced_p50 - base, "s")
    return layers


def _verdict(layers):
    cached = layers["cached_p50_ms"][0]
    share = (layers["serve.registry.verify_hit_ms"][0]
             + layers["serve.registry.get_ms"][0]) / cached if cached else 0
    return (f"verify (hit) {layers['serve.registry.verify_hit_ms'][0]:.2f}ms "
            f"+ get {layers['serve.registry.get_ms'][0]:.2f}ms = "
            f"{100 * share:.0f}% of cached p50 {cached:.2f}ms; "
            f"{layers['io.checksums_per_hit'][0]:.1f} checksums per hit")
