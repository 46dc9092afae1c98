"""Chaos drill: inject real faults into a real server, prove recovery.

Usage::

    python tools/chaos.py                 # all five scenarios, ~1 minute
    python tools/chaos.py --smoke         # worker-kill + corrupt-entry
    python tools/chaos.py --scenario overload
    python tools/chaos.py --out BENCH_resilience.json

The drill boots an actual ``repro serve`` subprocess, drives it with a
threaded load generator, injects failures mid-load, and asserts the
self-healing invariants the serving layer claims:

* **no wrong result is ever served** — every model payload returned
  over HTTP is compared byte-for-byte (canonical JSON) against a
  reference fit computed directly in this process;
* **the service recovers within a bound** — after each fault, the time
  until the next fresh fit completes is measured and capped;
* **failures are accounted for** — quarantine records, degraded-mode
  gauges, shed counters and failure kinds must show up where the
  failure taxonomy (``docs/robustness.md``) says they will.

Five scenarios, one fault each:

``worker-kill``
    SIGKILL a pool worker mid-fit; the pool must reap and respawn it,
    the in-flight job must fail *cleanly* (kind ``crashed``), and a
    resubmission must succeed with a correct payload.
``corrupt-entry``
    Flip one byte of a cached entry on disk; the next request for that
    key must quarantine the corrupt file and transparently refit,
    returning correct predictions — never the corrupt payload.
``disk-full``
    Push the cache directory past its ``--cache-max-bytes`` cap; the
    server must degrade to memory-only caching (still answering
    correctly), then heal back to disk once space frees.
``overload``
    Flood the server far past its shedding threshold; availability
    (well-formed, honest responses) must stay >= 99% and at least part
    of the flood must be shed with ``Retry-After``.
``server-kill``
    SIGKILL the whole server; a replacement started on the same cache
    directory must come back healthy within the bound and serve the
    pre-crash cache (hit, byte-identical payload).

``--smoke`` runs only ``worker-kill`` + ``corrupt-entry`` with a small
workload — the pre-PR checklist gate (< 10 s on a warm machine).
``--jobs N`` sets the pool size of every server under test (default 2,
at least 2 so there is a worker to kill), ``--scenario NAME`` (repeatable)
picks scenarios, and ``--out FILE`` writes the JSON report (the
committed ``BENCH_resilience.json``).

Exit status: 0 when every scenario passed, 1 when one failed, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

_REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_REPO_SRC) not in sys.path:
    sys.path.insert(0, str(_REPO_SRC))

import numpy as np

from repro.exceptions import ValidationError
from repro.io import dumps, estimator_to_dict, write_text_atomic
from repro.observability.logs import configure_logging, get_logger
from repro.serve import ServeClient, ServerError
from repro.serve.scheduler import servable_estimators

logger = get_logger("chaos")

#: Full-run scenario order (each boots its own server).
SCENARIOS = ("worker-kill", "corrupt-entry", "disk-full", "overload",
             "server-kill")
#: ``--smoke`` subset: the two cheapest faults, one shared server.
SMOKE_SCENARIOS = ("worker-kill", "corrupt-entry")

#: Seconds a freshly started server gets to answer ``GET /healthz``.
READY_TIMEOUT = 30.0
#: Recovery bound asserted after every fault (seconds until the next
#: fresh fit completes / the restarted server is healthy).
RECOVERY_BOUND = 30.0
#: Availability floor asserted during the overload flood (percent).
AVAILABILITY_FLOOR = 99.0


# -- workload ---------------------------------------------------------------


def _dataset(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)).round(6).tolist()


def _fast_spec(seed):
    """A sub-100ms KMeans fit; availability probes and cache fodder."""
    return {"estimator": "KMeans", "dataset": _dataset(60, 4, 7),
            "params": {"n_clusters": 3}, "seed": int(seed)}


def _slow_spec(seed, rows=1200):
    """A multi-second SpectralClustering fit; keeps pool workers busy
    long enough to be killed mid-flight."""
    return {"estimator": "SpectralClustering",
            "dataset": _dataset(rows, 6, 11),
            "params": {"n_clusters": 4}, "seed": int(seed)}


class _Reference:
    """Local reference fits, keyed by spec, for correctness checks."""

    def __init__(self):
        self._models = {}
        self._lock = threading.Lock()

    @staticmethod
    def _spec_key(spec):
        return dumps({k: spec.get(k) for k in ("estimator", "dataset",
                                               "params", "seed")},
                     sort_keys=True)

    def model(self, spec):
        """Canonical serialized model for ``spec``, fit locally —
        mirrors the scheduler's seed handling exactly."""
        key = self._spec_key(spec)
        with self._lock:
            cached = self._models.get(key)
        if cached is not None:
            return cached
        cls = servable_estimators()[spec["estimator"]]
        params = dict(spec.get("params") or {})
        seed = spec.get("seed")
        if seed is not None and "random_state" in cls._param_names():
            params.setdefault("random_state", int(seed))
        estimator = cls(**params)
        estimator.fit(np.asarray(spec["dataset"], dtype=np.float64))
        model = dumps(estimator_to_dict(estimator), sort_keys=True)
        with self._lock:
            self._models[key] = model
        return model

    def matches(self, spec, payload):
        """True iff the served payload's model is byte-identical to
        the local reference fit."""
        if not isinstance(payload, dict) or "model" not in payload:
            return False
        return dumps(payload["model"], sort_keys=True) == self.model(spec)


# -- server under test ------------------------------------------------------


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _ServerProcess:
    """One ``repro serve`` subprocess under chaos."""

    def __init__(self, cache_dir, *, jobs=2, port=None, extra_args=()):
        self.cache_dir = str(cache_dir)
        self.port = int(port) if port is not None else _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        cmd = [sys.executable, "-u", "-m", "repro", "serve",
               "--host", "127.0.0.1", "--port", str(self.port),
               "--jobs", str(int(jobs)), "--cache-dir", self.cache_dir,
               *[str(a) for a in extra_args]]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [str(_REPO_SRC), env.get("PYTHONPATH")] if p)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL, env=env)

    @property
    def pid(self):
        return self.proc.pid

    def wait_ready(self, timeout=READY_TIMEOUT):
        """Seconds until ``GET /healthz`` answers; raises on timeout."""
        probe = ServeClient(self.url, timeout=2.0, retries=0)
        start = time.monotonic()
        while time.monotonic() - start < timeout:
            if self.proc.poll() is not None:
                raise ValidationError(
                    f"server exited with {self.proc.returncode} before "
                    "becoming ready")
            try:
                if probe.healthz().get("status") == "ok":
                    return time.monotonic() - start
            except ServerError:
                time.sleep(0.05)
        raise ValidationError(f"server not ready after {timeout:.0f}s")

    def worker_pids(self):
        """Live pool-worker children of the server (via ``/proc``)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            base = f"/proc/{entry}"
            try:
                with open(f"{base}/status", encoding="ascii",
                          errors="replace") as fh:
                    fields = dict(
                        line.split(":\t", 1) for line in fh
                        if ":\t" in line)
                with open(f"{base}/cmdline", "rb") as fh:
                    cmdline = fh.read()
            except OSError:  # the process exited between listdir and read
                continue
            if int(fields.get("PPid", "0")) != self.proc.pid:
                continue
            if (b"resource_tracker" in cmdline
                    or b"semaphore_tracker" in cmdline):
                continue
            pids.append(int(entry))
        return sorted(pids)

    def kill(self):
        """SIGKILL the server (the ``server-kill`` fault)."""
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10)

    def stop(self, timeout=15.0):
        """Graceful shutdown; escalates to SIGKILL at ``timeout``."""
        if self.proc.poll() is not None:
            return
        with contextlib.suppress(ProcessLookupError):
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            logger.warning("server %d ignored SIGTERM; killing",
                           self.proc.pid)
            self.kill()


# -- load generation --------------------------------------------------------


class _Samples:
    """Thread-safe request log with availability/latency rollups.

    *Available* means the server gave a well-formed, honest answer:
    success, a clean failure record, or an explicit backpressure reply
    (429/503 with ``Retry-After``). Connection errors, hangs, and 5xx
    breakage count against availability.
    """

    AVAILABLE = ("ok", "failed-clean", "shed", "queue-full", "deadline")

    def __init__(self):
        self._lock = threading.Lock()
        self.rows = []

    def add(self, outcome, latency, status=None, correct=None, note=None):
        with self._lock:
            self.rows.append({"outcome": outcome,
                              "latency": float(latency),
                              "status": status, "correct": correct,
                              "note": note})

    def count(self, *outcomes):
        with self._lock:
            return sum(1 for r in self.rows if r["outcome"] in outcomes)

    def wrong_results(self):
        with self._lock:
            return [r for r in self.rows if r["correct"] is False]

    def availability_pct(self):
        with self._lock:
            if not self.rows:
                return 100.0
            good = sum(1 for r in self.rows
                       if r["outcome"] in self.AVAILABLE)
            return 100.0 * good / len(self.rows)

    def latency_quantile(self, q):
        with self._lock:
            lat = sorted(r["latency"] for r in self.rows
                         if r["outcome"] == "ok")
        if not lat:
            return None
        index = min(int(q * len(lat)), len(lat) - 1)
        return lat[index]

    def summary(self):
        with self._lock:
            total = len(self.rows)
        return {
            "requests": total,
            "ok": self.count("ok"),
            "failed_clean": self.count("failed-clean"),
            "shed": self.count("shed", "queue-full"),
            "unavailable": total - self.count(*self.AVAILABLE),
            "wrong_results": len(self.wrong_results()),
            "availability_pct": round(self.availability_pct(), 3),
            "p99_seconds": self.latency_quantile(0.99),
        }


def _fit_once(client, spec, reference, samples, *, deadline_ms=None,
              timeout=60.0):
    """Submit one fit, wait it out, verify the payload; one sample.

    Returns the terminal job dict (or ``None`` when the request never
    produced one).
    """
    start = time.perf_counter()
    try:
        job = client.submit(spec["estimator"], spec["dataset"],
                            params=spec.get("params"),
                            seed=spec.get("seed"),
                            deadline_ms=deadline_ms)
        if job.get("status") not in ("done", "failed"):
            _, job = client.wait(job["id"], timeout=timeout, poll=0.05)
        latency = time.perf_counter() - start
        if job.get("status") == "done":
            payload = client.get_model(job["key"])
            correct = reference.matches(spec, payload)
            samples.add("ok" if correct else "wrong-result", latency,
                        status=200, correct=correct,
                        note=None if correct else "payload mismatch")
        else:
            error = job.get("error") or {}
            outcome = ("deadline" if error.get("kind") == "deadline"
                       else "failed-clean")
            samples.add(outcome, latency, status=None,
                        note=error.get("kind"))
        return job
    except ServerError as exc:
        latency = time.perf_counter() - start
        if exc.status in (429, 503):
            retry_after = (exc.body or {}).get("error") is not None
            samples.add("queue-full" if exc.status == 429 else "shed",
                        latency, status=exc.status,
                        note="json-body" if retry_after else "no-body")
        elif exc.status is None:
            samples.add("unreachable", latency, note=str(exc))
        else:
            samples.add("server-error", latency, status=exc.status,
                        note=str(exc))
        return None


def _load_thread(url, specs, reference, samples, stop, *, retries=0,
                 deadline_ms=None):
    """Background load: round-robin ``specs`` until ``stop`` is set."""
    client = ServeClient(url, timeout=10.0, retries=retries, seed=1234)
    index = 0
    while not stop.is_set():
        _fit_once(client, specs[index % len(specs)], reference, samples,
                  deadline_ms=deadline_ms)
        index += 1


# -- scenarios --------------------------------------------------------------


def _metric_value(client, name, default=0.0):
    stats = client.stats()
    entry = (stats.get("metrics") or {}).get(name) or {}
    return float(entry.get("value", default))


def _scenario_worker_kill(workdir, *, jobs, smoke, server=None):
    """SIGKILL one pool worker mid-fit; pool reaps, respawns, recovers."""
    reference = _Reference()
    samples = _Samples()
    own_server = server is None
    if own_server:
        server = _ServerProcess(os.path.join(workdir, "cache-worker-kill"),
                                jobs=jobs)
        server.wait_ready()
    try:
        client = ServeClient(server.url, timeout=10.0, retries=2, seed=7)
        rows = 800 if smoke else 1200
        slow = [_slow_spec(seed, rows=rows)
                for seed in range(2 if smoke else 4)]
        stop = threading.Event()
        loader = threading.Thread(
            target=_load_thread,
            args=(server.url, slow, reference, samples, stop),
            daemon=True)
        loader.start()
        # wait for a pool worker to materialize, then shoot it
        victim = None
        deadline = time.monotonic() + 20.0
        while victim is None and time.monotonic() < deadline:
            pids = server.worker_pids()
            if pids:
                victim = pids[-1]
            else:
                time.sleep(0.05)
        if victim is None:
            raise ValidationError("no pool worker appeared to kill")
        os.kill(victim, signal.SIGKILL)
        killed_at = time.monotonic()
        logger.info("killed pool worker %d", victim)
        # quiesce the load so recovery measures the pool, not the queue
        stop.set()
        # recovery: a fresh fit (new key, so no cache assist) completes
        probe = _fit_once(client, _slow_spec(97, rows=rows), reference,
                          samples, timeout=60.0)
        recovery = time.monotonic() - killed_at
        loader.join(timeout=60.0)
        crashes = _metric_value(client, "pool.workers.respawned")
        failures = {
            "respawned_workers": crashes,
            "crashed_jobs": samples.count("failed-clean"),
        }
        passed = (probe is not None and probe.get("status") == "done"
                  and not samples.wrong_results()
                  and recovery <= RECOVERY_BOUND
                  and client.healthz().get("status") == "ok")
        return {"scenario": "worker-kill", "passed": bool(passed),
                "recovery_seconds": round(recovery, 3),
                "detail": failures, **samples.summary()}
    finally:
        if own_server:
            server.stop()


def _scenario_corrupt_entry(workdir, *, jobs, smoke, server=None):
    """Bit-flip a cached entry; it must be quarantined, never served."""
    reference = _Reference()
    samples = _Samples()
    own_server = server is None
    cache_dir = (os.path.join(workdir, "cache-corrupt") if own_server
                 else server.cache_dir)
    if own_server:
        server = _ServerProcess(cache_dir, jobs=jobs)
        server.wait_ready()
    try:
        client = ServeClient(server.url, timeout=10.0, retries=2, seed=7)
        spec = _fast_spec(41)
        seeded = _fit_once(client, spec, reference, samples)
        if seeded is None or seeded.get("status") != "done":
            raise ValidationError("could not seed the cache entry")
        key = seeded["key"]
        entry = os.path.join(server.cache_dir, f"{key}.json")
        with open(entry, "rb") as fh:
            blob = bytearray(fh.read())
        flip = len(blob) // 2
        blob[flip] ^= 0xFF
        with open(entry, "wb") as fh:
            fh.write(blob)
        corrupted_at = time.monotonic()
        logger.info("flipped byte %d of %s", flip, entry)
        # the resubmission must NOT be a cache hit and must be correct
        after = _fit_once(client, spec, reference, samples)
        recovery = time.monotonic() - corrupted_at
        quarantine = os.path.join(server.cache_dir, "quarantine")
        q_records = ([name for name in os.listdir(quarantine)
                      if name.endswith(".error.json")]
                     if os.path.isdir(quarantine) else [])
        quarantined = _metric_value(client,
                                    "serve.cache.integrity_quarantined")
        passed = (after is not None and after.get("status") == "done"
                  and not after.get("cached")
                  and not samples.wrong_results()
                  and len(q_records) >= 1 and quarantined >= 1
                  and recovery <= RECOVERY_BOUND)
        return {"scenario": "corrupt-entry", "passed": bool(passed),
                "recovery_seconds": round(recovery, 3),
                "detail": {"quarantine_records": len(q_records),
                           "integrity_quarantined_metric": quarantined,
                           "refit_was_cache_hit": bool(
                               after and after.get("cached"))},
                **samples.summary()}
    finally:
        if own_server:
            server.stop()


def _scenario_disk_full(workdir, *, jobs, smoke):
    """Fill the cache past its byte cap; degrade to memory, then heal."""
    reference = _Reference()
    samples = _Samples()
    cache_dir = os.path.join(workdir, "cache-disk-full")
    cap = 256 * 1024
    server = _ServerProcess(cache_dir, jobs=jobs,
                            extra_args=["--cache-max-bytes", cap])
    try:
        server.wait_ready()
        client = ServeClient(server.url, timeout=10.0, retries=2, seed=7)
        filler = os.path.join(cache_dir, "filler.bin")
        with open(filler, "wb") as fh:
            fh.write(b"\0" * cap)
        filled_at = time.monotonic()
        # ENOSPC territory: the fit must still answer correctly, from
        # the in-memory overlay, with the health endpoint saying so
        degraded_job = _fit_once(client, _fast_spec(51), reference,
                                 samples)
        health = client.healthz()
        degraded_mode = health.get("cache_mode")
        write_errors = _metric_value(client, "serve.cache.write_errors")
        os.unlink(filler)
        # healing: the next fit writes to disk again and flushes the
        # overlay; cache_mode returns to "disk"
        _fit_once(client, _fast_spec(52), reference, samples)
        healed_mode = client.healthz().get("cache_mode")
        recovery = time.monotonic() - filled_at
        entry_files = [name for name in os.listdir(cache_dir)
                       if name.endswith(".json")]
        passed = (degraded_job is not None
                  and degraded_job.get("status") == "done"
                  and degraded_mode == "degraded-memory"
                  and write_errors >= 1
                  and healed_mode == "disk"
                  and len(entry_files) >= 2
                  and not samples.wrong_results()
                  and recovery <= RECOVERY_BOUND)
        return {"scenario": "disk-full", "passed": bool(passed),
                "recovery_seconds": round(recovery, 3),
                "detail": {"degraded_cache_mode": degraded_mode,
                           "healed_cache_mode": healed_mode,
                           "write_errors_metric": write_errors,
                           "entries_on_disk_after_heal": len(entry_files)},
                **samples.summary()}
    finally:
        server.stop()


def _scenario_overload(workdir, *, jobs, smoke):
    """Flood past the shed threshold; availability must hold >= 99%."""
    reference = _Reference()
    samples = _Samples()
    cache_dir = os.path.join(workdir, "cache-overload")
    server = _ServerProcess(cache_dir, jobs=jobs,
                            extra_args=["--shed-target-wait", "1.0",
                                        "--queue-limit", "8"])
    try:
        server.wait_ready()
        warm = ServeClient(server.url, timeout=10.0, retries=2, seed=7)
        # one slow fit first so the shedder has a service-time estimate
        _fit_once(warm, _slow_spec(61, rows=900), reference, samples)
        stop = threading.Event()
        threads = []
        for lane in range(6):
            specs = [_slow_spec(100 + lane * 50 + i, rows=900)
                     for i in range(8)]
            thread = threading.Thread(
                target=_load_thread,
                args=(server.url, specs, reference, samples, stop),
                daemon=True)
            thread.start()
            threads.append(thread)
        time.sleep(8.0 if not smoke else 4.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=120.0)
        shed_metric = _metric_value(warm, "serve.jobs.shed")
        queue_metric = _metric_value(warm, "serve.queue.rejected")
        availability = samples.availability_pct()
        passed = (availability >= AVAILABILITY_FLOOR
                  and (samples.count("shed", "queue-full") >= 1
                       or shed_metric + queue_metric >= 1)
                  and not samples.wrong_results()
                  and warm.healthz().get("status") == "ok")
        return {"scenario": "overload", "passed": bool(passed),
                "recovery_seconds": 0.0,
                "detail": {"shed_metric": shed_metric,
                           "queue_rejected_metric": queue_metric},
                **samples.summary()}
    finally:
        server.stop()


def _scenario_server_kill(workdir, *, jobs, smoke):
    """kill -9 the whole server; a restart on the same cache dir must
    come back healthy and serve the pre-crash cache."""
    reference = _Reference()
    samples = _Samples()
    cache_dir = os.path.join(workdir, "cache-server-kill")
    server = _ServerProcess(cache_dir, jobs=jobs)
    replacement = None
    try:
        server.wait_ready()
        client = ServeClient(server.url, timeout=10.0, retries=2, seed=7)
        spec = _fast_spec(71)
        seeded = _fit_once(client, spec, reference, samples)
        if seeded is None or seeded.get("status") != "done":
            raise ValidationError("could not seed the cache before the "
                                  "server kill")
        server.kill()
        killed_at = time.monotonic()
        # same port on purpose: clients with backoff ride through
        replacement = _ServerProcess(cache_dir, jobs=jobs,
                                     port=server.port)
        ready_seconds = replacement.wait_ready()
        recovery = time.monotonic() - killed_at
        survivor = ServeClient(replacement.url, timeout=10.0, retries=5,
                               seed=7)
        after = _fit_once(survivor, spec, reference, samples)
        passed = (after is not None and after.get("status") == "done"
                  and bool(after.get("cached"))
                  and not samples.wrong_results()
                  and recovery <= RECOVERY_BOUND)
        return {"scenario": "server-kill", "passed": bool(passed),
                "recovery_seconds": round(recovery, 3),
                "detail": {"replacement_ready_seconds":
                           round(ready_seconds, 3),
                           "cache_survived": bool(
                               after and after.get("cached"))},
                **samples.summary()}
    finally:
        server.stop()
        if replacement is not None:
            replacement.stop()


_SCENARIO_FUNCS = {
    "worker-kill": _scenario_worker_kill,
    "corrupt-entry": _scenario_corrupt_entry,
    "disk-full": _scenario_disk_full,
    "overload": _scenario_overload,
    "server-kill": _scenario_server_kill,
}


def run_chaos(smoke=False, jobs=2, scenarios=None, workdir=None):
    """Run the chaos suite; returns the report dict.

    Parameters
    ----------
    smoke : bool
        Run only :data:`SMOKE_SCENARIOS` against one shared server —
        the fast pre-PR gate.
    jobs : int
        Pool size for every server under test (>= 2 so worker-kill has
        a process to kill).
    scenarios : sequence of str or None
        Subset of :data:`SCENARIOS` to run (full mode only).
    workdir : str or None
        Scratch directory; a temp dir (cleaned up) by default.
    """
    if int(jobs) < 2:
        raise ValidationError(
            f"chaos needs jobs >= 2 (a worker to kill), got {jobs}")
    chosen = tuple(scenarios) if scenarios else (
        SMOKE_SCENARIOS if smoke else SCENARIOS)
    unknown = set(chosen) - set(_SCENARIO_FUNCS)
    if unknown:
        raise ValidationError(
            f"unknown chaos scenario(s) {sorted(unknown)}; "
            f"choose from {sorted(_SCENARIO_FUNCS)}")
    owns_workdir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    started = time.monotonic()
    results = []
    shared = None
    try:
        if smoke:
            # one server for the whole smoke run keeps it under the
            # 10-second budget (interpreter start-up dominates)
            shared = _ServerProcess(os.path.join(workdir, "cache-smoke"),
                                    jobs=jobs)
            shared.wait_ready()
        for name in chosen:
            logger.info("chaos scenario %s starting", name)
            func = _SCENARIO_FUNCS[name]
            try:
                if smoke and name in ("worker-kill", "corrupt-entry"):
                    result = func(workdir, jobs=jobs, smoke=smoke,
                                  server=shared)
                else:
                    result = func(workdir, jobs=jobs, smoke=smoke)
            except Exception as exc:
                logger.exception("chaos scenario %s blew up", name)
                result = {"scenario": name, "passed": False,
                          "error": f"{type(exc).__name__}: {exc}"}
            results.append(result)
            logger.info("chaos scenario %s: %s", name,
                        "PASS" if result.get("passed") else "FAIL")
    finally:
        if shared is not None:
            shared.stop()
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "mode": "smoke" if smoke else "full",
        "jobs": int(jobs),
        "scenarios": results,
        "total_seconds": round(time.monotonic() - started, 3),
        "passed": all(r.get("passed") for r in results),
        "invariants": {
            "wrong_results_served": sum(r.get("wrong_results", 0)
                                        for r in results),
            "recovery_bound_seconds": RECOVERY_BOUND,
            "availability_floor_pct": AVAILABILITY_FLOOR,
        },
    }
    return report


def render_report(report):
    """Human-readable summary of a chaos report (for the CLI)."""
    lines = [f"chaos {report['mode']} run: "
             f"{'PASS' if report['passed'] else 'FAIL'} "
             f"({report['total_seconds']:.1f}s, jobs={report['jobs']})"]
    for result in report["scenarios"]:
        status = "PASS" if result.get("passed") else "FAIL"
        if "error" in result:
            lines.append(f"  {result['scenario']:>14}  {status}  "
                         f"[{result['error']}]")
            continue
        p99 = result.get("p99_seconds")
        lines.append(
            f"  {result['scenario']:>14}  {status}  "
            f"avail={result.get('availability_pct', 100.0):6.2f}%  "
            f"p99={'n/a' if p99 is None else f'{p99:.2f}s'}  "
            f"recovery={result.get('recovery_seconds', 0.0):.1f}s  "
            f"requests={result.get('requests', 0)}")
    wrong = report["invariants"]["wrong_results_served"]
    lines.append(f"  wrong results served: {wrong}")
    return "\n".join(lines)


def write_report(report, path):
    """Persist the report as indented JSON (the BENCH artifact)."""
    write_text_atomic(path, dumps(report, indent=2) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tools/chaos.py",
        description="fault-injection drill against a real server "
                    "(see docs/robustness.md)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast pre-PR gate: worker-kill + corrupt-entry only, one "
             "shared server (about ten seconds)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="pool size for each server under test (default 2; must be "
             ">= 2 so there is a worker to kill)",
    )
    parser.add_argument(
        "--scenario", action="append", default=[], metavar="NAME",
        dest="scenarios",
        help="run only this scenario (repeatable); choose from "
             f"{', '.join(SCENARIOS)}",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report to FILE (e.g. BENCH_resilience.json)",
    )
    args = parser.parse_args(argv)
    configure_logging()
    if args.smoke and args.scenarios:
        print("--smoke and --scenario are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        report = run_chaos(smoke=args.smoke, jobs=args.jobs,
                           scenarios=args.scenarios or None)
    except ValidationError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(render_report(report))
    if args.out is not None:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
