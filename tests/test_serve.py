"""End-to-end tests of the serving subsystem.

The acceptance path from the ISSUE: start a real server, submit a job
over HTTP, poll to completion, fetch the fitted model, ``from_dict`` it
locally, and get predictions identical to a direct in-process fit with
the same seed; a second identical request is a cache hit without a
refit; flooding past the queue bound yields 429s, never hangs. Plus the
scheduler-level behaviors (coalescing, failure reporting, drain) and
the ``repro serve`` CLI with graceful SIGTERM drain.
"""

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import KMeans
from repro.exceptions import ValidationError
from repro.io import estimator_from_dict, sanitize_json
from repro.observability import default_registry
from repro.serve import (
    JobScheduler,
    ModelRegistry,
    QueueFullError,
    make_server,
    servable_estimators,
)

pytestmark = pytest.mark.filterwarnings("ignore")


def _dataset():
    rng = np.random.default_rng(7)
    return np.concatenate([rng.normal(size=(30, 4)),
                           rng.normal(size=(30, 4)) + 5.0])


@pytest.fixture()
def served(tmp_path):
    """A live server on an ephemeral port; yields (url, scheduler,
    registry)."""
    registry = ModelRegistry(tmp_path / "models", max_entries=32)
    scheduler = JobScheduler(registry, jobs=1, queue_limit=4).start()
    server = make_server("127.0.0.1", 0, scheduler=scheduler,
                         model_registry=registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.url, scheduler, registry
    finally:
        scheduler.shutdown(drain=False, timeout=10)
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _request(url, payload=None, method=None):
    """``payload`` is a JSON value, or the raw body as ``bytes``."""
    data = payload
    if payload is not None and not isinstance(payload, bytes):
        data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _poll_job(url, job_id, timeout=60):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, _, body = _request(f"{url}/jobs/{job_id}")
        assert status == 200
        if body["job"]["status"] in ("done", "failed"):
            return body["job"]
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestServableEstimators:
    def test_population(self):
        table = servable_estimators()
        assert "KMeans" in table
        assert "SCHISM" in table
        # candidate-set and labeling-ensemble estimators need richer
        # inputs than the request schema carries
        for name in ("ASCLU", "OSCLU", "RESCU", "ClusterEnsemble"):
            assert name not in table

    def test_serving_does_not_load_the_linter(self):
        # the estimator population lives in repro.core.taxonomy; the
        # serving layer must not pull the dev-only lint package in
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        probe = ("import sys, repro.serve.scheduler; "
                 "print('repro.lint' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestEndToEnd:
    def test_full_round_trip_and_cache_hit(self, served):
        url, scheduler, registry = served
        X = _dataset()
        body = {"estimator": "KMeans", "dataset": X.tolist(),
                "params": {"n_clusters": 2}, "seed": 11}

        status, headers, resp = _request(f"{url}/jobs", body)
        assert status == 202
        assert headers.get("X-Request-Id")
        job = resp["job"]
        assert job["status"] in ("queued", "running", "done")

        job = _poll_job(url, job["id"])
        assert job["status"] == "done"
        assert job["cached"] is False
        assert job["metrics"]["fit_seconds"] > 0

        status, _, model_payload = _request(url + job["model_url"])
        assert status == 200
        assert model_payload["estimator"] == "KMeans"
        rebuilt = estimator_from_dict(model_payload["model"])

        direct = KMeans(n_clusters=2, random_state=11).fit(X)
        assert np.array_equal(rebuilt.labels_, direct.labels_)
        assert np.array_equal(rebuilt.predict(X), direct.predict(X))

        # second identical request: served from cache, no refit
        fitted_before = default_registry().counter(
            "serve.jobs.fitted").snapshot()["value"]
        status, _, resp = _request(f"{url}/jobs", body)
        assert status == 200
        assert resp["job"]["status"] == "done"
        assert resp["job"]["cached"] is True
        assert resp["job"]["key"] == job["key"]
        fitted_after = default_registry().counter(
            "serve.jobs.fitted").snapshot()["value"]
        assert fitted_after == fitted_before

    def test_flood_yields_429_not_hangs(self, served):
        url, scheduler, _ = served
        X = _dataset()
        scheduler.pause()
        try:
            codes = []
            for i in range(10):
                body = {"estimator": "KMeans", "dataset": X.tolist(),
                        "params": {"n_clusters": 2, "n_init": i + 1},
                        "seed": 0}
                status, headers, _ = _request(f"{url}/jobs", body)
                codes.append(status)
                if status == 429:
                    assert headers.get("Retry-After")
            assert codes.count(202) == 4  # the queue bound
            assert codes.count(429) == 6
        finally:
            scheduler.resume()

    def test_coalescing_identical_inflight_request(self, served):
        url, scheduler, _ = served
        X = _dataset()
        body = {"estimator": "KMeans", "dataset": X.tolist(),
                "params": {"n_clusters": 3}, "seed": 1}
        scheduler.pause()
        try:
            _, _, first = _request(f"{url}/jobs", body)
            status, _, second = _request(f"{url}/jobs", body)
            assert status == 200
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["coalesced"] is True
        finally:
            scheduler.resume()
        assert _poll_job(url, first["job"]["id"])["status"] == "done"

    def test_failed_job_reports_structured_error(self, served):
        url, _, _ = served
        X = _dataset()
        body = {"estimator": "KMeans", "dataset": X.tolist(),
                "params": {"n_clusters": 0}, "seed": 0}
        status, _, resp = _request(f"{url}/jobs", body)
        assert status == 202
        job = _poll_job(url, resp["job"]["id"])
        assert job["status"] == "failed"
        assert job["error"]["error_type"] == "ValidationError"
        # a failed fit publishes no model
        status, _, _ = _request(f"{url}/models/{job['key']}")
        assert status == 404

    def test_given_family_served(self, served):
        url, _, _ = served
        X = _dataset()
        given = np.repeat([0, 1], 30).tolist()
        body = {"estimator": "COALA", "dataset": X.tolist(),
                "params": {"n_clusters": 2}, "given": given, "seed": 0}
        status, _, resp = _request(f"{url}/jobs", body)
        assert status == 202
        job = _poll_job(url, resp["job"]["id"])
        assert job["status"] == "done"
        status, _, payload = _request(url + job["model_url"])
        rebuilt = estimator_from_dict(payload["model"])
        assert rebuilt.labels_ is not None


_COUNTERS = ("serve_jobs_submitted", "serve_cache_hits",
             "serve_cache_misses", "serve_jobs_coalesced")


def _counters(url):
    """The job counters as ``GET /metrics`` exports them."""
    req = urllib.request.Request(f"{url}/metrics")
    with urllib.request.urlopen(req, timeout=30) as resp:
        text = resp.read().decode("utf-8")
    values = dict.fromkeys(_COUNTERS, 0.0)
    for line in text.splitlines():
        for name in _COUNTERS:
            if line.startswith(f"repro_{name}_total "):
                values[name] = float(line.split()[1])
    return values


def _delta(before, after):
    return {name: after[name] - before[name] for name in _COUNTERS}


def _count_submits(monkeypatch, scheduler):
    """Count calls that reach ``JobScheduler.submit`` (the decoded path)."""
    calls = []
    real = scheduler.submit

    def counting(*args, **kwargs):
        calls.append(kwargs.get("digest"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler, "submit", counting)
    return calls


class TestRepeatedBodies:
    """A repeated ``POST /jobs`` body is answered from its digest."""

    def _fitted(self, url, body):
        raw = json.dumps(body).encode("utf-8")
        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 202
        return raw, _poll_job(url, resp["job"]["id"])

    def test_memo_hit_matches_the_full_path(self, served, monkeypatch):
        url, scheduler, registry = served
        body = {"estimator": "KMeans", "dataset": _dataset().tolist(),
                "params": {"n_clusters": 2}, "seed": 11,
                "deadline_ms": 60000}
        raw, fitted = self._fitted(url, body)
        calls = _count_submits(monkeypatch, scheduler)

        # the same request in other bytes takes the decoding path
        before = _counters(url)
        status, _, full = _request(f"{url}/jobs",
                                   json.dumps(body, indent=1).encode())
        full_delta = _delta(before, _counters(url))
        assert status == 200 and len(calls) == 1

        before = _counters(url)
        status, _, memo = _request(f"{url}/jobs", raw)
        memo_delta = _delta(before, _counters(url))
        assert status == 200 and len(calls) == 1  # not decoded

        assert memo_delta == full_delta
        assert memo_delta["serve_jobs_submitted"] == 1
        assert memo_delta["serve_cache_hits"] == 1
        full, memo = full["job"], memo["job"]
        assert memo["id"] != full["id"]
        for job in (full, memo):
            assert job["key"] == fitted["key"]
            assert job["deadline_at"] - job["submitted_at"] == \
                pytest.approx(60.0, abs=1.0)
        moving = ("id", "submitted_at", "finished_at", "deadline_at")
        assert ({k: v for k, v in memo.items() if k not in moving}
                == {k: v for k, v in full.items() if k not in moving})
        assert scheduler.get_job(memo["id"]).cached is True

        # the model reply is the sanitise-then-encode bytes, unchanged
        with urllib.request.urlopen(url + memo["model_url"],
                                    timeout=30) as resp:
            served_bytes = resp.read()
        stored = json.loads(registry.get(memo["key"]))
        assert served_bytes == json.dumps(
            sanitize_json(stored), allow_nan=False).encode("utf-8")

    def test_corrupt_entry_of_memoised_body_refits(self, served, monkeypatch):
        url, scheduler, registry = served
        body = {"estimator": "KMeans", "dataset": _dataset().tolist(),
                "params": {"n_clusters": 3}, "seed": 2}
        raw, fitted = self._fitted(url, body)
        calls = _count_submits(monkeypatch, scheduler)
        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 200 and resp["job"]["cached"] is True
        assert calls == []

        path = registry.cache_dir / f"{fitted['key']}.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 202  # never the stale hit
        assert resp["job"]["cached"] is False
        assert len(calls) == 1
        [record] = registry.quarantined()
        assert record["key"] == fitted["key"]
        refit = _poll_job(url, resp["job"]["id"])
        assert refit["status"] == "done" and refit["key"] == fitted["key"]
        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 200 and resp["job"]["cached"] is True
        assert len(calls) == 1

    def test_entry_corrupted_after_a_cached_post_is_not_served(
            self, served, monkeypatch):
        url, scheduler, registry = served
        body = {"estimator": "KMeans", "dataset": _dataset().tolist(),
                "params": {"n_clusters": 2}, "seed": 3}
        raw, fitted = self._fitted(url, body)
        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 200 and resp["job"]["cached"] is True
        model_url = url + resp["job"]["model_url"]

        path = registry.cache_dir / f"{fitted['key']}.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

        status, _, reply = _request(model_url)
        assert status == 404 and "model" not in reply
        [record] = registry.quarantined()
        assert record["key"] == fitted["key"]
        assert not path.exists()

        calls = _count_submits(monkeypatch, scheduler)
        status, _, resp = _request(f"{url}/jobs", raw)
        assert status == 202 and resp["job"]["cached"] is False
        assert len(calls) == 1
        assert _poll_job(url, resp["job"]["id"])["status"] == "done"
        with urllib.request.urlopen(model_url, timeout=30) as served_model:
            assert served_model.read() == registry.get(fitted["key"])

    def test_one_byte_different_body_misses_the_memo(self, served,
                                                     monkeypatch):
        url, scheduler, _ = served
        body = {"estimator": "KMeans", "dataset": _dataset().tolist(),
                "params": {"n_clusters": 2}, "seed": 4}
        raw, _ = self._fitted(url, body)
        calls = _count_submits(monkeypatch, scheduler)
        other = raw + b" "  # same JSON value, one more byte
        status, _, resp = _request(f"{url}/jobs", other)
        assert status == 200 and resp["job"]["cached"] is True
        assert len(calls) == 1  # decoded: the digest was unknown

    def test_invalid_body_is_never_memoised(self, served):
        url, scheduler, _ = served
        bad = json.dumps({"estimator": "KMeans",
                          "dataset": _dataset().tolist(),
                          "params": {"bogus": 1}}).encode()
        for _ in range(2):
            status, _, _ = _request(f"{url}/jobs", bad)
            assert status == 400
        assert len(scheduler._memo) == 0

    def test_memo_is_bounded_by_the_cache_size(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_entries=2)
        scheduler = JobScheduler(registry, queue_limit=8)  # never started
        digests = [bytes([i]) * 32 for i in range(5)]
        for k, digest in enumerate(digests):
            scheduler.submit("KMeans", _dataset(),
                             params={"n_clusters": k + 2}, digest=digest)
            assert len(scheduler._memo) <= registry.max_entries
        assert list(scheduler._memo) == digests[-2:]
        with pytest.raises(ValidationError):
            scheduler.submit("KMeans", _dataset(), params={"bogus": 1},
                             digest=b"x" * 32)
        assert list(scheduler._memo) == digests[-2:]

    def test_keep_alive_replies_do_not_stall(self, served):
        url, _, _ = served
        host, port = url.rsplit("/", 1)[-1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        # a delayed-ACK stall costs about 40 ms per reply: 10 replies
        # on one connection would take about 0.4 s whatever the host
        assert elapsed < 0.3, f"10 keep-alive requests took {elapsed:.3f}s"


class TestValidation:
    @pytest.mark.parametrize("body,needle", [
        ({"dataset": [[1.0]]}, "estimator"),
        ({"estimator": "KMeans"}, "dataset"),
        ({"estimator": "NoSuch", "dataset": [[1.0, 2.0]]}, "unknown"),
        ({"estimator": "ASCLU", "dataset": [[1.0, 2.0]]}, "unknown"),
        ({"estimator": "KMeans", "dataset": [["a", "b"]]}, "numeric"),
        ({"estimator": "KMeans", "dataset": [1.0, 2.0]}, "2-d"),
        ({"estimator": "KMeans", "dataset": [[1.0, 2.0]],
          "seed": "seven"}, "seed"),
        ({"estimator": "KMeans", "dataset": [[1.0, 2.0]],
          "params": {"bogus": 1}}, "invalid parameters"),
        ({"estimator": "KMeans", "dataset": [[1.0], [2.0]],
          "given": [0]}, "given"),
        ({"estimator": "COALA", "dataset": [[1.0], [2.0]]},
         "requires given"),
        # given is a label vector: non-integral or non-numeric values
        # must be a 400, not a silent int-truncation or a 500
        ({"estimator": "COALA", "dataset": [[1.0], [2.0]],
          "given": [0.4, 1.0]}, "integer label"),
        ({"estimator": "COALA", "dataset": [[1.0], [2.0]],
          "given": ["a", "b"]}, "integer label"),
    ])
    def test_bad_requests_are_400(self, served, body, needle):
        url, _, _ = served
        status, _, resp = _request(f"{url}/jobs", body)
        assert status == 400
        assert needle.lower() in resp["error"].lower()

    @pytest.mark.parametrize("params", [
        # code tags must never decode from an untrusted request body —
        # neither at the top level nor nested inside an allowed tag
        {"init": {"__repro__": "function", "module": "repro.io",
                  "qualname": "os.system"}},
        {"init": {"__repro__": "object", "module": "repro.io",
                  "qualname": "dumps", "state": []}},
        {"init": {"__repro__": "tuple", "items": [
            {"__repro__": "function", "module": "repro.io",
             "qualname": "dumps"}]}},
    ])
    def test_code_tags_in_params_are_400(self, served, params):
        url, _, _ = served
        status, _, resp = _request(
            f"{url}/jobs", {"estimator": "KMeans",
                            "dataset": [[0.0, 1.0], [1.0, 0.0]],
                            "params": params})
        assert status == 400
        assert "not allowed" in resp["error"]

    def test_unknown_job_and_model_404(self, served):
        url, _, _ = served
        assert _request(f"{url}/jobs/job-99999999")[0] == 404
        assert _request(f"{url}/models/{'a' * 32}")[0] == 404
        assert _request(f"{url}/nothing/here")[0] == 404

    def test_post_to_get_route_is_405(self, served):
        url, _, _ = served
        status, _, _ = _request(f"{url}/healthz", {"x": 1})
        assert status == 405

    def test_malformed_json_body_400(self, served):
        url, _, _ = served
        req = urllib.request.Request(
            f"{url}/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_health_and_stats(self, served):
        url, _, _ = served
        status, _, health = _request(f"{url}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["queue_limit"] == 4
        status, _, stats = _request(f"{url}/stats")
        assert status == 200
        assert "scheduler" in stats and "metrics" in stats
        status, _, banner = _request(url)
        assert status == 200 and "POST /jobs" in banner["endpoints"]


class TestSchedulerUnit:
    def test_submit_validates_before_queueing(self, tmp_path):
        scheduler = JobScheduler(ModelRegistry(tmp_path), queue_limit=2)
        with pytest.raises(ValidationError):
            scheduler.submit("NoSuchEstimator", np.ones((4, 2)))
        with pytest.raises(ValidationError):
            scheduler.submit("KMeans", np.ones((4, 2)),
                             params={"bogus": 1})
        assert scheduler.stats()["queue_depth"] == 0

    def test_queue_full_raises(self, tmp_path):
        scheduler = JobScheduler(ModelRegistry(tmp_path), queue_limit=2)
        # never started: jobs stay queued
        X = _dataset()
        scheduler.submit("KMeans", X, params={"n_clusters": 2})
        scheduler.submit("KMeans", X, params={"n_clusters": 3})
        with pytest.raises(QueueFullError):
            scheduler.submit("KMeans", X, params={"n_clusters": 4})

    def test_shutdown_without_drain_fails_queued_jobs(self, tmp_path):
        scheduler = JobScheduler(ModelRegistry(tmp_path), queue_limit=4)
        job = scheduler.submit("KMeans", _dataset(),
                               params={"n_clusters": 2})
        scheduler.shutdown(drain=False)
        assert job.status == "failed"
        assert job.error["kind"] == "shutdown"

    def test_drain_completes_queued_jobs(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        scheduler = JobScheduler(registry, queue_limit=4)
        scheduler.pause()
        scheduler.start()
        jobs = [scheduler.submit("KMeans", _dataset(),
                                 params={"n_clusters": k}, seed=0)
                for k in (2, 3)]
        scheduler.resume()
        scheduler.shutdown(drain=True, timeout=120)
        assert [j.status for j in jobs] == ["done", "done"]
        assert all(registry.get(j.key) is not None for j in jobs)

    def test_finished_jobs_pruned_oldest_submitted_first(self, tmp_path,
                                                         monkeypatch):
        import repro.serve.scheduler as scheduler_module
        from repro.serve.scheduler import Job

        def reference(order, limit):
            # the rule as a scan over every retained job
            finished = [j for j in order if j.status in ("done", "failed")]
            stale = {j.id for j in finished[:max(0, len(finished) - limit)]}
            return [j for j in order if j.id not in stale]

        monkeypatch.setattr(scheduler_module, "_MAX_FINISHED", 5)
        scheduler = JobScheduler(ModelRegistry(tmp_path), queue_limit=4)
        rng = random.Random(0)
        expected, unfinished = [], []
        for n in range(300):
            job = Job(f"job-{n:08d}", "k", "f", "KMeans", {}, None)
            if rng.random() < 0.3:
                unfinished.append(job)  # queued: finishes later
            else:
                job.status = rng.choice(["done", "failed"])
            with scheduler._cond:
                scheduler._remember(job)
                expected = reference(expected + [job], 5)
                if unfinished and rng.random() < 0.3:
                    scheduler._finish(unfinished.pop(rng.randrange(
                        len(unfinished))), "done")
            assert list(scheduler._jobs.values()) == expected
        assert all(j.id in scheduler._jobs for j in unfinished)

    def test_fit_signature_cached_per_class(self):
        from repro.serve.scheduler import _fit_signature

        class Plain(KMeans):
            pass

        class NeedsGiven(KMeans):
            def fit(self, X, given):
                return super().fit(X)

        assert _fit_signature(KMeans) == ("X", False)
        assert _fit_signature(Plain) == ("X", False)
        assert _fit_signature(NeedsGiven) == ("X", True)

    def test_seed_installed_as_random_state(self, tmp_path):
        scheduler = JobScheduler(ModelRegistry(tmp_path), queue_limit=4)
        job = scheduler.submit("KMeans", _dataset(),
                               params={"n_clusters": 2}, seed=42)
        assert job.params["random_state"] == 42
        # an explicit random_state wins over the seed
        job2 = scheduler.submit("KMeans", _dataset(),
                                params={"n_clusters": 2,
                                        "random_state": 5}, seed=42)
        assert job2.params["random_state"] == 5


class TestServeCLI:
    def _spawn(self, tmp_path, *extra):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src")
        return subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--cache-dir", str(tmp_path / "cli-models"),
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=root)

    def test_cli_serves_and_drains_on_sigterm(self, tmp_path):
        proc = self._spawn(tmp_path)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            assert match, f"no listen line: {line!r}"
            url = match.group(1)
            X = _dataset()
            body = {"estimator": "KMeans", "dataset": X.tolist(),
                    "params": {"n_clusters": 2}, "seed": 3}
            status, _, resp = _request(f"{url}/jobs", body)
            assert status == 202
            _poll_job(url, resp["job"]["id"])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # the model survived the server: a fresh registry can load it
        registry = ModelRegistry(tmp_path / "cli-models")
        assert len(registry) == 1

    @pytest.mark.parametrize("args", [
        ("--port", "-5"),
        ("--queue-limit", "0"),
        ("--cache-size", "0"),
        ("--budget", "0"),
        ("--jobs", "-1"),
    ])
    def test_cli_rejects_bad_flags(self, tmp_path, args):
        from repro.__main__ import main as cli_main

        argv = ["serve", "--cache-dir", str(tmp_path / "m")]
        base = {"--port", "--queue-limit", "--cache-size", "--budget",
                "--jobs"}
        assert args[0] in base
        assert cli_main(argv + list(args)) == 2
