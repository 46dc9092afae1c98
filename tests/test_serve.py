"""End-to-end tests of the serving subsystem.

The acceptance path from the ISSUE: start a real server, submit a job
over HTTP, poll to completion, fetch the fitted model, ``from_dict`` it
locally, and get predictions identical to a direct in-process fit with
the same seed; a second identical request is a cache hit without a
refit; flooding past the queue bound yields 429s, never hangs. Plus the
scheduler-level behaviors (coalescing, failure reporting, drain) and
the ``repro serve`` CLI with graceful SIGTERM drain.
"""

import json
import os
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
from repro.io import estimator_from_dict
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
    data = None if payload is None else json.dumps(payload).encode("utf-8")
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
