"""The self-healing layer: integrity, degraded mode, deadlines,
shedding, the circuit breaker, the retrying client, and chaos plumbing.

The acceptance claims from the ISSUE, as tests: a bit-flipped cache
entry is quarantined and transparently refit (never served); ENOSPC
degrades the registry to in-memory serving instead of erroring, and the
first successful write heals it; a job whose deadline expires answers
``504`` with a structured failure; overload answers ``503`` with a
backlog-derived ``Retry-After`` that :class:`~repro.serve.ServeClient`
honors; and concurrent eviction churn never exposes a torn or
checksum-invalid payload (the satellite hammer). The run journal gets
the same guarantees: a failed append degrades it to memory and the next
write heals it with an atomic full rewrite, a checksum-failed line is
quarantined, and consolidation never deletes the worker shards while
the consolidated journal is not on disk. The full five-scenario
drill lives in ``tools/chaos.py``; here we test its building blocks so
tier-1 stays fast.
"""

import importlib.util
import json
import multiprocessing
import os
import pathlib
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.io import payload_checksum, shard_path, shard_paths, unseal
from repro.observability import default_registry, reset_default_registry
from repro.observability.registry import LATENCY_BUCKETS, Histogram
from repro.robustness import RunJournal
from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    JobScheduler,
    LoadShedder,
    ModelRegistry,
    ServeClient,
    ServerError,
    ShedError,
    make_server,
)
from tests.faults import disk_full

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "chaos.py"
_spec = importlib.util.spec_from_file_location("chaos", _TOOL)
chaos = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chaos)

pytestmark = pytest.mark.filterwarnings("ignore")

KEY = "ab12" * 8


def _dataset():
    rng = np.random.default_rng(11)
    return np.concatenate([rng.normal(size=(30, 4)),
                           rng.normal(size=(30, 4)) + 5.0])


# -- storage integrity -----------------------------------------------------


class TestIntegrity:
    def test_entries_carry_checksum_envelope(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.put(KEY, {"model": [1, 2, 3]})
        line = (tmp_path / f"{KEY}.json").read_bytes()
        doc = json.loads(line)
        assert list(doc) == ["sha256", "payload"]
        # the checksum covers the payload's stored bytes, as written
        head = b'"payload": '
        body = line[line.index(head) + len(head):-len(b"}\n")]
        assert doc["sha256"] == payload_checksum(body)
        assert json.loads(body) == doc["payload"] == {"model": [1, 2, 3]}

    def test_bit_flip_quarantined_not_served(self, tmp_path):
        reset_default_registry()
        registry = ModelRegistry(tmp_path)
        registry.put(KEY, {"model": list(range(50))})
        path = tmp_path / f"{KEY}.json"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert registry.get(KEY) is None  # a miss, never corrupt data
        assert not path.exists()          # moved out of the serving path
        records = registry.quarantined()
        assert len(records) == 1
        assert records[0]["error"] == "IntegrityError"
        assert records[0]["key"] == KEY
        assert "checksum mismatch" in records[0]["reason"] \
            or "unparseable" in records[0]["reason"]
        snapshot = default_registry().snapshot()
        assert snapshot["serve.cache.integrity_quarantined"]["value"] == 1
        # the slot is reusable: a refit put serves again
        registry.put(KEY, {"model": "fresh"})
        assert json.loads(registry.get(KEY)) == {"model": "fresh"}

    def test_missing_envelope_quarantined(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = tmp_path / f"{KEY}.json"
        path.write_text(json.dumps({"payload": {"old": True}}) + "\n")
        assert registry.get(KEY) is None
        assert "missing integrity envelope" in \
            registry.quarantined()[0]["reason"]

    def test_verify_probes_and_quarantines(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.put(KEY, {"m": 1})
        assert registry.verify(KEY) is True
        (tmp_path / f"{KEY}.json").write_text("not json at all\n")
        assert registry.verify(KEY) is False
        assert registry.quarantined()  # the probe itself quarantined it


# -- degraded (in-memory) mode ---------------------------------------------


class TestDegradedMode:
    def test_enospc_degrades_to_memory_then_heals(self, tmp_path):
        reset_default_registry()
        registry = ModelRegistry(tmp_path, max_bytes=1)  # instant ENOSPC
        registry.put(KEY, {"model": "held"})
        assert registry.degraded is True
        assert registry.memory_entries() == 1
        # served from memory
        assert json.loads(registry.get(KEY)) == {"model": "held"}
        assert not list(tmp_path.glob("*.json"))
        snapshot = default_registry().snapshot()
        assert snapshot["serve.cache.write_errors"]["value"] >= 1
        assert snapshot["serve.cache.degraded"]["value"] == 1

        registry.max_bytes = None  # the "disk" recovered
        assert registry.heal() is True
        assert registry.degraded is False
        assert registry.memory_entries() == 0  # overlay flushed to disk
        assert json.loads(registry.get(KEY)) == {"model": "held"}
        assert (tmp_path / f"{KEY}.json").exists()
        assert default_registry().snapshot()[
            "serve.cache.degraded"]["value"] == 0

    def test_next_successful_put_heals_implicitly(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_bytes=1)
        registry.put(KEY, {"held": 1})
        assert registry.degraded
        registry.max_bytes = None
        registry.put("cd34" * 8, {"fresh": 2})
        assert not registry.degraded
        # both the fresh write and the flushed overlay entry are on disk
        assert {p.stem for p in tmp_path.glob("*.json")} == \
            {KEY, "cd34" * 8}

    def test_heal_on_healthy_registry_is_noop(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.heal() is True

    def test_heal_fails_while_disk_still_full(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_bytes=1)
        registry.put(KEY, {"held": 1})
        assert registry.heal() is False  # cap still in force
        assert registry.degraded is True
        assert json.loads(registry.get(KEY)) == {"held": 1}

    def test_degraded_flag_shared_across_instances(self, tmp_path):
        first = ModelRegistry(tmp_path, max_bytes=1)
        first.put(KEY, {"held": 1})
        second = ModelRegistry(tmp_path)
        assert second.degraded is True  # same dir, same mode
        assert json.loads(second.get(KEY)) == {"held": 1}
        second.put("cd34" * 8, {"fresh": 2})
        assert first.degraded is False


# -- run journal: degraded mode, healing, quarantine -----------------------


def _outcome(key, status="ok"):
    from repro.experiments.harness import ExperimentOutcome, ResultTable

    table = ResultTable(key, ["x"])
    table.add(x=1.5)
    return ExperimentOutcome(key=key, status=status, table=table,
                             elapsed=0.25)


class TestJournalResilience:
    def test_failed_append_degrades_then_heals_atomically(
            self, tmp_path, monkeypatch):
        reset_default_registry()
        journal = RunJournal(tmp_path)
        journal.record(_outcome("A"))
        journal.record(_outcome("B"))
        real_fsync = os.fsync

        def short_write_then_enospc(fd):
            os.write(fd, b'{"key": "TORN", "sta')  # a partial append
            disk_full()

        monkeypatch.setattr(os, "fsync", short_write_then_enospc)
        journal.record(_outcome("C"))
        assert journal.degraded is True
        assert "C" in journal.outcomes
        snapshot = default_registry().snapshot()
        assert snapshot["robustness.journal.write_errors"]["value"] == 1
        assert snapshot["robustness.journal.degraded"]["value"] == 1

        monkeypatch.setattr(os, "fsync", real_fsync)  # the disk recovered
        replaced = []
        real_replace = os.replace

        def spy_replace(src, dst):
            replaced.append(pathlib.Path(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy_replace)
        journal.record(_outcome("D"))
        assert journal.degraded is False
        assert replaced == [journal.path]  # one atomic full rewrite
        assert default_registry().snapshot()[
            "robustness.journal.degraded"]["value"] == 0
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        assert [unseal(line)["key"] for line in lines] == \
            ["A", "B", "C", "D"]  # every line whole: no torn fragment
        assert RunJournal(journal.path).completed_keys() == \
            {"A", "B", "C", "D"}

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        reset_default_registry()
        journal = RunJournal(tmp_path)
        for key in ("A", "B", "C"):
            journal.record(_outcome(key))
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        pos = lines[1].index('"key": "B"') + len('"key": "')
        lines[1] = lines[1][:pos] + "Z" + lines[1][pos + 1:]  # flip a byte
        assert json.loads(lines[1])["payload"]["key"] == "Z"  # still parses
        journal.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        reloaded = RunJournal(journal.path)
        assert set(reloaded.outcomes) == {"A", "C"}
        qdir = tmp_path / "quarantine"
        assert (qdir / "journal.jsonl.line-2").read_text(
            encoding="utf-8") == lines[1] + "\n"
        error = json.loads(
            (qdir / "journal.jsonl.line-2.error.json").read_text())
        assert error["error"] == "IntegrityError"
        assert error["line"] == 2
        assert "checksum mismatch" in error["reason"]
        assert default_registry().snapshot()[
            "robustness.journal.integrity_quarantined"]["value"] == 1

    @pytest.mark.parametrize("failing", ["replace", "fsync"])
    def test_consolidate_keeps_shards_when_journal_write_fails(
            self, tmp_path, monkeypatch, failing):
        journal = RunJournal(tmp_path)
        journal.record(_outcome("F", status="failed"))
        first = RunJournal(shard_path(journal.path, 0))
        first.record(_outcome("A"))
        first.record(_outcome("B"))
        RunJournal(shard_path(journal.path, 1)).record(_outcome("C"))
        shards = shard_paths(journal.path)

        with monkeypatch.context() as patch:
            patch.setattr(os, failing, disk_full)
            assert journal.consolidate() == 0
        assert journal.degraded is True
        assert shard_paths(journal.path) == shards  # the only durable copy
        assert RunJournal(journal.path).completed_keys() == {"A", "B", "C"}

        assert journal.consolidate() == 2  # the disk recovered
        assert shard_paths(journal.path) == []
        resumed = RunJournal(journal.path)
        assert resumed.completed_keys() == {"A", "B", "C"}
        assert resumed.outcomes["F"].status == "failed"


# -- load shedder ----------------------------------------------------------


class TestLoadShedder:
    def test_disabled_and_unobserved_never_shed(self):
        reset_default_registry()
        LoadShedder(target_wait=None).check(10_000, 1)
        shedder = LoadShedder(target_wait=0.01)
        assert shedder.service_p() is None  # nothing observed yet
        shedder.check(10_000, 1)            # ...so nothing to estimate
        # probing must not have created the histograms as a side effect
        assert "pool.task.seconds" not in default_registry().snapshot()

    def test_sheds_with_backlog_derived_retry_after(self):
        reset_default_registry()
        hist = default_registry().histogram("pool.task.seconds",
                                            buckets=LATENCY_BUCKETS)
        for _ in range(20):
            hist.observe(2.0)  # p95 rounds up to the 5s bucket bound
        shedder = LoadShedder(target_wait=1.0)
        assert shedder.service_p() == 5.0
        assert shedder.estimated_wait(3, 1) == pytest.approx(20.0)
        with pytest.raises(ShedError) as excinfo:
            shedder.check(3, 1)
        assert excinfo.value.retry_after == 19  # ceil(wait - target)
        snapshot = default_registry().snapshot()
        assert snapshot["serve.jobs.shed"]["value"] == 1
        # under the target: admitted, and state() reports not shedding
        shedder_ok = LoadShedder(target_wait=100.0)
        shedder_ok.check(3, 1)
        state = shedder_ok.state(3, 1)
        assert state["shedding"] is False
        assert state["service_p95"] == 5.0

    def test_validates_target(self):
        with pytest.raises(ValidationError):
            LoadShedder(target_wait=0)


# -- circuit breaker -------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_at_threshold_and_closes_on_success(self):
        reset_default_registry()
        breaker = CircuitBreaker(threshold=2, cooldown=30.0)
        breaker.record_failure(KEY)
        breaker.check(KEY)  # one failure: still closed
        breaker.record_failure(KEY)
        assert breaker.allow(KEY) is False
        assert breaker.open_keys() == [KEY]
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check(KEY)
        assert 1 <= excinfo.value.retry_after <= 30
        snapshot = default_registry().snapshot()
        assert snapshot["serve.breaker.opened"]["value"] == 1
        assert snapshot["serve.breaker.rejected"]["value"] == 1
        breaker.record_success(KEY)
        breaker.check(KEY)
        assert breaker.open_keys() == []

    def test_half_open_trial_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.record_failure(KEY)
        assert breaker.allow(KEY) is False
        time.sleep(0.08)
        assert breaker.allow(KEY) is True   # half-open: one trial
        breaker.record_failure(KEY)         # trial failed: re-open
        assert breaker.allow(KEY) is False

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown=30.0)
        breaker.record_failure(KEY)
        breaker.check("cd34" * 8)  # other keys unaffected

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0}, {"cooldown": 0.0},
    ])
    def test_validates_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            CircuitBreaker(**kwargs)


# -- histogram quantile (the shedder's estimator) --------------------------


class TestHistogramQuantile:
    def test_empty_is_none_and_bad_q_rejected(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        assert hist.quantile(0.95) is None
        with pytest.raises(ValidationError):
            hist.quantile(0.0)
        with pytest.raises(ValidationError):
            hist.quantile(1.5)

    def test_conservative_bucket_upper_bound(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        for _ in range(10):
            hist.observe(1.5)
        # rounds UP to the containing bucket bound: the right bias for
        # sizing Retry-After from p95 service time
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 2.0

    def test_inf_tail_reports_observed_max(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(7.0)  # beyond every bound: +inf bucket
        assert hist.quantile(1.0) == 7.0


# -- retrying client -------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replies from a per-server script of (status, headers, body)."""

    def log_message(self, format, *args):
        pass

    def do_GET(self):
        server = self.server
        server.hits += 1
        status, headers, body = server.script[
            min(server.hits, len(server.script)) - 1]
        raw = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(raw)


@pytest.fixture()
def scripted_server():
    """A stub server whose replies follow ``server.script``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.hits = 0
    server.script = [(200, {}, {"ok": True})]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServeClient:
    def test_backoff_is_seeded_and_jittered(self):
        a = ServeClient("http://x", backoff=0.25, max_backoff=2.0, seed=7)
        b = ServeClient("http://x", backoff=0.25, max_backoff=2.0, seed=7)
        waits = [a._sleep_for(n) for n in range(6)]
        assert waits == [b._sleep_for(n) for n in range(6)]
        for attempt, wait in enumerate(waits):
            ceiling = min(0.25 * 2 ** attempt, 2.0)
            assert 0.5 * ceiling <= wait <= ceiling  # capped + jittered

    def test_retry_after_honored_with_additive_jitter(self):
        client = ServeClient("http://x", backoff=0.25, seed=0)
        for _ in range(20):
            wait = client._sleep_for(0, retry_after="3")
            # the server's estimate is trusted as-is, jittered only
            # upward so synchronized clients de-synchronize
            assert 3.0 <= wait <= 3.25

    def test_503_retried_until_success(self, scripted_server):
        server, url = scripted_server
        server.script = [
            (503, {"Retry-After": "0"}, {"error": "overloaded"}),
            (429, {"Retry-After": "0"}, {"error": "queue full"}),
            (200, {}, {"ok": True}),
        ]
        client = ServeClient(url, backoff=0.01, seed=1)
        status, body = client.request("GET", "/thing")
        assert (status, body) == (200, {"ok": True})
        assert server.hits == 3

    def test_retry_budget_exhaustion_raises_with_body(self, scripted_server):
        server, url = scripted_server
        server.script = [(503, {"Retry-After": "0"}, {"error": "busy"})]
        client = ServeClient(url, retries=2, backoff=0.01, seed=1)
        with pytest.raises(ServerError) as excinfo:
            client.request("GET", "/thing")
        assert excinfo.value.status == 503
        assert excinfo.value.body == {"error": "busy"}
        assert server.hits == 3  # initial try + 2 retries

    def test_non_retryable_error_raises_immediately(self, scripted_server):
        server, url = scripted_server
        server.script = [(403, {}, {"error": "nope"})]
        client = ServeClient(url, retries=5, backoff=0.01, seed=1)
        with pytest.raises(ServerError, match="nope") as excinfo:
            client.request("GET", "/thing")
        assert excinfo.value.status == 403
        assert server.hits == 1

    def test_404_and_504_are_answers_not_errors(self, scripted_server):
        server, url = scripted_server
        server.script = [(404, {}, {"error": "no such model"})]
        status, body = ServeClient(url, seed=1).request("GET", "/models/x")
        assert status == 404
        assert body == {"error": "no such model"}

    def test_connection_errors_retried_then_raised(self):
        # a port with no listener: every attempt is refused
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient(f"http://127.0.0.1:{port}", retries=1,
                             backoff=0.01, seed=1)
        started = time.monotonic()
        with pytest.raises(ServerError, match="unreachable") as excinfo:
            client.request("GET", "/healthz")
        assert excinfo.value.status is None
        assert time.monotonic() - started < 5.0


# -- deadline, readiness, and error-shape end to end -----------------------


@pytest.fixture()
def resilient_server(tmp_path):
    """A live in-process server with shedder + breaker wired in."""
    reset_default_registry()
    registry = ModelRegistry(tmp_path / "models", max_entries=32)
    scheduler = JobScheduler(
        registry, jobs=1, queue_limit=4, max_deadline=60.0,
        shedder=LoadShedder(target_wait=30.0),
        breaker=CircuitBreaker(threshold=3, cooldown=30.0),
    ).start()
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


class TestServerResilience:
    def test_expired_deadline_answers_504_with_failure_record(
            self, resilient_server):
        url, _, _ = resilient_server
        client = ServeClient(url, seed=0)
        job, model = client.fit(
            "KMeans", _dataset().tolist(), params={"n_clusters": 2},
            seed=3, deadline_ms=1)
        assert model is None
        assert job["status"] == "failed"
        assert job["error"]["kind"] == "deadline"
        status, again = client.get_job(job["id"])
        assert status == 504
        assert again["error"]["kind"] == "deadline"
        snapshot = default_registry().snapshot()
        assert snapshot["serve.jobs.deadline_expired"]["value"] >= 1

    def test_deadline_blame_does_not_trip_breaker(self, resilient_server):
        url, scheduler, _ = resilient_server
        client = ServeClient(url, seed=0)
        for seed in range(3):  # breaker threshold, distinct keys anyway
            client.fit("KMeans", _dataset().tolist(),
                       params={"n_clusters": 2}, seed=seed, deadline_ms=1)
        assert scheduler.breaker.open_keys() == []

    def test_healthz_reports_readiness(self, resilient_server):
        url, _, _ = resilient_server
        client = ServeClient(url, seed=0)
        job, model = client.fit("KMeans", _dataset().tolist(),
                                params={"n_clusters": 2}, seed=3)
        assert model is not None
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["cache_mode"] == "disk"
        assert health["breaker_open_keys"] == []
        shedder = health["shedder"]
        assert set(shedder) == {"target_wait", "service_p95",
                                "estimated_wait", "shedding"}
        assert shedder["target_wait"] == 30.0
        assert shedder["service_p95"] is not None  # a fit was observed
        assert shedder["shedding"] is False

    def test_unhandled_error_is_strict_json_500(self, resilient_server):
        url, scheduler, _ = resilient_server
        before = default_registry().snapshot().get(
            "serve.http.errors", {}).get("value", 0)
        scheduler.stats = lambda: 1 / 0  # poison the /healthz route
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/healthz", timeout=30)
        reply = excinfo.value
        assert reply.code == 500
        assert reply.headers["X-Request-Id"]
        body = json.loads(reply.read())
        assert body["error"] == "internal server error"
        assert body["request_id"] == reply.headers["X-Request-Id"]
        after = default_registry().snapshot()[
            "serve.http.errors"]["value"]
        assert after == before + 1

    def test_oversized_deadline_clamped_to_cap(self, resilient_server):
        url, scheduler, _ = resilient_server
        client = ServeClient(url, seed=0)
        job = client.submit("KMeans", _dataset().tolist(),
                            params={"n_clusters": 2}, seed=3,
                            deadline_ms=10_000_000)
        held = scheduler.get_job(job["id"])
        assert held.deadline_at is not None
        assert held.deadline_at - time.time() <= 60.0 + 1.0


# -- the eviction hammer (satellite): integrity under churn ----------------


HAMMER_KEYS = [f"{i:04x}" * 8 for i in range(6)]


def _hammer_writer(cache_dir, worker_id, stop_at):
    registry = ModelRegistry(cache_dir, max_entries=4)
    i = 0
    while time.time() < stop_at:
        key = HAMMER_KEYS[(worker_id + i) % len(HAMMER_KEYS)]
        # payload self-describes writer and checksum-covers the blob: a
        # torn or mixed read cannot pass verification NOR this shape
        registry.put(key, {"writer": worker_id, "i": i,
                           "blob": [worker_id] * 500})
        i += 1


class TestEvictionHammer:
    def test_concurrent_eviction_never_exposes_invalid_payload(
            self, tmp_path):
        """3 writer processes churning 6 keys at a 4-entry cap while 2
        reader threads get() and verify(): every read is either a miss
        or one writer's complete, checksum-valid payload, and nothing
        lands in quarantine."""
        reset_default_registry()
        ctx = multiprocessing.get_context("fork")
        stop_at = time.time() + 1.5
        writers = [ctx.Process(target=_hammer_writer,
                               args=(str(tmp_path), w, stop_at))
                   for w in range(3)]
        for proc in writers:
            proc.start()

        failures = []
        reads_ok = [0, 0]

        def read_loop(slot):
            registry = ModelRegistry(tmp_path, max_entries=4)
            while time.time() < stop_at - 0.1:
                for key in HAMMER_KEYS:
                    payload = registry.get(key)
                    if payload is None:
                        continue  # evicted or not yet written: a miss
                    payload = json.loads(payload)
                    if payload["blob"] != [payload["writer"]] * 500:
                        failures.append(payload)
                    reads_ok[slot] += 1
                    registry.verify(key)  # quarantines if corrupt

        readers = [threading.Thread(target=read_loop, args=(s,))
                   for s in range(2)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30)
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        assert failures == []
        assert sum(reads_ok) > 10
        registry = ModelRegistry(tmp_path, max_entries=4)
        assert registry.quarantined() == []
        assert not list(registry.quarantine_dir().glob("*"))
        assert registry.degraded is False
        assert default_registry().snapshot().get(
            "serve.cache.integrity_quarantined", {}).get("value", 0) == 0
        # the cap held through the churn and survivors all verify
        assert len(registry) <= 4
        for key in registry.keys():
            assert registry.verify(key)


# -- chaos harness plumbing ------------------------------------------------


class TestChaosPlumbing:
    def test_smoke_scenarios_are_a_subset(self):
        assert set(chaos.SMOKE_SCENARIOS) <= set(chaos.SCENARIOS)
        assert len(chaos.SCENARIOS) == 5

    def test_samples_availability_accounting(self):
        samples = chaos._Samples()
        for outcome in ("ok", "ok", "failed-clean", "shed", "queue-full",
                        "deadline"):
            samples.add(outcome, 0.01)
        samples.add("unreachable", 0.5)           # counts against
        samples.add("wrong-result", 0.01, correct=False)
        summary = samples.summary()
        assert summary["requests"] == 8
        assert summary["ok"] == 2
        assert summary["shed"] == 2
        assert summary["unavailable"] == 2
        assert summary["wrong_results"] == 1
        assert summary["availability_pct"] == pytest.approx(75.0)
        assert samples.latency_quantile(0.99) == 0.01  # over "ok" only

    def test_empty_samples_are_fully_available(self):
        samples = chaos._Samples()
        assert samples.availability_pct() == 100.0
        assert samples.latency_quantile(0.99) is None

    def test_run_chaos_validates_inputs(self):
        with pytest.raises(ValidationError, match="jobs >= 2"):
            chaos.run_chaos(jobs=1)
        with pytest.raises(ValidationError, match="unknown chaos"):
            chaos.run_chaos(scenarios=["no-such-scenario"])

    def test_render_report_shapes(self):
        report = {
            "mode": "smoke", "jobs": 2, "total_seconds": 7.9,
            "passed": False,
            "scenarios": [
                {"scenario": "worker-kill", "passed": True,
                 "availability_pct": 100.0, "p99_seconds": 0.8,
                 "recovery_seconds": 6.0, "requests": 12},
                {"scenario": "corrupt-entry", "passed": False,
                 "error": "RuntimeError: boom"},
            ],
            "invariants": {"wrong_results_served": 0,
                           "recovery_bound_seconds": 30.0,
                           "availability_floor_pct": 99.0},
        }
        text = chaos.render_report(report)
        assert "chaos smoke run: FAIL" in text
        assert "worker-kill" in text and "PASS" in text
        assert "RuntimeError: boom" in text
        assert "wrong results served: 0" in text

    def test_cli_rejects_smoke_with_scenario(self, capsys):
        assert chaos.main(["--smoke", "--scenario", "worker-kill"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert chaos.main(["--scenario", "bogus"]) == 2
        assert "unknown chaos scenario" in capsys.readouterr().err
        assert chaos.main(["--jobs", "1"]) == 2
        assert "jobs >= 2" in capsys.readouterr().err
