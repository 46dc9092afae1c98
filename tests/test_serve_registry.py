"""Model registry: fingerprinting, atomic persistence, LRU, crash safety.

The registry's guarantees are filesystem-level, so the hard tests use
real processes: concurrent writers racing on one key (the atomic
replace means readers only ever see a complete payload), and a writer
SIGKILLed mid-write (the registry must stay loadable, with at most a
stale temp file that the next construction sweeps up).
"""

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serve import (
    ModelRegistry,
    coerce_given_labels,
    dataset_fingerprint,
    model_key,
)


class TestFingerprint:
    def test_deterministic(self):
        X = np.arange(12.0).reshape(4, 3)
        assert dataset_fingerprint(X) == dataset_fingerprint(X.copy())

    def test_sensitive_to_values_shape_and_given(self):
        X = np.arange(12.0).reshape(4, 3)
        base = dataset_fingerprint(X)
        bumped = X.copy()
        bumped[0, 0] += 1e-9
        assert dataset_fingerprint(bumped) != base
        assert dataset_fingerprint(X.reshape(3, 4)) != base
        assert dataset_fingerprint(X, given=[0, 0, 1, 1]) != base
        assert dataset_fingerprint(X, given=[0, 1, 1, 1]) != \
            dataset_fingerprint(X, given=[0, 0, 1, 1])

    def test_dtype_normalised(self):
        X = np.arange(12).reshape(4, 3)
        assert dataset_fingerprint(X) == \
            dataset_fingerprint(X.astype(np.float64))

    def test_integral_float_given_matches_int_given(self):
        X = np.arange(12.0).reshape(4, 3)
        assert dataset_fingerprint(X, given=[0.0, 0.0, 1.0, 1.0]) == \
            dataset_fingerprint(X, given=[0, 0, 1, 1])

    @pytest.mark.parametrize("given", [
        [0.4, 0.4, 1.0, 1.0],   # would truncate to [0, 0, 1, 1]
        ["a", "b", "c", "d"],   # non-numeric
        [float("nan"), 0, 1, 1],
    ])
    def test_non_integral_given_rejected(self, given):
        # silent truncation would alias distinct requests onto one
        # cache key (fingerprint collision → wrong model served)
        X = np.arange(12.0).reshape(4, 3)
        with pytest.raises(ValidationError):
            dataset_fingerprint(X, given=given)

    def test_coerce_given_labels(self):
        coerced = coerce_given_labels([0, 1, np.int32(2), True])
        assert coerced.dtype == np.int64
        assert coerced.tolist() == [0, 1, 2, 1]
        with pytest.raises(ValidationError):
            coerce_given_labels([0.5, 1.0])


class TestModelKey:
    def test_param_order_insensitive(self):
        fp = "a" * 16
        assert model_key(fp, "KMeans", {"a": 1, "b": 2}, 0) == \
            model_key(fp, "KMeans", {"b": 2, "a": 1}, 0)

    def test_sensitive_to_each_component(self):
        fp = "a" * 16
        base = model_key(fp, "KMeans", {"k": 3}, 0)
        assert model_key("b" * 16, "KMeans", {"k": 3}, 0) != base
        assert model_key(fp, "GMeans", {"k": 3}, 0) != base
        assert model_key(fp, "KMeans", {"k": 4}, 0) != base
        assert model_key(fp, "KMeans", {"k": 3}, 1) != base
        assert model_key(fp, "KMeans", {"k": 3}, None) != base

    def test_array_valued_params(self):
        fp = "a" * 16
        init = np.zeros((2, 2))
        key = model_key(fp, "KMeans", {"init": init}, 0)
        assert key == model_key(fp, "KMeans", {"init": init.copy()}, 0)
        assert key != model_key(fp, "KMeans", {"init": init + 1}, 0)


class TestRegistryBasics:
    def test_put_get_round_trip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        key = "ab12" * 8
        registry.put(key, {"model": {"x": 1}})
        assert json.loads(registry.get(key)) == {"model": {"x": 1}}
        assert key in registry
        assert len(registry) == 1

    def test_miss_returns_none(self, tmp_path):
        assert ModelRegistry(tmp_path).get("ab12" * 8) is None

    @pytest.mark.parametrize("bad", ["", "UPPER", "../escape", "a/b",
                                     "x" * 100, "g" * 16])
    def test_malformed_keys_rejected(self, tmp_path, bad):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ValidationError):
            registry.get(bad)
        with pytest.raises(ValidationError):
            registry.put(bad, {})

    def test_cross_instance_visibility(self, tmp_path):
        # a worker-process registry and the server's registry coordinate
        # purely through the directory
        key = "cd34" * 8
        ModelRegistry(tmp_path).put(key, {"v": 1})
        assert json.loads(ModelRegistry(tmp_path).get(key)) == {"v": 1}

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            ModelRegistry(tmp_path, max_entries=0)


class TestLRUEviction:
    def _put(self, registry, key, mtime):
        registry.put(key, {"k": key})
        os.utime(registry._path(key), (mtime, mtime))

    def test_eviction_under_cap(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_entries=3)
        now = time.time()
        keys = [f"{i:x}" * 8 for i in range(1, 6)]
        for i, key in enumerate(keys[:4]):
            self._put(registry, key, now - 100 + i)
        # cap 3: the oldest of the four must be gone
        assert len(registry) == 3
        assert keys[0] not in registry
        # a get() bumps recency, protecting the otherwise-oldest entry
        assert registry.get(keys[1]) is not None
        self._put(registry, keys[4], now)
        assert len(registry) == 3
        assert keys[1] in registry
        assert keys[2] not in registry

    def test_keys_most_recent_first(self, tmp_path):
        registry = ModelRegistry(tmp_path, max_entries=10)
        now = time.time()
        self._put(registry, "a" * 8, now - 50)
        self._put(registry, "b" * 8, now - 10)
        assert registry.keys() == ["b" * 8, "a" * 8]


def _hammer_writes(cache_dir, key, worker_id, stop_at):
    registry = ModelRegistry(cache_dir, max_entries=64)
    i = 0
    while time.time() < stop_at:
        # payload self-describes its writer so readers can check
        # integrity: a torn read would mix writers or truncate
        registry.put(key, {"writer": worker_id, "i": i,
                           "blob": [worker_id] * 2000})
        i += 1


def _write_forever(cache_dir, key, ready):
    registry = ModelRegistry(cache_dir, max_entries=64)
    blob = list(range(200_000))  # ~1.5 MB of JSON per write
    i = 0
    while True:
        registry.put(key, {"i": i, "blob": blob})
        i += 1
        if i == 2:
            ready.set()


class TestRegistryConcurrency:
    def test_parallel_same_key_writes_never_tear(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        key = "ef56" * 8
        stop_at = time.time() + 1.5
        writers = [
            ctx.Process(target=_hammer_writes,
                        args=(str(tmp_path), key, w, stop_at))
            for w in range(3)
        ]
        for p in writers:
            p.start()
        reader = ModelRegistry(tmp_path, max_entries=64)
        reads = 0
        deadline = time.time() + 1.4
        while time.time() < deadline:
            payload = reader.get(key)
            if payload is None:
                continue
            payload = json.loads(payload)
            # atomic replace: always one writer's complete payload
            assert payload["blob"] == [payload["writer"]] * 2000
            reads += 1
        for p in writers:
            p.join(timeout=10)
            assert p.exitcode == 0
        assert reads > 10
        final = json.loads(ModelRegistry(tmp_path).get(key))
        assert final["blob"] == [final["writer"]] * 2000

    def test_sigkill_mid_write_leaves_registry_loadable(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        key = "0123" * 8
        safe_key = "4567" * 8
        ModelRegistry(tmp_path).put(safe_key, {"ok": True})
        ready = ctx.Event()
        victim = ctx.Process(target=_write_forever,
                             args=(str(tmp_path), key, ready))
        victim.start()
        assert ready.wait(timeout=30)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert victim.exitcode == -signal.SIGKILL

        registry = ModelRegistry(tmp_path)
        # pre-existing entries intact
        assert json.loads(registry.get(safe_key)) == {"ok": True}
        # the raced key is either absent or a complete payload — never torn
        payload = registry.get(key)
        if payload is not None:
            assert json.loads(payload)["blob"] == list(range(200_000))
        # stale temp files from the killed writer were swept on init
        assert list(tmp_path.glob(".*.tmp-*")) == []
        # every surviving file parses
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"))
