"""perfbench's ``--trace`` mode binds library functions by name.

``perfbench/spans.py`` wraps the functions and methods it lists by
module and attribute name; a renamed or removed one would make the
traced run fail, or lose a layer, without any tier-1 test noticing.
These tests resolve every listed name and the pool-worker entry it
wraps, and pin the checksum count of a cached hit that
``io.checksums_per_hit`` reports.
"""

import importlib
import importlib.util
import json
import pathlib

import repro.io
from repro.serve import ModelRegistry

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    spans = _spans()
    assert spans.FUNCTIONS and spans.METHODS
    for module_name, func_name, *_ in spans.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), \
            f"{module_name}.{func_name}"
    for module_name, cls_name, meth, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert cls is not None, f"{module_name}.{cls_name}"
        # wrapped on the class itself, so it must be defined there
        assert callable(vars(cls).get(meth)), \
            f"{module_name}.{cls_name}.{meth}"


def test_pool_worker_entry_is_read_as_a_module_global():
    """The traced sweep wraps ``_pool_worker_main`` by rebinding the
    module attribute, so ``_spawn_worker`` must look it up there."""
    from repro.robustness import pool

    assert callable(getattr(pool, "_pool_worker_main", None))
    assert "_pool_worker_main" in \
        pool._PoolRun._spawn_worker.__code__.co_names


def test_verify_and_get_each_checksum_once(tmp_path, monkeypatch):
    calls = []
    real = repro.io.payload_checksum

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(repro.io, "payload_checksum", counting)
    registry = ModelRegistry(tmp_path)
    key = "ab12" * 8
    registry.put(key, {"model": [1, 2]})
    del calls[:]
    assert registry.verify(key) is True
    assert len(calls) == 1
    assert json.loads(registry.get(key)) == {"model": [1, 2]}
    assert len(calls) == 2
