"""Span wrappers around the public functions of each measured layer.

The traced run installs :func:`install` before it measures and calls
``remove`` afterwards. Every wrapper records one span — name, start,
end, parent span and a few attributes — into an in-memory
:class:`Recorder`; nothing is written until the process ends.

Callers bind most of these names with ``from ... import``, so a function
wrapper replaces the binding in *every* loaded ``repro.*`` module, and
removal scans every ``repro.*`` module again, so a module imported while
the wrappers were live is restored too. Methods are wrapped on their
class.

A layer's self time is its span time minus the time its child spans
cover (:func:`self_times`); child spans of one thread nest strictly
inside their parent, so that is the span time minus the children's sum.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: marks a wrapper and points at the wrapped callable
ORIGINAL_ATTR = "__perfbench_original__"


class Recorder:
    """In-memory span store shared by every thread of a process.

    A span is the tuple ``(span_id, parent_id, name, start, end,
    attrs)``; ids are unique within one process.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def forget(self):
        """Drop every span and open-span stack (a forked child starts
        from an empty record)."""
        self.spans = []
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, attrs_fn=None, attrs=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if attrs_fn is not None:
                attrs = dict(attrs or {}, **attrs_fn(args, result))
            self.spans.append((span_id, parent, name, start, end, attrs))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(span) for span in json.load(fh)]


# -- attribute helpers (computed after the call, outside the span) ------------


def _array_bytes(args, result):
    """Bytes the kernel reads and writes, from the array shapes."""
    total = getattr(result, "nbytes", 0)
    for arg in args:
        total += getattr(arg, "nbytes", 0)
    return {"bytes": int(total)}


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _journal_bytes(args, result):
    return {"bytes": _file_size(args[0].path)}


def _export_bytes_arg0(args, result):
    return {"bytes": _file_size(args[0])}


def _export_bytes_arg1(args, result):
    return {"bytes": _file_size(args[1])}


def _hit(args, result):
    return {"hit": bool(result)}


def _request_path(args, result):
    return {"path": args[0].path.split("?", 1)[0]}


#: (module, function, span name, attributes) — rebound in every module
FUNCTIONS = (
    ("repro.utils.linalg", "cdist_sq", "linalg.cdist_sq", _array_bytes),
    ("repro.utils.linalg", "pairwise_sq_distances",
     "linalg.pairwise_sq_distances", _array_bytes),
    ("repro.utils.linalg", "rbf_kernel", "linalg.rbf_kernel", _array_bytes),
    ("repro.utils.linalg", "center_kernel", "linalg.center_kernel",
     _array_bytes),
    ("repro.observability.tracer", "write_records_jsonl", "tracer.export",
     _export_bytes_arg0),
    ("repro.serve.registry", "dataset_fingerprint", "registry.fingerprint",
     None),
    ("repro.io", "estimator_to_dict", "io.encode", None),
    ("repro.io", "payload_checksum", "io.checksum", None),
)

#: (module, class, method, span name, attributes) — wrapped on the class
METHODS = (
    ("repro.robustness.checkpoint", "RunJournal", "record",
     "checkpoint.record", _journal_bytes),
    ("repro.observability.tracer", "Tracer", "write_jsonl", "tracer.export",
     _export_bytes_arg1),
    ("repro.serve.scheduler", "JobScheduler", "submit", "scheduler.submit",
     None),
    ("repro.serve.registry", "ModelRegistry", "verify", "registry.verify",
     _hit),
    ("repro.serve.registry", "ModelRegistry", "get", "registry.get", None),
    ("repro.serve.registry", "ModelRegistry", "put", "registry.put", None),
    ("repro.serve.api", "_ServeHandler", "do_GET", "api.GET", _request_path),
    ("repro.serve.api", "_ServeHandler", "do_POST", "api.POST",
     _request_path),
)

#: span-name prefix -> layer (the ``fit`` spans carry their package)
LAYERS = (
    ("linalg.", "utils.linalg"),
    ("checkpoint.", "robustness.checkpoint"),
    ("tracer.", "observability.tracer"),
    ("api.", "serve.api"),
    ("scheduler.", "serve.scheduler"),
    ("registry.", "serve.registry"),
    ("io.", "io"),
)


def _make_wrapper(recorder, name, fn, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, attrs_fn)

    setattr(wrapper, ORIGINAL_ATTR, fn)
    return wrapper


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def wrapped_bindings():
    """``[(module or class name, attribute)]`` still bound to a wrapper;
    empty once :meth:`Installation.remove` has run."""
    found = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, ORIGINAL_ATTR):
                found.append((module.__name__, attr))
            if isinstance(value, type):
                for meth, member in list(vars(value).items()):
                    if hasattr(member, ORIGINAL_ATTR):
                        found.append((f"{module.__name__}.{attr}", meth))
    return sorted(set(found))


class Installation:
    """Live wrappers; :meth:`remove` restores every original binding."""

    def __init__(self, recorder, dump_dir=None):
        self.recorder = recorder
        self._methods = []
        for module_name, func_name, span_name, attrs_fn in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, func_name)
            if hasattr(original, ORIGINAL_ATTR):
                raise RuntimeError(f"{module_name}.{func_name} is already "
                                   "wrapped")
            wrapper = _make_wrapper(recorder, span_name, original, attrs_fn)
            for loaded in _repro_modules():
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
        for module_name, cls_name, meth, span_name, attrs_fn in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _make_wrapper(recorder, span_name, original,
                                             attrs_fn))
            self._methods.append((cls, meth, original))
        if dump_dir is not None:
            self._wrap_pool_worker(dump_dir)

    def _wrap_pool_worker(self, dump_dir):
        """Pool workers leave through ``os._exit``, which skips every
        exit hook; in the (forked) worker only, dump its spans first."""
        pool = importlib.import_module("repro.robustness.pool")
        original = pool._pool_worker_main
        recorder = self.recorder

        @functools.wraps(original)
        def worker_main(*args, **kwargs):
            recorder.forget()
            real_exit = os._exit

            def dump_then_exit(code):
                recorder.dump(os.path.join(dump_dir,
                                           f"spans-{os.getpid()}.json"))
                real_exit(code)

            os._exit = dump_then_exit
            return original(*args, **kwargs)

        setattr(worker_main, ORIGINAL_ATTR, original)
        pool._pool_worker_main = worker_main

    def remove(self):
        for cls, meth, original in self._methods:
            setattr(cls, meth, original)
        self._methods = []
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, ORIGINAL_ATTR, None)
                if original is not None:
                    setattr(module, attr, original)


def install(recorder, dump_dir=None):
    """Wrap every layer function and method listed above; returns the
    :class:`Installation` whose ``remove()`` undoes it."""
    return Installation(recorder, dump_dir)


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """``{span_id: seconds}``: each span's time minus its children's."""
    covered = collections.defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {span_id: (end - start) - covered[span_id]
            for span_id, _, _, start, end, _ in spans}


def layer_of(name, attrs):
    if name == "fit":
        return attrs["layer"]
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def tier_of(span, by_id, default):
    """The ``tier`` attribute of the nearest enclosing ``fit`` span."""
    while span is not None:
        if span[2] == "fit":
            return span[5]["tier"]
        span = by_id.get(span[1])
    return default


class Summary:
    """Per-layer totals over one or more processes' spans."""

    def __init__(self):
        self.layer_self = collections.defaultdict(float)
        self.linalg = collections.defaultdict(lambda: [0, 0.0, 0])
        self.durations = collections.defaultdict(list)
        self.bytes = collections.defaultdict(int)

    def add_process(self, spans, default_tier):
        """Fold in one process's spans; ``default_tier`` names the tier
        of linalg calls made outside any benchmark ``fit`` span."""
        by_id = {span[0]: span for span in spans}
        own = self_times(spans)
        for span in spans:
            span_id, parent, name, start, end, attrs = span
            layer = layer_of(name, attrs)
            if layer is not None:
                self.layer_self[layer] += own[span_id]
            self.durations[name].append(end - start)
            if attrs and "bytes" in attrs:
                self.bytes[name] += attrs["bytes"]
            if name.startswith("linalg."):
                tier = tier_of(span, by_id, default_tier)
                entry = self.linalg[tier]
                entry[0] += 1
                entry[1] += own[span_id]
                parent_span = by_id.get(parent)
                if parent_span is None or not parent_span[2].startswith(
                        "linalg."):
                    entry[2] += attrs["bytes"]
