"""Serving layer: multiple-clustering discovery as a JSON HTTP service.

The paper's premise — one dataset admits *many* valid clustering
solutions — makes serving unusually cache-friendly: the expensive
artifact is a fitted estimator keyed by the exact question asked
(dataset bytes, estimator, params, seed), and alternative views of the
same data are repeat questions about the same fingerprint. This package
turns the fault-tolerant experiment harness into that service:

* :mod:`~repro.serve.registry` — content-addressed
  :class:`ModelRegistry` (atomic per-key files, filesystem LRU);
* :mod:`~repro.serve.scheduler` — bounded-queue :class:`JobScheduler`
  dispatching onto ``run_experiments`` (RunGuard budgets, optional
  work-stealing pool);
* :mod:`~repro.serve.api` — the stdlib ``ThreadingHTTPServer`` JSON
  front-end (the only place in the tree allowed to import
  ``http.server``; rule ``RL002``);
* :mod:`~repro.serve.shedding` — adaptive :class:`LoadShedder` and
  per-model-key :class:`CircuitBreaker` consulted at submit;
* :mod:`~repro.serve.client` — minimal stdlib :class:`ServeClient`
  with jittered exponential backoff that honors ``Retry-After``.

Start one from the command line::

    repro serve --port 8799 --jobs 2 --cache-dir /tmp/repro-models

See ``docs/serving.md`` for the API reference and caching semantics.
"""

from __future__ import annotations

from .api import ModelServer, make_server
from .client import ServeClient, ServerError
from .registry import (ModelRegistry, coerce_given_labels,
                       dataset_fingerprint, model_key)
from .scheduler import Job, JobScheduler, QueueFullError, servable_estimators
from .shedding import CircuitBreaker, CircuitOpenError, LoadShedder, ShedError

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Job",
    "JobScheduler",
    "LoadShedder",
    "ModelRegistry",
    "ModelServer",
    "QueueFullError",
    "ServeClient",
    "ServerError",
    "ShedError",
    "coerce_given_labels",
    "dataset_fingerprint",
    "make_server",
    "model_key",
    "servable_estimators",
]
