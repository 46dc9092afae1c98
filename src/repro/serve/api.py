"""Stdlib JSON HTTP front-end for the serving layer.

A :class:`http.server.ThreadingHTTPServer` (one thread per connection —
request handling is I/O-light; fitting happens on the scheduler) with a
deliberately small route table:

=======  ==================  ==============================================
method   path                behaviour
=======  ==================  ==============================================
POST     ``/jobs``           submit a fit request; ``202`` with a job
                             record (``200`` when served from cache or
                             coalesced onto an in-flight job), ``429`` +
                             ``Retry-After`` when the queue is full
GET      ``/jobs/<id>``      job status (``metrics``/``error``; ``done``
                             jobs link their ``model_url``)
GET      ``/models/<key>``   the cached model payload (fitted estimator
                             dict under ``"model"``); ``404`` on a miss
GET      ``/metrics``        Prometheus text exposition (v0.0.4) of the
                             default :class:`MetricsRegistry`
GET      ``/healthz``        liveness + queue stats
GET      ``/stats``          metrics snapshot + scheduler stats
GET      ``/``               service banner + route list
=======  ==================  ==============================================

All responses are strict RFC JSON (:func:`repro.io.dumps` — never a
bare ``NaN``). Every request is traced through
:mod:`repro.observability` (a span per request, latency histograms,
per-status counters) and tagged with an ``X-Request-Id`` header.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..exceptions import MultiClustError, ValidationError
from ..io import dumps, decode_value
from ..observability.logs import get_logger
from ..observability.registry import (
    LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    default_registry,
)
from ..observability.tracer import Tracer, current_trace_context
from .scheduler import QueueFullError
from .shedding import CircuitOpenError, ShedError

__all__ = ["ModelServer", "make_server"]

logger = get_logger("repro.serve.api")

_MAX_BODY_BYTES = 64 * 1024 * 1024

_JSON = "application/json; charset=utf-8"


class _HTTPError(MultiClustError):
    """Internal: carries an HTTP status + message to the top of a route."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


#: Tags a network client may use in ``params``. Data only: the
#: ``function``/``object`` tags resolve import paths into live callables
#: and instances, which must never be reachable from an untrusted HTTP
#: body (even nested inside an allowed container tag).
_DATA_TAGS = frozenset({"float", "ndarray", "tuple", "set", "frozenset",
                        "dict"})


def _reject_code_tags(value):
    if isinstance(value, list):
        for item in value:
            _reject_code_tags(item)
    elif isinstance(value, dict):
        tag = value.get("__repro__")
        if tag is not None and tag not in _DATA_TAGS:
            raise _HTTPError(
                400, f"tag {tag!r} is not allowed in request params; "
                     f"allowed tags: {sorted(_DATA_TAGS)}")
        for item in value.values():
            _reject_code_tags(item)


def _decode_params(raw):
    """Request ``params``: plain JSON values, with *data* tags
    (``{"__repro__": ...}`` / ``{"kind": ...}``) decoded so array-valued
    params round-trip. Code tags (``function``/``object``) are rejected
    anywhere in the structure — request params carry data, not import
    paths."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise _HTTPError(400, "params must be a JSON object")
    _reject_code_tags(raw)
    params = {}
    for name, value in raw.items():
        if isinstance(value, dict) and ("__repro__" in value
                                        or "kind" in value):
            value = decode_value(value)
        params[str(name)] = value
    return params


class _ServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # headers and body go out as two writes; with Nagle's algorithm the
    # body waits for the client's delayed ACK of the headers (about
    # 40 ms per reply on a keep-alive connection)
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):
        # BaseHTTPRequestHandler prints to stderr by default; route
        # through the library's logging instead (rule RL003).
        logger.debug("%s %s", self.address_string(), format % args)

    def _reply_bytes(self, status, body, content_type, extra_headers=None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        registry = default_registry()
        registry.counter(f"serve.http.{status}").inc()

    def _reply(self, status, payload, extra_headers=None):
        self._reply_bytes(status, dumps(payload, indent=None).encode("utf-8"),
                          _JSON, extra_headers=extra_headers)

    def _reply_text(self, status, text, content_type):
        self._reply_bytes(status, text.encode("utf-8"), content_type)

    def _fail(self, status, message, extra_headers=None):
        self._reply(status, {"error": message,
                             "request_id": self._request_id},
                    extra_headers=extra_headers)

    def _retry_after_hint(self):
        """Retry-After for queue-full 429s: sized from observed service
        time when a shedder is configured, 1 second otherwise."""
        scheduler = self.server.scheduler
        if scheduler.shedder is None:
            return 1
        return scheduler.shedder.retry_after_hint(
            scheduler.stats()["queue_depth"], scheduler.jobs)

    def send_error(self, code, message=None, explain=None):
        """Stdlib error path (bad request line, unsupported method,
        handler-level failures): reply in the same strict-JSON shape as
        every other route instead of the default HTML error page."""
        default_registry().counter("serve.http.errors").inc()
        if not hasattr(self, "_request_id"):
            self._request_id = os.urandom(6).hex()
        try:
            self._fail(int(code), str(message or explain
                                      or "request failed"))
        except Exception:
            # a connection already torn down mid-handshake cannot take
            # a reply; nothing to serve it to
            logger.debug("could not send JSON error reply", exc_info=True)

    def _read_body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HTTPError(400, "missing request body")
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, "request body too large")
        return self.rfile.read(length)

    def _dispatch(self, method):
        self._request_id = os.urandom(6).hex()
        self._trace_job_id = None
        registry = default_registry()
        # per-request tracer: Tracer's span stack is single-threaded,
        # and each connection gets its own handler thread
        tracer = Tracer()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = f"{method} {path}"
        start = time.perf_counter()
        try:
            with tracer, tracer.span("request", method=method, path=path,
                                     request_id=self._request_id):
                self._route(method, path)
        except _HTTPError as exc:
            self._fail(exc.status, exc.message)
        except (ShedError, CircuitOpenError) as exc:
            self._fail(503, str(exc), extra_headers={
                "Retry-After": str(exc.retry_after)})
        except QueueFullError as exc:
            self._fail(429, str(exc), extra_headers={
                "Retry-After": str(self._retry_after_hint())})
        except ValidationError as exc:
            self._fail(400, str(exc))
        except BrokenPipeError:
            logger.debug("client went away during %s", route)
        except Exception:
            logger.exception("unhandled error handling %s", route)
            registry.counter("serve.http.errors").inc()
            self._fail(500, "internal server error")
        finally:
            elapsed = time.perf_counter() - start
            registry.histogram("serve.http.seconds",
                               buckets=LATENCY_BUCKETS).observe(elapsed)
            logger.debug("request %s %s took %.6fs",
                         self._request_id, route, elapsed)
            if self._trace_job_id is not None:
                # the request span just closed: hand its records to the
                # job it enqueued, completing the request->scheduler->
                # worker causal chain served by GET /jobs/<id>
                self.server.scheduler.attach_trace(self._trace_job_id,
                                                   tracer.to_records())
                self._trace_job_id = None

    # -- routes ------------------------------------------------------------

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def _route(self, method, path):
        scheduler = self.server.scheduler
        model_registry = self.server.model_registry
        if method == "POST" and path == "/jobs":
            return self._post_job(scheduler)
        if method == "GET" and path.startswith("/jobs/"):
            job = scheduler.get_job(path[len("/jobs/"):])
            if job is None:
                raise _HTTPError(404, "no such job")
            status = 200
            if (job.status == "failed" and job.error is not None
                    and job.error.get("kind") == "deadline"):
                # the job's own deadline_ms expired: gateway-timeout
                # semantics, with the job record (partial trace
                # included) as the body
                status = 504
            return self._reply(status, {"job": job.to_dict()})
        if method == "GET" and path.startswith("/models/"):
            # the verified bytes of the sealed entry are already the
            # strict-JSON reply: no parse, no re-encode
            body = model_registry.get(path[len("/models/"):])
            if body is None:
                raise _HTTPError(404, "no such model")
            return self._reply_bytes(200, body, _JSON)
        if method == "GET" and path == "/metrics":
            return self._reply_text(200,
                                    default_registry().to_prometheus(),
                                    PROMETHEUS_CONTENT_TYPE)
        if method == "GET" and path == "/healthz":
            return self._reply(200, {"status": "ok",
                                     **scheduler.stats()})
        if method == "GET" and path == "/stats":
            return self._reply(200, {
                "scheduler": scheduler.stats(),
                "metrics": default_registry().snapshot(),
            })
        if method == "GET" and path == "/":
            return self._reply(200, {
                "service": "repro serve",
                "endpoints": ["POST /jobs", "GET /jobs/<id>",
                              "GET /models/<key>", "GET /metrics",
                              "GET /healthz", "GET /stats"],
            })
        raise _HTTPError(404 if method == "GET" else 405,
                         f"no route for {method} {path}")

    def _post_job(self, scheduler):
        raw = self._read_body()
        # a body the scheduler has accepted before, whose model is
        # still cached (and checksum-valid), is answered from its
        # digest alone: no decode, no fingerprint, no validation
        digest = hashlib.sha256(raw).digest()
        trace = current_trace_context()
        job = scheduler.submit_repeat(digest, trace=trace)
        if job is None:
            job = self._submit_body(scheduler, raw, digest, trace)
        status = 200 if (job.cached or job.coalesced) else 202
        if status == 202:
            # fresh job: after the request span closes, _dispatch hands
            # this request's span records to the job so GET /jobs/<id>
            # can render the full request->scheduler->worker tree
            self._trace_job_id = job.id
        return self._reply(status, {"job": job.to_dict(),
                                    "request_id": self._request_id})

    @staticmethod
    def _submit_body(scheduler, raw, digest, trace):
        """Decode and validate a ``POST /jobs`` body and submit it."""
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        estimator = body.get("estimator")
        if not isinstance(estimator, str):
            raise _HTTPError(400, "\"estimator\" (string) is required")
        dataset = body.get("dataset")
        if dataset is None:
            raise _HTTPError(400, "\"dataset\" (2-d array) is required")
        try:
            X = np.asarray(dataset, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _HTTPError(400, f"dataset is not numeric: {exc}") from exc
        if X.ndim != 2 or X.size == 0:
            raise _HTTPError(400, "dataset must be a non-empty 2-d array")
        given = body.get("given")
        if given is not None:
            given = np.asarray(given)
            if given.ndim != 1 or given.shape[0] != X.shape[0]:
                raise _HTTPError(
                    400, "given must be a label vector with one entry "
                         "per dataset row")
        seed = body.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise _HTTPError(400, "seed must be an integer")
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is not None:
            if (isinstance(deadline_ms, bool)
                    or not isinstance(deadline_ms, (int, float))
                    or not deadline_ms > 0):
                raise _HTTPError(
                    400, "deadline_ms must be a positive number")
        params = _decode_params(body.get("params"))
        return scheduler.submit(estimator, X, params=params, given=given,
                                seed=seed, trace=trace,
                                deadline=(None if deadline_ms is None
                                          else deadline_ms / 1000.0),
                                digest=digest)


class ModelServer(ThreadingHTTPServer):
    """The serving front-end: HTTP threads + scheduler + registry."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, scheduler, model_registry):
        super().__init__(address, _ServeHandler)
        self.scheduler = scheduler
        self.model_registry = model_registry
        self._shutdown_thread = None

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def drain_and_shutdown(self):
        """Graceful stop: finish queued jobs, then stop serving.

        Safe to call from a signal handler: the blocking work happens
        on a helper thread so ``serve_forever`` can wind down.
        """
        if self._shutdown_thread is not None:
            return self._shutdown_thread

        def _stop():
            logger.info("draining scheduler before shutdown")
            self.scheduler.shutdown(drain=True)
            self.shutdown()

        self._shutdown_thread = threading.Thread(
            target=_stop, name="repro-serve-shutdown", daemon=True)
        self._shutdown_thread.start()
        return self._shutdown_thread


def make_server(host="127.0.0.1", port=0, *, scheduler, model_registry):
    """Bind a :class:`ModelServer` (``port=0`` = ephemeral); the caller
    starts it with ``serve_forever()``."""
    return ModelServer((host, int(port)), scheduler, model_registry)
