"""Serialisation: results and estimators to/from JSON-compatible dicts.

Round-trips the library's result currencies — label partitions
(:class:`~repro.core.Clustering`), subspace results
(:class:`~repro.core.SubspaceClustering`), experiment
:class:`~repro.experiments.ResultTable` objects — and, since the
serving layer landed, **fitted estimators**: :func:`estimator_to_dict` /
:func:`estimator_from_dict` split an estimator into its constructor
params and fitted (trailing-underscore) state, with every value routed
through the tagged :func:`encode_value` / :func:`decode_value` codec.

All emission is strict RFC 8259 JSON. ``json.dumps`` defaults to
``allow_nan=True`` and writes bare ``NaN``/``Infinity`` tokens that
strict parsers (browsers, most HTTP clients) reject; this module is the
single place that policy is fixed:

* standalone non-finite floats encode as ``{"__repro__": "float",
  "value": "NaN" | "Infinity" | "-Infinity"}``;
* non-finite entries inside float arrays encode as the bare token
  *string* (the array dtype disambiguates on decode);
* :func:`sanitize_json` / :func:`dumps` convert any stray ``nan`` to
  ``null`` and infinities to token strings, then serialise with
  ``allow_nan=False`` so a violation can never reach the wire.

It is also the one place that knows how a durable record is stored
(run journal, model registry, trace shards, lint cache, reports):
:func:`write_text_atomic` replaces a whole file so a crash leaves the
old or the new version, and :func:`sweep_stale_temps` removes the temp
files of writers killed mid-write; :func:`append_text_durable` appends
and ``fsync``\\ s, so a crash leaves at most a torn trailing line;
:func:`seal` / :func:`unseal` write and read one envelope line,
``{"sha256": "<hex>", "payload": <P>}``, checksummed over the stored
bytes of ``<P>``; :func:`quarantine` moves a record that fails
:func:`unseal` aside, next to an ``IntegrityError`` record.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import pathlib
import threading
import time
import types

import numpy as np

from .core.clustering import Clustering
from .core.subspace import SubspaceCluster, SubspaceClustering
from .exceptions import IntegrityError, ValidationError
from .observability.logs import get_logger
from .observability.telemetry import ConvergenceEvent

__all__ = [
    "clustering_to_dict",
    "clustering_from_dict",
    "subspace_clustering_to_dict",
    "subspace_clustering_from_dict",
    "result_table_to_dict",
    "encode_value",
    "decode_value",
    "estimator_to_dict",
    "estimator_from_dict",
    "sanitize_json",
    "dumps",
    "payload_checksum",
    "seal",
    "unseal",
    "quarantine",
    "write_text_atomic",
    "append_text_durable",
    "sweep_stale_temps",
    "save_json",
    "load_json",
]

logger = get_logger("repro.io")

_KIND_CLUSTERING = "repro.Clustering"
_KIND_SUBSPACE = "repro.SubspaceClustering"
_KIND_SUBSPACE_CLUSTER = "repro.SubspaceCluster"
_KIND_TABLE = "repro.ResultTable"
_KIND_ESTIMATOR = "repro.Estimator"

#: Schema version stamped into estimator payloads; bumped on any
#: incompatible change so stale registry entries fail loudly.
ESTIMATOR_FORMAT = 1

#: Reserved key marking a tagged value in the :func:`encode_value` codec.
_TAG = "__repro__"

#: Token strings for non-finite floats (RFC JSON has no literal for them).
_NONFINITE_TOKENS = {"NaN": math.nan, "Infinity": math.inf,
                     "-Infinity": -math.inf}


def _float_token(x):
    """Token string for a non-finite float."""
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _encode_float(x):
    """A float as itself, or a tagged token dict when non-finite."""
    x = float(x)
    if math.isfinite(x):
        return x
    return {_TAG: "float", "value": _float_token(x)}


def _decode_float(value):
    """Inverse of :func:`_encode_float` for already-untagged inputs."""
    if isinstance(value, str):
        if value not in _NONFINITE_TOKENS:
            raise ValidationError(f"unknown float token {value!r}")
        return _NONFINITE_TOKENS[value]
    return float(value)


def clustering_to_dict(clustering):
    """Serialise a :class:`Clustering` (or raw label vector)."""
    if not isinstance(clustering, Clustering):
        clustering = Clustering(clustering)
    return {
        "kind": _KIND_CLUSTERING,
        "name": clustering.name,
        "labels": [int(v) for v in clustering.labels],
    }


def clustering_from_dict(payload):
    """Inverse of :func:`clustering_to_dict`."""
    if payload.get("kind") != _KIND_CLUSTERING:
        raise ValidationError("payload is not a serialised Clustering")
    return Clustering(np.asarray(payload["labels"], dtype=np.int64),
                      name=payload.get("name"))


def _subspace_cluster_to_dict(cluster):
    quality = cluster.quality
    return {
        "kind": _KIND_SUBSPACE_CLUSTER,
        "objects": sorted(int(o) for o in cluster.objects),
        "dims": sorted(int(d) for d in cluster.dims),
        "quality": None if quality is None else _encode_quality(quality),
    }


def _encode_quality(quality):
    quality = float(quality)
    return quality if math.isfinite(quality) else _float_token(quality)


def _subspace_cluster_from_dict(payload):
    quality = payload.get("quality")
    if quality is not None:
        quality = _decode_float(quality)
    return SubspaceCluster(payload["objects"], payload["dims"],
                           quality=quality)


def subspace_clustering_to_dict(result):
    """Serialise a :class:`SubspaceClustering`."""
    if not isinstance(result, SubspaceClustering):
        result = SubspaceClustering(result)
    return {
        "kind": _KIND_SUBSPACE,
        "name": result.name,
        "clusters": [_subspace_cluster_to_dict(c) for c in result],
    }


def subspace_clustering_from_dict(payload):
    """Inverse of :func:`subspace_clustering_to_dict`."""
    if payload.get("kind") != _KIND_SUBSPACE:
        raise ValidationError("payload is not a serialised SubspaceClustering")
    clusters = [_subspace_cluster_from_dict(c) for c in payload["clusters"]]
    return SubspaceClustering(clusters, name=payload.get("name"))


def result_table_to_dict(table):
    """Serialise a :class:`~repro.experiments.ResultTable` (one-way:
    tables are reports, not inputs)."""
    return {
        "kind": _KIND_TABLE,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [dict(r) for r in table.rows],
    }


# ---------------------------------------------------------------------------
# Tagged value codec
# ---------------------------------------------------------------------------

def _encode_ndarray(array):
    kind = array.dtype.kind
    flat = array.ravel(order="C").tolist()
    if kind == "f":
        data = [x if math.isfinite(x) else _float_token(x) for x in flat]
    elif kind in "iub" or kind == "U":
        data = flat
    else:
        raise ValidationError(
            f"cannot serialise ndarray of dtype {array.dtype!s}")
    return {
        _TAG: "ndarray",
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": data,
    }


def _decode_ndarray(payload):
    dtype = np.dtype(payload["dtype"])
    data = payload["data"]
    if dtype.kind == "f":
        data = [_decode_float(x) if isinstance(x, str) else x for x in data]
    array = np.asarray(data, dtype=dtype).reshape(tuple(payload["shape"]))
    return array


def _sort_key(encoded):
    return json.dumps(encoded, sort_keys=True, allow_nan=False)


def _is_repro_estimator(value):
    module = getattr(type(value), "__module__", "") or ""
    return (hasattr(value, "get_params")
            and hasattr(value, "fit")
            and (module == "repro" or module.startswith("repro.")))


def encode_value(value):
    """Encode an arbitrary library value into strict-JSON-safe form.

    Supports the closed set of types observed in fitted estimator state:
    JSON scalars, non-finite floats (tagged), numpy scalars and arrays,
    tuples, sets, dicts with arbitrary hashable keys, convergence
    events, :class:`Clustering` / :class:`SubspaceCluster` /
    :class:`SubspaceClustering`, module-level ``repro.*`` functions, and
    nested fitted ``repro`` estimators. Anything else raises
    :class:`ValidationError`.
    """
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _encode_float(value)
    if isinstance(value, np.ndarray):
        return _encode_ndarray(value)
    if isinstance(value, ConvergenceEvent):
        return {
            _TAG: "convergence_event",
            "iteration": int(value.iteration),
            "objective": _encode_float(value.objective),
            "delta": _encode_float(value.delta),
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        items = sorted((encode_value(v) for v in value), key=_sort_key)
        tag = "frozenset" if isinstance(value, frozenset) else "set"
        return {_TAG: tag, "items": items}
    if isinstance(value, dict):
        return {
            _TAG: "dict",
            "items": [[encode_value(k), encode_value(v)]
                      for k, v in value.items()],
        }
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, Clustering):
        return clustering_to_dict(value)
    if isinstance(value, SubspaceCluster):
        return _subspace_cluster_to_dict(value)
    if isinstance(value, SubspaceClustering):
        return subspace_clustering_to_dict(value)
    if isinstance(value, types.FunctionType):
        module = value.__module__ or ""
        if not (module == "repro" or module.startswith("repro.")):
            raise ValidationError(
                f"can only serialise repro.* functions, got {module}."
                f"{value.__qualname__}")
        return {_TAG: "function", "module": module,
                "qualname": value.__qualname__}
    if _is_repro_estimator(value):
        return estimator_to_dict(value)
    cls = type(value)
    module = cls.__module__ or ""
    if ((module == "repro" or module.startswith("repro."))
            and hasattr(value, "__dict__")):
        # last resort for plain helper objects (e.g. a named threshold
        # callable stored by a fitted estimator): class path + state
        return {
            _TAG: "object",
            "module": module,
            "qualname": cls.__qualname__,
            "state": [[name, encode_value(v)]
                      for name, v in vars(value).items()],
        }
    raise ValidationError(
        f"don't know how to encode {cls.__name__!s} for JSON")


_TAG_DECODERS = {}


def _tag_decoder(name):
    def deco(fn):
        _TAG_DECODERS[name] = fn
        return fn
    return deco


@_tag_decoder("float")
def _dec_float(payload):
    return _decode_float(payload["value"])


@_tag_decoder("ndarray")
def _dec_ndarray(payload):
    return _decode_ndarray(payload)


@_tag_decoder("tuple")
def _dec_tuple(payload):
    return tuple(decode_value(v) for v in payload["items"])


@_tag_decoder("set")
def _dec_set(payload):
    return set(decode_value(v) for v in payload["items"])


@_tag_decoder("frozenset")
def _dec_frozenset(payload):
    return frozenset(decode_value(v) for v in payload["items"])


@_tag_decoder("dict")
def _dec_dict(payload):
    return {decode_value(k): decode_value(v) for k, v in payload["items"]}


@_tag_decoder("convergence_event")
def _dec_event(payload):
    return ConvergenceEvent(iteration=int(payload["iteration"]),
                            objective=decode_value(payload["objective"]),
                            delta=decode_value(payload["delta"]))


def _resolve_repro_attr(module_name, qualname, what):
    """Resolve ``module_name``.``qualname``, confined to the library.

    Qualname traversal must never step through a module object —
    otherwise ``repro.foo`` + ``os.system`` would walk from a repro
    module into an imported stdlib module — and the resolved target's
    own ``__module__`` must be ``repro.*`` (blocks names merely
    *imported into* a repro module, e.g. ``from x import y``).
    """
    obj = _import_repro_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None or isinstance(obj, types.ModuleType):
            raise ValidationError(
                f"cannot resolve {what} {module_name}.{qualname}")
    owner = getattr(obj, "__module__", "") or ""
    if not (owner == "repro" or owner.startswith("repro.")):
        raise ValidationError(
            f"refusing to decode {what} {module_name}.{qualname}: "
            f"it is defined in {owner or '<unknown>'!s}, not repro.*")
    return obj


@_tag_decoder("function")
def _dec_function(payload):
    obj = _resolve_repro_attr(payload["module"], payload["qualname"],
                              "function")
    if not callable(obj):
        raise ValidationError(
            f"{payload['module']}.{payload['qualname']} is not callable")
    return obj


@_tag_decoder("object")
def _dec_object(payload):
    obj = _resolve_repro_attr(payload["module"], payload["qualname"],
                              "class")
    if not isinstance(obj, type):
        raise ValidationError(
            f"{payload['module']}.{payload['qualname']} is not a class")
    instance = obj.__new__(obj)
    for name, value in payload["state"]:
        setattr(instance, name, decode_value(value))
    return instance


_KIND_DECODERS = {
    _KIND_CLUSTERING: clustering_from_dict,
    _KIND_SUBSPACE_CLUSTER: _subspace_cluster_from_dict,
    _KIND_SUBSPACE: subspace_clustering_from_dict,
}


def decode_value(payload):
    """Inverse of :func:`encode_value`."""
    if isinstance(payload, list):
        return [decode_value(v) for v in payload]
    if isinstance(payload, dict):
        tag = payload.get(_TAG)
        if tag is not None:
            decoder = _TAG_DECODERS.get(tag)
            if decoder is None:
                raise ValidationError(f"unknown value tag {tag!r}")
            return decoder(payload)
        kind = payload.get("kind")
        if kind == _KIND_ESTIMATOR:
            return estimator_from_dict(payload)
        decoder = _KIND_DECODERS.get(kind)
        if decoder is None:
            raise ValidationError(
                f"untagged dict in encoded payload (kind={kind!r}); "
                "plain dicts are encoded as tagged item lists")
        return decoder(payload)
    return payload


def _import_repro_module(module_name):
    """Import a module, refusing anything outside the library."""
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise ValidationError(
            f"refusing to import {module_name!r}: estimator payloads may "
            "only reference repro.* modules")
    return importlib.import_module(module_name)


# ---------------------------------------------------------------------------
# Fitted-estimator round-trip
# ---------------------------------------------------------------------------

def estimator_to_dict(estimator):
    """Serialise a (possibly fitted) estimator to a strict-JSON dict.

    Splits the instance into constructor ``params`` (from
    ``get_params()``) and everything else in ``vars()`` — the fitted
    state, including private helper attributes — each value going
    through :func:`encode_value`. The inverse is
    :func:`estimator_from_dict`.
    """
    cls = type(estimator)
    module = cls.__module__ or ""
    if not (module == "repro" or module.startswith("repro.")):
        raise ValidationError(
            f"can only serialise repro.* estimators, got {module}."
            f"{cls.__name__}")
    if not hasattr(estimator, "get_params"):
        raise ValidationError(
            f"{cls.__name__} has no get_params; not a library estimator")
    params = estimator.get_params()
    fitted = {name: value for name, value in vars(estimator).items()
              if name not in params}
    return {
        "kind": _KIND_ESTIMATOR,
        "format": ESTIMATOR_FORMAT,
        "module": module,
        "class": cls.__name__,
        "params": {name: encode_value(value)
                   for name, value in sorted(params.items())},
        "fitted": {name: encode_value(value)
                   for name, value in fitted.items()},
    }


def estimator_from_dict(payload):
    """Rebuild an estimator serialised by :func:`estimator_to_dict`.

    The class is resolved by import path, restricted to ``repro.*``
    modules; params go through the constructor (so validation applies),
    fitted state is restored verbatim.
    """
    if payload.get("kind") != _KIND_ESTIMATOR:
        raise ValidationError("payload is not a serialised estimator")
    if payload.get("format") != ESTIMATOR_FORMAT:
        raise ValidationError(
            f"unsupported estimator payload format "
            f"{payload.get('format')!r} (expected {ESTIMATOR_FORMAT})")
    cls = _resolve_repro_attr(payload["module"], payload["class"],
                              "estimator class")
    if not isinstance(cls, type):
        raise ValidationError(
            f"{payload['module']}.{payload['class']} is not a class")
    params = {name: decode_value(value)
              for name, value in payload["params"].items()}
    estimator = cls(**params)
    for name, value in payload["fitted"].items():
        setattr(estimator, name, decode_value(value))
    return estimator


# ---------------------------------------------------------------------------
# Strict JSON emission
# ---------------------------------------------------------------------------

def sanitize_json(obj):
    """Recursively replace non-finite floats in a JSON-ready structure.

    ``nan`` becomes ``None`` (JSON ``null``); infinities become the
    token strings ``"Infinity"`` / ``"-Infinity"``; tuples become lists.
    Other values pass through untouched.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return None if math.isnan(obj) else _float_token(obj)
    if isinstance(obj, dict):
        return {k: sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    return obj


def dumps(obj, **kwargs):
    """Strict-RFC ``json.dumps``: sanitises non-finite floats first and
    serialises with ``allow_nan=False`` so bare ``NaN`` tokens can never
    be emitted."""
    kwargs.setdefault("allow_nan", False)
    return json.dumps(sanitize_json(obj), **kwargs)


def payload_checksum(data):
    """sha256 hex over a payload's stored bytes: the checksum
    :func:`seal` stores and :func:`unseal` recomputes."""
    return hashlib.sha256(data).hexdigest()


#: Directory, next to a durable file, that :func:`quarantine` fills.
QUARANTINE_DIR = "quarantine"

#: What precedes the checksum and the payload in a sealed line.
_SEAL_HEAD = b'{"sha256": "'
_SEAL_MID = b'", "payload": '


def seal(payload):
    """``payload`` as one checksummed strict-JSON envelope line:
    ``{"sha256": "<hex>", "payload": <P>}`` and a newline, in that key
    order, where ``<P>`` is :func:`dumps` of the payload and the checksum
    is :func:`payload_checksum` over exactly those bytes."""
    body = dumps(payload)
    checksum = payload_checksum(body.encode("utf-8"))
    return f'{{"sha256": "{checksum}", "payload": {body}}}\n'


def unseal(data):
    """The payload of a line written by :func:`seal` (``str`` or
    ``bytes``, trailing newline optional).

    Raises :class:`~repro.exceptions.IntegrityError` when the line is not
    a sealed envelope or its payload bytes do not match the stored
    checksum. The bytes are hashed once and parsed once.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, sep, body = data.removesuffix(b"\n").partition(_SEAL_MID)
    if not (sep and head.startswith(_SEAL_HEAD) and body.endswith(b"}")):
        raise IntegrityError("missing integrity envelope (sha256/payload)")
    stored = head[len(_SEAL_HEAD):].decode("ascii", "replace")
    actual = payload_checksum(body[:-1])
    if stored != actual:
        raise IntegrityError(f"checksum mismatch (stored {stored[:16]}..., "
                             f"computed {actual[:16]}...)")
    try:
        return json.loads(body[:-1])
    except ValueError as exc:
        raise IntegrityError(f"unparseable payload: {exc}") from exc


def quarantine(path, reason, line=None, data=None):
    """Move a record that failed verification out of the read path.

    A whole file moves to ``<dir>/quarantine/<name>``; line ``line`` of a
    JSONL file is written there as ``<name>.line-<line>`` from its bytes
    ``data``. Next to it lands ``<stem>.error.json``, a structured
    ``IntegrityError`` record (``error``, ``file``, ``key`` or ``line``,
    ``reason``, ``quarantined_at``). Never raises: when the quarantine
    cannot be written the record is dropped anyway (a whole file is
    unlinked so it cannot be read again).
    """
    path = pathlib.Path(path)
    qdir = path.parent / QUARANTINE_DIR
    logger.error("%s%s failed verification (%s); quarantining", path,
                 "" if line is None else f":{line}", reason)
    if line is None:
        target, stem = qdir / path.name, path.stem
        error = {"key": path.stem, "file": path.name}
    else:
        target = qdir / f"{path.name}.line-{line}"
        stem = target.name
        error = {"file": str(path), "line": line}
    error.update(error="IntegrityError", reason=reason,
                 quarantined_at=time.time())
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        if line is None:
            os.replace(path, target)
        else:
            target.write_bytes(data + b"\n")
        write_text_atomic(qdir / f"{stem}.error.json",
                          dumps(error, sort_keys=True) + "\n")
    except OSError as exc:
        logger.error("could not quarantine %s: %s (dropped anyway)",
                     path, exc)
        if line is None:
            with contextlib.suppress(OSError):  # repro: noqa[RL011] - last resort: a corrupt file must not stay readable
                path.unlink()


def write_text_atomic(path, text):
    """Durably replace ``path`` with ``text``.

    Temp file in the same directory (``.<name>.tmp-<pid>-<thread>``, so
    concurrent writers never share one), ``fsync``, ``os.replace``,
    then a best-effort directory ``fsync`` so the rename survives power
    loss too: a crash at any instant leaves the old file or the new
    one, never a mix. On failure the temp file is removed and the
    ``OSError`` propagates.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:  # the file itself is already fsynced
        logger.debug("directory fsync for %s unavailable: %s", path, exc)


def append_text_durable(path, text):
    """Append ``text`` to ``path`` and ``fsync`` it before returning.

    The cost is one write and one ``fsync`` of ``text`` alone, however
    large the file already is. A crash mid-call leaves at most a torn
    trailing line, which the JSONL readers drop; a writer that did not
    produce the file's current contents must first rewrite it with
    :func:`write_text_atomic`, or its first line could be glued onto a
    predecessor's torn one.
    """
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def sweep_stale_temps(directory):
    """Remove the temp files that :func:`write_text_atomic` writers
    killed before their rename left in ``directory``.

    Temp names end in ``.tmp-<pid>-<thread>``; one whose pid still runs
    is left alone, because it is about to be replaced into place.
    """
    for stale in pathlib.Path(directory).glob("*.tmp-*"):
        try:
            os.kill(int(stale.name.rpartition(".tmp-")[2].split("-")[0]), 0)
        except ProcessLookupError:
            pass  # its writer is gone
        except (ValueError, OverflowError, PermissionError):
            continue  # not a pid, or one we may not signal: leave it
        else:
            continue  # a live writer is about to replace it into place
        try:
            stale.unlink()
        except OSError as exc:
            logger.warning("could not remove stale temp file %s: %s",
                           stale, exc)
        else:
            logger.info("removed stale temp file %s", stale.name)


def _to_payload(obj):
    if isinstance(obj, Clustering):
        return clustering_to_dict(obj)
    if isinstance(obj, SubspaceClustering):
        return subspace_clustering_to_dict(obj)
    # duck-typed ResultTable
    if hasattr(obj, "title") and hasattr(obj, "columns") and hasattr(obj, "rows"):
        return result_table_to_dict(obj)
    if isinstance(obj, np.ndarray):
        return clustering_to_dict(obj)
    if _is_repro_estimator(obj):
        return estimator_to_dict(obj)
    raise ValidationError(
        f"don't know how to serialise {type(obj).__name__}; expected "
        "Clustering, SubspaceClustering, label array, ResultTable, or "
        "a library estimator"
    )


def save_json(obj, path):
    """Write a supported object to ``path`` as strict JSON; returns the
    path."""
    payload = _to_payload(obj)
    write_text_atomic(path, dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path):
    """Load a previously saved object (tables come back as plain dicts)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == _KIND_CLUSTERING:
        return clustering_from_dict(payload)
    if kind == _KIND_SUBSPACE:
        return subspace_clustering_from_dict(payload)
    if kind == _KIND_ESTIMATOR:
        return estimator_from_dict(payload)
    if kind == _KIND_TABLE:
        return payload
    raise ValidationError(f"unknown payload kind {kind!r}")
