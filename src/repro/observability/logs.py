"""Named-logger conventions for the library.

Every subsystem logs under ``repro.<subsystem>`` (``repro.cluster``,
``repro.subspace``, ``repro.experiments``, ``repro.robustness``, ...),
so applications can dial one subsystem up without drowning in another.
The library itself never calls ``print`` outside the CLI and the report
generator — lint rule ``RL003`` enforces this in tier-1.

Library modules::

    from repro.observability.logs import get_logger
    logger = get_logger(__name__)          # -> "repro.cluster.kmeans"

Applications / the CLI::

    from repro.observability import configure_logging
    configure_logging("DEBUG")             # or logging.DEBUG, or "-vv"

Following library convention, nothing is printed unless the application
configures a handler; ``configure_logging`` installs one idempotently on
the ``repro`` root logger.
"""

from __future__ import annotations

import logging

from ..exceptions import ValidationError

__all__ = ["get_logger", "configure_logging", "level_from_verbosity"]

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_HANDLER_FLAG = "_repro_observability_handler"


def get_logger(name="repro"):
    """Logger namespaced under ``repro`` (idempotent for repro.* names)."""
    if not name:
        name = "repro"
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)


def level_from_verbosity(verbosity):
    """Map a ``-v`` count to a level: 0 -> WARNING, 1 -> INFO, 2+ -> DEBUG."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(level=logging.WARNING, stream=None):
    """Attach (or re-use) a stream handler on the ``repro`` root logger.

    ``level`` may be a ``logging`` constant or a name like ``"debug"``.
    Calling again reconfigures the existing handler instead of stacking
    duplicates. Returns the ``repro`` logger.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValidationError(
                f"unknown log level {level!r}; use DEBUG, INFO, WARNING, "
                "ERROR, or CRITICAL"
            )
        level = resolved
    root = logging.getLogger("repro")
    root.setLevel(level)
    handler = next(
        (h for h in root.handlers if getattr(h, _HANDLER_FLAG, False)), None
    )
    if handler is None:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter(_FORMAT))
        setattr(handler, _HANDLER_FLAG, True)
        root.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)
    handler.setLevel(level)
    return root
