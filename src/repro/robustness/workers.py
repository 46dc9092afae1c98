"""Worker-process primitives behind the sweep pool's hard enforcement.

The cooperative budgets of :mod:`repro.robustness.guard` stop a runaway
optimiser only at the next ``budget_tick`` — a hang inside a tight inner
loop, a C-level deadlock, or a segfault defeats them. The pool of
:mod:`repro.robustness.pool` runs every isolated experiment (``jobs > 1``
or ``isolate=True``) in a worker subprocess and enforces limits from the
outside with the helpers here:

* :func:`reap_process` **kills** a worker that must not survive
  (``terminate`` then ``kill`` after a grace period), signalling its
  whole process group;
* :func:`worker_failure_record` turns a killed worker (``"timeout"``)
  or a dead one — nonzero exit code or signal (segfault, OOM-kill, an
  injected ``SIGKILL``) — into a structured ``"crashed"``
  :class:`~repro.robustness.RunFailure`.

Every worker detaches into its **own process group** on startup
(:func:`_own_process_group`), and reaping signals the group:
grandchildren spawned by an experiment die with its worker, and a
terminal Ctrl-C (delivered to the foreground group) never reaches
workers directly — the parent reaps them on its way out, so no
subprocess outlives the CLI.

The default start method is ``fork`` when the platform offers it
(:func:`_pick_context`), so closures and locally-defined experiments
work; under ``spawn`` the experiments must be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as _signal

from ..observability.logs import get_logger
from .guard import RunFailure

__all__ = ["reap_process", "worker_failure_record"]

logger = get_logger("repro.robustness.workers")

#: Seconds granted between ``terminate`` (SIGTERM) and ``kill``
#: (SIGKILL) when reaping a timed-out worker.
_KILL_GRACE = 2.0


def _signal_name(exitcode):
    """Name of the signal behind a negative exit code, else ``None``."""
    if exitcode is None or exitcode >= 0:
        return None
    try:
        return _signal.Signals(-exitcode).name
    except ValueError:
        return f"signal {-exitcode}"


def _own_process_group():
    """Detach the current process into its own process group.

    Workers call this first thing so (a) a terminal Ctrl-C — delivered
    to the *foreground* group — never reaches them directly, and (b)
    the parent can kill the worker *and every grandchild it spawned*
    with one ``killpg``. No subprocess may outlive the CLI.
    """
    try:
        os.setpgid(0, 0)
    except (OSError, AttributeError): # already a group leader, or no setpgid on this platform
        pass  # already a group leader, or the platform has no setpgid


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _signal_group(pid, signum):
    """Signal ``pid``'s process group, falling back to the pid alone."""
    try:
        os.killpg(pid, signum)
        return
    except (OSError, AttributeError, PermissionError): # no process group to kill; fall through to kill()
        pass
    try:
        os.kill(pid, signum)
    except OSError: # already gone
        pass  # already gone


def reap_process(process):
    """Terminate, then kill, then join a worker that must not survive.

    Signals are sent to the worker's whole *process group* (workers
    make themselves group leaders on startup), so grandchildren the
    experiment spawned die with it — nothing outlives the sweep.
    """
    if not process.is_alive():
        process.join()
        # the group may still hold orphaned grandchildren; finish them
        _signal_group(process.pid, _signal.SIGKILL)
        return
    _signal_group(process.pid, _signal.SIGTERM)
    process.join(_KILL_GRACE)
    if process.is_alive():
        logger.warning("worker pid=%s ignored SIGTERM; sending SIGKILL",
                       process.pid)
        _signal_group(process.pid, _signal.SIGKILL)
        process.join()
    else:
        # the group may still hold orphaned grandchildren; finish them
        _signal_group(process.pid, _signal.SIGKILL)


def worker_failure_record(label, *, status, elapsed, exitcode=None,
                          signal_name=None, hard_timeout=None,
                          heartbeat_age=None, extra_context=None):
    """A structured :class:`RunFailure` for a killed or dead worker.

    ``status`` is ``"timeout"`` (the parent enforced a hard deadline;
    ``heartbeat_age`` is how long the worker had been silent before the
    kill, when it ever sent a heartbeat) or ``"crashed"`` (the worker
    died on its own). Every verdict the pool synthesizes goes through
    this single helper, so the failure schema cannot drift.
    """
    from ..exceptions import WorkerCrashError, WorkerTimeoutError

    if status == "timeout":
        error_type = WorkerTimeoutError.__name__
        silence = ("" if heartbeat_age is None
                   else f"; silent for {heartbeat_age:.1f}s before the kill")
        message = (f"worker exceeded its hard deadline after "
                   f"{elapsed:.2f}s and was killed{silence}")
    else:
        error_type = WorkerCrashError.__name__
        how = (f"signal {signal_name}" if signal_name
               else f"exit code {exitcode}")
        message = f"worker died with {how} after {elapsed:.2f}s"
    context = {"exitcode": exitcode, "signal": signal_name,
               "hard_timeout": hard_timeout}
    context.update(extra_context or {})
    return RunFailure(
        label=label, error_type=error_type, message=message,
        traceback="", elapsed=elapsed, attempts=1, kind=status,
        context=context,
    )
