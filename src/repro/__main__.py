"""Command-line interface for the experiment harness.

Usage::

    python -m repro list                 # list experiments
    python -m repro taxonomy             # print the slide-116 table (T1)
    python -m repro run F9               # run one experiment
    python -m repro run all              # run every experiment

``run`` is fault-tolerant: a failing experiment is recorded with a
``status`` and the sweep continues (``--keep-going``, default on), a
per-experiment wall-clock budget can be set with ``--budget``, and
failed experiments can be retried with ``--max-retries``. The exit
code is 0 only when every requested experiment succeeded.

Crash safety: ``run --isolate`` executes the sweep on the worker pool
(below) with one long-lived killable worker, respawned after a kill or
crash (a crashed worker becomes a structured failure),
``--hard-timeout SECONDS`` kills a worker that exceeds the deadline —
no cooperation needed, unlike ``--budget`` — and
``--checkpoint DIR`` / ``--resume`` journal completed outcomes durably
so an interrupted sweep restarts without recomputing finished
experiments. Ctrl-C flushes the journal and the partial summary and
exits with code 130.

Parallelism: ``run --jobs N`` executes the sweep on a work-stealing
pool of N isolated worker processes (``--jobs 0`` = all cores) with
the same guarantees as ``--isolate`` — per-key deterministic seeds
make the parallel sweep equivalent to an in-process one, per-worker
journal shards keep ``--resume`` correct no matter which process died,
and ``--crash-retries N`` retries a worker-killing experiment on a
fresh worker before quarantining it. Ctrl-C SIGTERMs every worker's process
group: nothing outlives the CLI.

Observability: ``-v``/``-vv`` (or ``--log-level``) turn on progress
logging, ``run --trace FILE`` exports the sweep's span tree as JSONL,
``run --profile`` adds tracemalloc peaks to the spans, and
``report FILE`` renders a previously exported trace as a span tree
plus a slowest-stages table.

Static analysis: ``lint`` forwards to ``python -m repro.lint`` — the
AST gate enforcing the determinism/purity/contract invariants
(``docs/static-analysis.md``); run it before sending a PR.

Serving: ``serve`` starts the JSON HTTP model server
(``docs/serving.md``) — fit requests become jobs on the same
fault-tolerant harness, fitted models are cached by dataset
fingerprint, and SIGTERM drains queued jobs before exit.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import os
import re
import sys


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="multiclust experiment harness "
                    "(tables/figures of the SDM'11 / ICDE'12 tutorial)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="progress logging on stderr (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="explicit logging level name (overrides -v), e.g. DEBUG",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("taxonomy", help="print the algorithm taxonomy table")
    report = sub.add_parser(
        "report",
        help="regenerate the EXPERIMENTS.md content, or render a trace",
    )
    report.add_argument(
        "trace", nargs="?", default=None, metavar="TRACE.jsonl",
        help="span JSONL from 'run --trace'; when given, render the span "
             "tree and slowest-stages table instead of EXPERIMENTS.md",
    )
    lint = sub.add_parser(
        "lint", add_help=False,
        help="run the static-analysis gate (see docs/static-analysis.md)",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to 'python -m repro.lint'",
    )
    sub.add_parser(
        "check",
        help="run every static gate (lint + the tools/ checks) with one "
             "pass/fail summary table",
    )
    serve = sub.add_parser(
        "serve",
        help="start the JSON HTTP model server (see docs/serving.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8799, metavar="PORT",
        help="port to bind (default 8799; 0 = ephemeral)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fit parallelism: 1 = in-process under a RunGuard (default), "
             "N > 1 = the work-stealing worker pool, 0 = all cores",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="pending-job capacity; past it POST /jobs returns 429 "
             "(default 32)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="model registry directory (default: ./repro-models)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="max cached models before LRU eviction (default 256)",
    )
    serve.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="per-job cooperative wall-clock budget (as in 'run --budget')",
    )
    serve.add_argument(
        "--max-deadline", type=float, default=300.0, metavar="SECONDS",
        help="cap on client-requested deadline_ms (default 300s); a "
             "request asking for more is clamped",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="cap on the cache dir's total size; a write past it is "
             "treated as ENOSPC and the server degrades to in-memory "
             "caching instead of failing (chaos testing / quota)",
    )
    serve.add_argument(
        "--shed-target-wait", type=float, default=30.0, metavar="SECONDS",
        help="adaptive load shedding: estimated queue wait (depth x "
             "observed p95 task seconds / jobs) beyond which POST /jobs "
             "answers 503 + Retry-After (default 30s)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive crash/timeout failures of one model key before "
             "its circuit opens and further identical requests get 503 "
             "(default 3)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="seconds an open circuit stays open before one trial "
             "request is let through (default 30)",
    )
    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. F9, T1, all")
    run.add_argument(
        "--keep-going", action=argparse.BooleanOptionalAction, default=True,
        help="record a failing experiment and continue the sweep "
             "(default: on; --no-keep-going stops at the first failure)",
    )
    run.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget, enforced at optimiser "
             "iteration boundaries",
    )
    run.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="extra attempts per failed experiment (budget grows per retry)",
    )
    run.add_argument(
        "--isolate", action="store_true",
        help="run the sweep on the worker pool with one long-lived "
             "killable worker, respawned after a kill or crash: crashes "
             "(segfault, SIGKILL) become structured failures and the "
             "sweep continues",
    )
    run.add_argument(
        "--hard-timeout", type=float, default=None, metavar="SECONDS",
        help="kill an isolated worker exceeding this wall-clock deadline "
             "(no cooperation needed, unlike --budget; implies --isolate)",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = in-process; "
             "0 = all cores); N > 1 runs the work-stealing pool, which "
             "always isolates and keeps results identical to an "
             "in-process run",
    )
    run.add_argument(
        "--crash-retries", type=int, default=0, metavar="N",
        help="with --isolate or --jobs > 1: reschedule an experiment that "
             "crashed its worker up to N times before quarantining it as "
             "failed/crashed",
    )
    run.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal each completed experiment durably to DIR/journal.jsonl "
             "(append + fsync per outcome; survives crashes and Ctrl-C)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: skip experiments already completed in the "
             "journal and re-run only failed or missing ones",
    )
    run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the sweep's span tree as JSONL to FILE "
             "(render it later with 'python -m repro report FILE')",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="capture tracemalloc peak memory per span (slower)",
    )
    return parser


def _suggest(key, all_experiments):
    """A " -- did you mean X?" hint for an unknown experiment id."""
    close = difflib.get_close_matches(key, all_experiments, n=1)
    return f" -- did you mean {close[0]}?" if close else ""


#: ``run_experiments`` parameters that ``repro run`` takes as flags
_RUN_FLAGS = {"jobs": "--jobs", "crash_retries": "--crash-retries",
              "hard_timeout": "--hard-timeout", "isolate": "--isolate"}


def _flag_error(exc):
    """Report a run-layer ``ValidationError`` under the flag's name; the
    run layer checks these values once, and a bad one is a usage error
    (exit 2)."""
    message = str(exc)
    for name, flag in _RUN_FLAGS.items():
        message = re.sub(rf"\b{name}\b", flag, message)
    print(message, file=sys.stderr)
    return 2


def _run_command(args, all_experiments):
    from .exceptions import ValidationError
    from .experiments import run_experiments, summarize_outcomes
    from .observability.tracer import Tracer
    from .robustness.checkpoint import RunJournal

    if args.budget is not None and not args.budget > 0:
        print(f"--budget must be a positive number of seconds, "
              f"got {args.budget}", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print(f"--max-retries must be >= 0, got {args.max_retries}",
              file=sys.stderr)
        return 2
    if args.hard_timeout is not None:
        args.isolate = True  # a hard deadline needs a killable worker
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint DIR (nothing to resume from)",
              file=sys.stderr)
        return 2

    key = args.experiment.upper()
    if key == "ALL":
        keys = list(all_experiments)
    elif key in all_experiments:
        keys = [key]
    else:
        print(f"unknown experiment {args.experiment!r}"
              f"{_suggest(key, all_experiments)}; "
              f"choose from {', '.join(all_experiments)} or 'all'",
              file=sys.stderr)
        return 2

    def stream(outcome):
        if outcome.status == "skipped":
            print(f"[{outcome.key} skipped -- already completed in the "
                  f"journal ({outcome.elapsed:.2f}s in the prior run)]\n")
        elif outcome.ok:
            print(outcome.table.render())
            extra = (f", peak {outcome.peak_kb:.0f} KiB"
                     if outcome.peak_kb is not None else "")
            print(f"[{outcome.key} completed in {outcome.elapsed:.2f}s "
                  f"({outcome.iterations} iterations{extra})]\n")
        else:
            how = (f" [{outcome.failure.kind}]"
                   if outcome.failure.kind != "error" else "")
            print(f"[{outcome.key} FAILED{how} after {outcome.elapsed:.2f}s "
                  f"({outcome.attempts} attempt(s)): "
                  f"{outcome.failure.error_type}: {outcome.failure.message}]\n")

    journal = None
    if args.checkpoint is not None:
        # opened by run_experiments once the flags pass its checks, so
        # a rejected run leaves no checkpoint directory behind
        journal = functools.partial(RunJournal, args.checkpoint,
                                    resume=args.resume)
    tracer = Tracer(profile_memory=args.profile)
    outcomes = []  # filled via callback so a Ctrl-C keeps partial results

    def collect(outcome):
        outcomes.append(outcome)
        stream(outcome)

    interrupted = False
    try:
        run_experiments(
            {k: all_experiments[k] for k in keys},
            keep_going=args.keep_going,
            max_seconds=args.budget,
            max_retries=args.max_retries,
            callback=collect,
            tracer=tracer,
            isolate=args.isolate,
            hard_timeout=args.hard_timeout,
            journal=journal,
            jobs=args.jobs,
            crash_retries=args.crash_retries,
            trace_path=args.trace,
        )
    except ValidationError as exc:
        return _flag_error(exc)
    except KeyboardInterrupt:
        interrupted = True
        print(f"\ninterrupted -- {len(outcomes)}/{len(keys)} experiment(s) "
              "completed before Ctrl-C", file=sys.stderr)
        if journal is not None:
            print(f"journal in {args.checkpoint} is flushed; resume with "
                  f"'--checkpoint {args.checkpoint} --resume'",
                  file=sys.stderr)
    failed = [o for o in outcomes if not o.ok]
    if len(outcomes) > 1 or failed or interrupted:
        if outcomes:
            print(summarize_outcomes(outcomes).render())
    if args.trace is not None:
        n = tracer.write_jsonl(args.trace)
        print(f"[wrote {n} spans to {args.trace}; render with "
              f"'python -m repro report {args.trace}']", file=sys.stderr)
    if interrupted:
        return 130
    if failed:
        print(f"\n{len(failed)}/{len(outcomes)} experiment(s) failed: "
              f"{', '.join(o.key for o in failed)}", file=sys.stderr)
        return 1
    return 0


def _serve_command(args):
    import signal

    from .robustness.pool import resolve_jobs
    from .serve import (CircuitBreaker, JobScheduler, LoadShedder,
                        ModelRegistry, make_server)

    if args.port < 0 or args.port > 65535:
        print(f"--port must be in [0, 65535], got {args.port}",
              file=sys.stderr)
        return 2
    if args.jobs < 0:
        print(f"--jobs must be >= 0 (0 = all cores), got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.queue_limit < 1:
        print(f"--queue-limit must be >= 1, got {args.queue_limit}",
              file=sys.stderr)
        return 2
    if args.cache_size < 1:
        print(f"--cache-size must be >= 1, got {args.cache_size}",
              file=sys.stderr)
        return 2
    if args.budget is not None and not args.budget > 0:
        print(f"--budget must be a positive number of seconds, "
              f"got {args.budget}", file=sys.stderr)
        return 2
    if args.max_deadline is not None and not args.max_deadline > 0:
        print(f"--max-deadline must be a positive number of seconds, "
              f"got {args.max_deadline}", file=sys.stderr)
        return 2
    if args.cache_max_bytes is not None and args.cache_max_bytes < 1:
        print(f"--cache-max-bytes must be >= 1, got {args.cache_max_bytes}",
              file=sys.stderr)
        return 2
    if args.shed_target_wait is not None and not args.shed_target_wait > 0:
        print(f"--shed-target-wait must be a positive number of seconds, "
              f"got {args.shed_target_wait}", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir if args.cache_dir is not None \
        else "repro-models"
    registry = ModelRegistry(cache_dir, max_entries=args.cache_size,
                             max_bytes=args.cache_max_bytes)
    scheduler = JobScheduler(
        registry,
        jobs=resolve_jobs(args.jobs),
        queue_limit=args.queue_limit,
        max_seconds=args.budget,
        max_deadline=args.max_deadline,
        shedder=LoadShedder(target_wait=args.shed_target_wait),
        breaker=CircuitBreaker(threshold=args.breaker_threshold,
                               cooldown=args.breaker_cooldown),
    ).start()
    try:
        server = make_server(args.host, args.port, scheduler=scheduler,
                             model_registry=registry)
    except OSError as exc:
        scheduler.shutdown(drain=False)
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2

    def _graceful(signum, frame):
        print(f"\n[signal {signum}: draining queued jobs, then stopping]",
              file=sys.stderr)
        server.drain_and_shutdown()

    signal.signal(signal.SIGTERM, _graceful)
    print(f"repro serve listening on {server.url} "
          f"(jobs={scheduler.jobs}, queue-limit={args.queue_limit}, "
          f"cache-dir={cache_dir}, cache-size={args.cache_size})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\n[Ctrl-C: draining queued jobs, then stopping]",
              file=sys.stderr)
        server.drain_and_shutdown().join()
        server.server_close()
        return 130
    server.server_close()
    scheduler.shutdown(drain=True)
    return 0


def _report_trace(path):
    from .exceptions import ValidationError
    from .observability.tracer import (
        read_jsonl,
        render_records,
        render_stage_table,
        slowest_stages,
    )

    try:
        records = read_jsonl(path)
    except (OSError, ValidationError) as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"trace {path!r} contains no spans", file=sys.stderr)
        return 1
    print(render_records(records))
    print()
    print(render_stage_table(slowest_stages(records)))
    return 0


#: The standalone gates consolidated under ``repro check`` (each keeps
#: its own entry point; the subcommand just runs them in sequence).
_CHECK_TOOLS = (
    "check_outcome_schema.py",
    "check_trace_schema.py",
    "check_estimator_contract.py",
)


def _check_command():
    """Run lint plus every ``tools/check_*.py`` gate; print a summary.

    The lint gate runs in-process; the tools run as subprocesses because
    each is its own entry point with a violation-count exit status.
    Exit 0 only when every gate passes.
    """
    import subprocess
    import time as _time

    from .lint.engine import LintEngine, format_human
    from .lint.walk import PACKAGE_ROOT, REPO_ROOT, SRC_ROOT

    rows = []  # (gate, status, seconds, detail)

    started = _time.monotonic()
    report = LintEngine().lint_paths([PACKAGE_ROOT])
    if not report.ok:
        print(format_human(report))
    rows.append(("repro lint", report.ok, _time.monotonic() - started,
                 f"{len(report.findings)} finding(s) over "
                 f"{report.files_checked} file(s)"))

    env = dict(os.environ)
    src = str(SRC_ROOT)
    env["PYTHONPATH"] = (src if not env.get("PYTHONPATH")
                         else src + os.pathsep + env["PYTHONPATH"])
    for tool in _CHECK_TOOLS:
        path = REPO_ROOT / "tools" / tool
        name = f"tools/{tool}"
        if not path.is_file():
            rows.append((name, None, 0.0, "not found - skipped"))
            continue
        started = _time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(path)], cwd=str(REPO_ROOT), env=env,
            capture_output=True, text=True, timeout=600,
        )
        elapsed = _time.monotonic() - started
        output = (proc.stdout or "") + (proc.stderr or "")
        tail = [line for line in output.splitlines() if line.strip()]
        detail = tail[-1] if tail else ""
        if proc.returncode != 0 and output:
            print(output, end="" if output.endswith("\n") else "\n")
        rows.append((name, proc.returncode == 0, elapsed, detail))

    width = max(len(name) for name, _, _, _ in rows)
    print(f"{'gate':<{width}}  status  time    detail")
    for name, ok, elapsed, detail in rows:
        status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        print(f"{name:<{width}}  {status:<6}  {elapsed:5.1f}s  {detail}")
    failed = sum(1 for _, ok, _, _ in rows if ok is False)
    print(f"{len(rows)} gate(s): "
          f"{sum(1 for _, ok, _, _ in rows if ok)} passed, {failed} failed, "
          f"{sum(1 for _, ok, _, _ in rows if ok is None)} skipped")
    return 0 if failed == 0 else 1


def main(argv=None):
    from .experiments import ALL_EXPERIMENTS
    from .core.taxonomy import render_table
    from .observability.logs import configure_logging, level_from_verbosity

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward verbatim: argparse REMAINDER would not accept leading
        # options ("repro lint --select RL003" must work).
        from .lint.cli import main as lint_main

        return lint_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    configure_logging(args.log_level if args.log_level is not None
                      else level_from_verbosity(args.verbose))
    if args.command == "list":
        for key, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{key:>4}  {doc}")
        return 0
    if args.command == "taxonomy":
        print(render_table())
        return 0
    if args.command == "lint":
        from .lint.cli import main as lint_main

        return lint_main(args.lint_args)
    if args.command == "check":
        return _check_command()
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "report":
        if args.trace is not None:
            return _report_trace(args.trace)
        from .experiments.report import generate_report

        print(generate_report())
        return 0
    return _run_command(args, ALL_EXPERIMENTS)


if __name__ == "__main__":
    raise SystemExit(main())
