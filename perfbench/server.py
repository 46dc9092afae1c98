"""Run ``repro serve`` in this process, optionally with span wrappers.

Usage::

    python3 -u perfbench/server.py [--spans FILE] -- serve --port 0 ...

The serve-mix workload starts the server through this launcher in both
its untraced and traced runs, so the only difference between the two is
``--spans``: with it, the layer wrappers are installed before the server
starts and the recorded spans are written to FILE when it exits.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, metavar="FILE")
    args = parser.parse_args(argv[:split])

    import repro.__main__ as cli
    from repro.serve.scheduler import servable_estimators

    servable_estimators()  # import every estimator before wrapping
    recorder = None
    if args.spans is not None:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    try:
        return cli.main(argv[split + 1:])
    finally:
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
