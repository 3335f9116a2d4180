"""Run one ``repro`` command in this process, pinned and optionally traced.

Usage::

    python3 perfbench/child_launch.py [--cpu C] [--trace-out SPANS.json] \
        -- precompute|serve ARGS...

The command is ``repro.cli.main(ARGS)``, unchanged.  With
``--trace-out`` the layers the command runs through (``spans.py``) are
wrapped first, and their span totals are written when the command
returns — for ``serve``, at shutdown (SIGINT or SIGTERM).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGTERM, _interrupt)

    import repro.cli

    tracer = None
    if args.trace_out:
        import repro.bgpsim.shards
        import repro.serve
        import spans

        tracer = spans.Tracer()
        layers = spans.SERVE_SPANS if command[0] == "serve" else spans.PRECOMPUTE_SPANS
        spans.install(tracer.wrap, layers)
    try:
        return repro.cli.main(command)
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.snapshot()}, handle)


if __name__ == "__main__":
    sys.exit(main())
