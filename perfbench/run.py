"""The repro benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce-small --seed 20200901 \
        --seconds 10 --trace 0

Prints every metric with its unit, the operations attempted and failed,
a host stamp, and as the last line one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  Exits 1 when an answer or the report
is wrong (the correctness gate) and 2 when the workload cannot run.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys

import workloads

#: scratch space inside the checkout (listed in .gitignore)
WORK_ROOT = workloads.ROOT / ".perfbench"


def host_stamp() -> dict:
    """Where and how this run ran."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (workloads.ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "pythonhashseed": workloads.child_env()["PYTHONHASHSEED"],
        "repro_env_cleared": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None, **overrides) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (workloads.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2

    stamp = host_stamp()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    trace = bool(args.trace)
    try:
        if args.workload == "reproduce-small":
            outcome = workloads.reproduce_small(args.seed, trace, work)
        else:
            outcome = workloads.serve_workload(
                args.workload, args.seed, args.seconds, trace, work, **overrides
            )
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        span_file = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "host": stamp,
             "spans": outcome.spans}, indent=1,
        ))
    values = outcome.layers if trace else outcome.e2e
    units = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = not outcome.problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  FAIL: {problem}")
    for reason in outcome.invalid:
        print(f"  INVALID: {reason}")
    if trace:
        print(f"spans (calls, wall and self time) in {span_file}")
    print("host " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
