"""The reproduce-small workload, in a fresh interpreter.

Usage::

    python3 perfbench/child_reproduce.py OUT.json --seed N --passes K \
        [--cpu C] [--trace]

Makes ``K`` passes, each of which builds the ``small`` and ``small2015``
experiment contexts afresh (the set-up) and runs ``run_all`` and
``render_all`` on them (the report), and writes each pass's timings and
report digests, and the peak RSS, to ``OUT.json``.  With ``--trace``
the layers are wrapped in spans (see ``spans.py``); span totals cover
the last pass.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import repro.experiments.runner as runner
    import spans
    from checks import section_digests, seeds_for
    from repro.bgpsim.cache import RoutingStateCache
    from repro.experiments.context import build_context

    # when each run_all result is ready: one timestamp per result
    completions: list[float] = []

    def stamp_completion(name, fn):
        @functools.wraps(fn)
        def stamped(*a, **k):
            result = fn(*a, **k)
            completions.append(time.perf_counter())
            return result

        return stamped

    spans.install(stamp_completion, spans.EXPERIMENT_SPANS[1:])
    caches: list[RoutingStateCache] = []
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer.wrap, spans.REPRODUCE_SPANS + spans.EXPERIMENT_SPANS)
        original_init = RoutingStateCache.__init__

        def registering_init(self, *a, **k):
            original_init(self, *a, **k)
            caches.append(self)

        RoutingStateCache.__init__ = registering_init

    seed_2020, seed_2015 = seeds_for(args.seed)
    passes = []
    for number in range(args.passes):
        ctx_2020 = ctx_2015 = results = None
        caches.clear()
        gc.collect()
        if tracer is not None and number == args.passes - 1:
            tracer.stats.clear()
        setup_start = time.perf_counter()
        ctx_2020 = build_context("small", seed=seed_2020)
        ctx_2015 = build_context("small2015", seed=seed_2015)
        setup_s = time.perf_counter() - setup_start

        completions.clear()
        start = time.perf_counter()
        results = runner.run_all(ctx_2020, ctx_2015)  # looked up after wrapping
        report = runner.render_all(results)
        passes.append({
            "setup_s": setup_s,
            "report_s": time.perf_counter() - start,
            "sha256": hashlib.sha256(report.encode()).hexdigest(),
            "sections": section_digests(report),
            # when each result is ready, counted from the start of the report
            "completion_s": [stamp - start for stamp in completions],
        })

    out = {
        "passes": passes,
        "experiments": list(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["spans"] = tracer.snapshot()
        out["traces"] = sum(
            len(traces)
            for ctx in (ctx_2020, ctx_2015)
            for traces in ctx.traceroutes.values()
        )
        stats = [cache.stats() for cache in caches]
        out["cache"] = {
            "hits": sum(s.hits for s in stats),
            "misses": sum(s.misses for s in stats),
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
