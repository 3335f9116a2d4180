"""Span recording from outside the program.

The benchmark measures the layers of ``repro`` without editing them: a
:class:`Tracer` wraps public functions and methods and records, per span
name, the number of calls, the wall time and the self time (the span's
duration minus the part its child spans cover).

Two lookup rules decide where a wrapper has to go:

* a class method is looked up on the class at call time, so replacing
  the class attribute catches every call;
* a module-level function is bound into every module that imported it
  with ``from x import f``, so the wrapper replaces each such binding.

A span name re-entered while it is already open (a layer calling into
itself) counts the call but opens no second span, so wall time is never
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Iterable

#: what each traced child wraps: (span name, "module:attribute" or
#: "module:Class.method").  Counting the calls of a hot method costs
#: about a microsecond each; ``calibrate_overhead`` measures it.
REPRODUCE_SPANS = (
    ("netgen.build_scenario", "repro.netgen.generator:build_scenario"),
    ("traceroute.run_all", "repro.traceroute.engine:TracerouteCampaign.run_all"),
    ("neighbors.infer", "repro.neighbors.inference:infer_all_clouds"),
    ("mapping.resolve", "repro.mapping.resolver:IterativeResolver.resolve"),
    ("mapping.lookup", "repro.mapping.ipasn:IpAsnService.lookup"),
    ("geo.distance_profile", "repro.geo.popgrid:PopulationGrid.distance_profile"),
    ("geo.geolocate", "repro.geo.geolocate:Geolocator.geolocate"),
    ("pops.consolidate", "repro.pops.consolidate:consolidate_scenario"),
    ("bgpsim.contains_path", "repro.bgpsim.routes:RoutingState.contains_path"),
    ("core.leaks", "repro.core.leaks:simulate_leaks"),
    ("core.leaks", "repro.core.leaks:average_resilience_curve"),
    ("core.leaks", "repro.core.leaks:resilience_curve"),
    ("core.leaks", "repro.core.leaks:lock_coverage_sweep"),
)

#: one span per ``run_all`` result key, under a ``run_all`` parent span
#: whose self time is the part of the report no experiment accounts for
EXPERIMENT_SPANS = (("experiments.run_all", "repro.experiments.runner:run_all"),) + tuple(
    (f"experiments.{key}", f"repro.experiments.{module}:{function}")
    for key, module, function in (
        ("sec4_5", "sec45_validation", "run"),
        ("fig2", "fig2_reachability", "run"),
        ("table1", "table1_top20", "run"),
        ("fig3", "fig3_cone_vs_hfr", "run"),
        ("fig4", "fig4_unreachable", "run"),
        ("fig6_table2", "fig6_table2_reliance", "run"),
        ("fig7_8", "fig7_10_leaks", "run"),
        ("fig9", "fig7_10_leaks", "run_fig9"),
        ("fig10", "fig7_10_leaks", "run_fig10"),
        ("fig11", "fig11_map", "run"),
        ("fig12", "fig12_coverage", "run"),
        ("table3", "table3_rdns", "run"),
        ("appendixA", "appendixA_paths", "run"),
        ("appendixB", "appendixB_tier1", "run"),
        ("appendixD", "appendixD_geolocation", "run"),
        ("fig13", "fig13_pathlen", "run"),
        ("metrics", "metrics_comparison", "run"),
    )
)

#: ``repro precompute`` layers (run under ``child_launch.py``)
PRECOMPUTE_SPANS = (
    ("shards.precompute", "repro.bgpsim.shards:precompute_shards"),
    ("shards.precompute_metrics", "repro.bgpsim.shards:precompute_metric_shards"),
)

#: ``repro serve`` layers (run under ``child_launch.py``)
SERVE_SPANS = (
    ("serve.answer", "repro.serve:QueryService.answer"),
    ("bgpsim.prefetch", "repro.bgpsim.cache:RoutingStateCache.prefetch"),
    ("shards.state_for", "repro.bgpsim.shards:ShardStore.state_for"),
)


class Tracer:
    """Per-name span statistics; safe to record from several threads."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # name -> [calls, wall, self]
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, calls: int, wall: float, self_time: float) -> None:
        with self._lock:
            row = self.stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += wall
            row[2] += self_time

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if any(frame[0] == name for frame in stack):
            self._record(name, 1, 0.0, 0.0)
            return fn(*args, **kwargs)
        frame = [name, 0.0]  # name, time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._record(name, 1, elapsed, elapsed - frame[1])

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                name: {"calls": int(row[0]), "wall_s": row[1], "self_s": row[2]}
                for name, row in sorted(self.stats.items())
            }


def install(
    wrap: Callable[[str, Callable], Callable], specs: Iterable[tuple[str, str]]
) -> int:
    """Replace every ``(name, target)`` in ``specs`` by ``wrap(name,
    target)`` — ``Tracer.wrap`` for spans; returns the number of
    bindings replaced.  Import the modules that bind a function before
    calling this, so their bindings are found."""
    replaced = 0
    for name, target in specs:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            original = cls.__dict__[method]
            setattr(cls, method, wrap(name, original))
            replaced += 1
            continue
        original = getattr(module, attr)
        wrapped = wrap(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    replaced += 1
    return replaced


def calibrate_overhead(calls: int = 200_000) -> float:
    """Seconds one traced call adds over a plain call (median of 5)."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - plain) / calls)
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)
