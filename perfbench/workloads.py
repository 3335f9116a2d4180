"""The benchmark's workloads.

``reproduce-small``
    The paper reproduction as a batch job: build the ``small`` and
    ``small2015`` contexts, then ``run_all`` + ``render_all``.
``serve-precomputed-small``
    ``repro precompute --metrics`` then ``repro serve --shards
    --maxsize 256``, and a query mix whose origins are Zipf-ranked by
    degree: the read path (HTTP, LRU, mmap routing shards, metric tier)
    with no propagation.

Every workload reports the same end-to-end metric names (see
``README.md`` for what each means per workload); traced runs report the
per-layer metrics, zero where a workload does not reach a layer.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks
import loadgen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: open-loop generator health: a segment whose generator put requests on
#: the queue later than this (p99) is repeated, and a run whose kept
#: segments together are this late is invalid
LATE_P99_LIMIT_MS = 5.0
ROUND_ATTEMPTS = 3

#: a round in which the hypervisor took more than this share of the
#: client's or the server's CPU (steal time) is repeated: on the host
#: this was tuned on, steal comes in bursts of tens of milliseconds,
#: long against a sub-millisecond answer
STEAL_LIMIT = 0.02

#: the server's LRU bound: below the 694-origin working set, so evicted
#: origins keep coming back from the mmap shards throughout the run
MAXSIZE = 256

#: open-loop requests per round: each round's p99 has ten samples beyond
#: it, and the latency metrics are medians over rounds
ROUND = 1000

#: connections of the load generator: one per CPU of the host it was
#: tuned on, so closed-loop requests overlap without queueing in the client
CONNECTIONS = 2

#: passes (set-up, then report) per reproduce-small run; setup_s and
#: report_s are medians over them
REPRODUCE_PASSES = 2


@dataclass(frozen=True)
class ServePlan:
    """A serve workload's load and set-ups."""

    rate: float  # open-loop requests per second
    closed: int  # closed-loop requests timed for qps
    setups: int  # set-ups per run; setup_s is their median
    profile: str = "small"


SERVE_PLANS = {
    "serve-precomputed-small": ServePlan(rate=1200.0, closed=8000, setups=2),
}

WORKLOADS = ("reproduce-small",) + tuple(SERVE_PLANS)

E2E_UNITS = {
    "setup_s": "s",
    "report_s": "s",
    "peak_rss_mb": "MB",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

ENDPOINTS = ("reachable", "path_length", "reliance", "hegemony", "rib")

#: every per-layer metric and its unit; each traced run prints all of
#: them, 0 for layers its workload does not reach
LAYER_UNITS = {
    "netgen.build_scenario_s": "s",
    "traceroute.run_all_s": "s",
    "traceroute.traces": "count",
    "neighbors.infer_s": "s",
    "mapping.resolve_s": "s",
    "mapping.resolve_calls": "count",
    "mapping.lookup_calls": "count",
    "geo.distance_profile_s": "s",
    "geo.distance_profile_calls": "count",
    "geo.geolocate_s": "s",
    "geo.geolocate_calls": "count",
    "pops.consolidate_s": "s",
    "bgpsim.contains_path_s": "s",
    "bgpsim.contains_path_calls": "count",
    "core.leaks_s": "s",
    "bgpsim.cache_hit_ratio": "ratio",
    "bgpsim.cache_misses": "count",
    **{f"experiments.{key}_s": "s" for key in (
        "sec4_5", "fig2", "table1", "fig3", "fig4", "fig6_table2", "fig7_8",
        "fig9", "fig10", "fig11", "fig12", "table3", "appendixA",
        "appendixB", "appendixD", "fig13", "metrics",
    )},
    "experiments.unaccounted_s": "s",
    "shards.precompute_s": "s",
    "shards.precompute_metrics_s": "s",
    "shards.bytes_written": "bytes",
    "serve.start_s": "s",
    "serve.tier_lru": "count",
    "serve.tier_metric": "count",
    "serve.tier_disk": "count",
    "serve.tier_computed": "count",
    "serve.metric_hit_ratio": "ratio",
    "serve.evictions": "count",
    "serve.prefetch_chunks": "count",
    **{
        f"serve.{endpoint}.server_{q}_ms": "ms"
        for endpoint in ENDPOINTS
        for q in ("p50", "p99")
    },
    "serve.answer_s": "s",
    "bgpsim.prefetch_s": "s",
    "bgpsim.prefetch_calls": "count",
    "shards.state_for_calls": "count",
    "http.overhead_mean_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.repeated_rounds": "count",
    "trace.setup_s": "s",
    "trace.report_s": "s",
    "trace.qps": "1/s",
    "trace.latency_p50_ms": "ms",
    "trace.wrapped_calls": "count",
    "trace.overhead_est_s": "s",
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]  # wrong outputs: the run is not correct
    spans: dict[str, dict[str, float]]  # traced runs: calls, wall_s, self_s
    #: why the measurement itself is not trustworthy (a late generator);
    #: printed, but a gate here would turn host stalls into failed runs
    invalid: list[str] = field(default_factory=list)


class BenchError(RuntimeError):
    """The benchmark could not run its workload."""


def child_env() -> dict[str, str]:
    """The environment of every child: ``REPRO_*`` knobs unset so the
    defaults users get are measured, a fixed hash seed, ``src`` on the
    path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_pair() -> tuple[int, int]:
    """(client CPU, server/batch CPU): different CPUs when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def _python(script: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


def _run(argv: list[str], log: Path) -> None:
    with open(log, "ab") as handle:
        done = subprocess.run(argv, env=child_env(), stdout=handle, stderr=handle)
    if done.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[1:3])} exited {done.returncode}:\n{tail}")


def _span_layers(span_stats: dict) -> dict[str, float]:
    """The per-layer metrics named after a span: ``<span>_s`` is its
    wall time, ``<span>_calls`` its call count."""
    layers = {}
    for name in LAYER_UNITS:
        span, _, kind = name.rpartition("_")
        row = span_stats.get(span)
        if row is not None and kind in ("s", "calls"):
            layers[name] = row["wall_s"] if kind == "s" else row["calls"]
    return layers


def _empty_layers() -> dict[str, float]:
    return {name: 0 for name in LAYER_UNITS}


# ---------------------------------------------------------------------------
# reproduce-small
# ---------------------------------------------------------------------------


def reproduce_small(seed: int, trace: bool, work: Path) -> Outcome:
    """One reproduce-small run; the measured work is whole passes of the
    report, so the run length does not apply."""
    _, cpu = cpu_pair()
    out = work / "reproduce.json"
    argv = _python(
        "child_reproduce.py", out, "--seed", seed,
        "--passes", REPRODUCE_PASSES, "--cpu", cpu,
    )
    _run(argv + (["--trace"] if trace else []), work / "reproduce.log")
    data = json.loads(out.read_text())
    passes = data["passes"]

    registry = checks.DigestRegistry(work.parent / "report_digests.json")
    problems, attempted, failed = [], 0, 0
    for number, one in enumerate(passes, 1):
        sections, mismatched = registry.check(seed, one["sections"])
        if mismatched:
            problems.append(f"pass {number}: report sections differ from the expected ones: {mismatched}")
        if seed == checks.DEFAULT_SEED and one["sha256"] != checks.REPORT_SHA256:
            problems.append(f"pass {number}: report sha256 {one['sha256']} != pinned {checks.REPORT_SHA256}")
            mismatched = mismatched or ["report"]
        attempted += sections
        failed += len(mismatched)

    def latency_ms(one: dict, q: float) -> float:
        return loadgen.percentile(one["completion_s"], q) * 1e3

    experiments = len(data["experiments"])
    report_s = statistics.median(one["report_s"] for one in passes)
    e2e = {
        "setup_s": statistics.median(one["setup_s"] for one in passes),
        "report_s": report_s,
        "peak_rss_mb": data["peak_rss_mb"],
        "qps": experiments / report_s,
        "latency_p50_ms": statistics.median(latency_ms(one, 0.50) for one in passes),
        "latency_p99_ms": statistics.median(latency_ms(one, 0.99) for one in passes),
    }
    layers = _empty_layers()
    if trace:
        layers.update(_span_layers(data["spans"]))
        layers["experiments.unaccounted_s"] = data["spans"]["experiments.run_all"]["self_s"]
        layers["traceroute.traces"] = data["traces"]
        cache = data["cache"]
        lookups = cache["hits"] + cache["misses"]
        layers["bgpsim.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0
        layers["bgpsim.cache_misses"] = cache["misses"]
        calls = sum(row["calls"] for row in data["spans"].values())
        traced = passes[-1]  # the pass the spans cover
        layers["trace.setup_s"] = traced["setup_s"]
        layers["trace.report_s"] = traced["report_s"]
        layers["trace.qps"] = experiments / traced["report_s"]
        layers["trace.latency_p50_ms"] = latency_ms(traced, 0.50)
        layers["trace.wrapped_calls"] = calls
        layers["trace.overhead_est_s"] = calls * spans.calibrate_overhead()
    return Outcome(e2e, layers, attempted, failed, problems, data.get("spans", {}))


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve`` process started through ``child_launch.py``."""

    def __init__(self, topology: Path, shards: Path, cpu: int,
                 log: Path, trace_out: Optional[Path]) -> None:
        self.port = _free_port()
        self.trace_out = trace_out
        argv = _python("child_launch.py", "--cpu", cpu)
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", "serve", str(topology), "--port", str(self.port),
                 "--shards", str(shards), "--maxsize", str(MAXSIZE)]
        self._log = open(log, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(), stdout=self._log, stderr=self._log
        )
        self._wait_healthy()
        self.start_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        url = f"http://127.0.0.1:{self.port}/health"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                self.stop()
                raise BenchError(f"repro serve exited {self.proc.returncode} before /health")
            try:
                with urllib.request.urlopen(url, timeout=5) as answer:
                    if answer.status == 200:
                        return
            except OSError:
                time.sleep(0.005)
        self.stop()
        raise BenchError(f"repro serve not healthy within {timeout:.0f}s")

    def get_json(self, path: str) -> dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as answer:
            return json.loads(answer.read())

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set); ``OSError`` once the
        server has exited."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ProcessLookupError(f"server {self.proc.pid} has exited")

    def stop(self) -> dict:
        """Stop the server and wait for it; returns its span dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text())
        return {}


def _corpus_bytes(directory: Path) -> int:
    return sum(
        p.stat().st_size for p in directory.rglob("*")
        if p.is_file() and "leases" not in p.parts
    )


@dataclass
class Phases:
    """The loops of one serve run: the warm-up, then per round a
    closed-loop chunk and an open-loop segment.  ``discarded`` holds the
    rounds that were repeated (see ``_drive``)."""

    warm: loadgen.LoopResult
    closed: list[loadgen.LoopResult]
    opened: list[loadgen.LoopResult]
    discarded: list[loadgen.LoopResult]

    def all(self) -> list[loadgen.LoopResult]:
        return [self.warm, *self.closed, *self.opened, *self.discarded]


def _late_p99_ms(result: loadgen.LoopResult) -> float:
    return loadgen.percentile(result.late, 0.99) * 1e3


def _pooled(results: list[loadgen.LoopResult]) -> loadgen.LoopResult:
    """One result holding the requests of all ``results``."""
    pooled = loadgen.LoopResult([p for r in results for p in r.paths])
    pooled.late = [x for r in results for x in r.late]
    pooled.service = [x for r in results for x in r.service]
    return pooled


def steal_seconds(cpus: tuple[int, ...]) -> dict[int, float]:
    """Time the hypervisor has taken from each of ``cpus`` so far (the
    steal column of ``/proc/stat``; 0 where the kernel reports none)."""
    names = {f"cpu{cpu}": cpu for cpu in cpus}
    stolen = dict.fromkeys(cpus, 0.0)
    tick = 1 / os.sysconf("SC_CLK_TCK")
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] in names and len(fields) > 8:
                    stolen[names[fields[0]]] = int(fields[8]) * tick
    except OSError:
        pass
    return stolen


async def _drive(port: int, plan: ServePlan, paths: list[str], warmup: int,
                 rounds: int, cpus: tuple[int, ...]) -> Phases:
    """Warm up, then run ``rounds`` rounds of a closed-loop chunk and an
    open-loop segment, so every metric is a median over rounds spread
    across the run.

    A round is repeated (up to ``ROUND_ATTEMPTS`` tries, and at most
    ``rounds // 2`` repeats per run) when the generator ran late
    or the hypervisor stole more than ``STEAL_LIMIT`` of a CPU: the
    metrics describe the program, not a stalled client or host.  A round
    keeps its punctual try with the least steal.
    """

    async def connect():
        return loadgen.Connection("127.0.0.1", port)

    def split(items: list[str]) -> list[list[str]]:
        size = len(items) // rounds
        return [items[i * size:(i + 1) * size] for i in range(rounds)]

    closed_size = plan.closed // rounds
    measured = paths[warmup:]
    chunks = split(measured[:closed_size * rounds])
    segments = split(measured[closed_size * rounds:])
    phases = Phases(
        await loadgen.closed_loop(connect, paths[:warmup], CONNECTIONS), [], [], []
    )
    repeats_left = rounds // 2
    for chunk, segment in zip(chunks, segments):
        tries = []  # (generator late, steal share, closed, opened)
        for attempt in range(ROUND_ATTEMPTS):
            if attempt:
                if not repeats_left:
                    break
                repeats_left -= 1
            before, start = steal_seconds(cpus), time.perf_counter()
            closed = await loadgen.closed_loop(connect, chunk, CONNECTIONS)
            opened = await loadgen.open_loop(connect, segment, plan.rate, CONNECTIONS)
            elapsed, after = time.perf_counter() - start, steal_seconds(cpus)
            share = max(after[c] - before[c] for c in cpus) / elapsed
            late = _late_p99_ms(opened) > LATE_P99_LIMIT_MS
            tries.append((late, share, closed, opened))
            if not late and share <= STEAL_LIMIT:
                break
        tries.sort(key=lambda t: t[:2])  # punctual first, then least stolen
        phases.closed.append(tries[0][2])
        phases.opened.append(tries[0][3])
        for _, _, closed, opened in tries[1:]:
            phases.discarded += [closed, opened]
    return phases


def _median_percentile(results: list[loadgen.LoopResult], q: float) -> float:
    """Median over open-loop segments of each segment's ``q``-quantile
    latency, in ms."""
    return statistics.median(loadgen.percentile(r.latency, q) for r in results) * 1e3


def serve_workload(
    name: str,
    seed: int,
    seconds: int,
    trace: bool,
    work: Path,
    plan: Optional[ServePlan] = None,
    corrupt: Optional[Callable[[Path], None]] = None,
) -> Outcome:
    """One run of a serve workload.  ``corrupt`` (tests) is applied to
    the corpus directory after the last precompute."""
    plan = plan or SERVE_PLANS[name]
    client_cpu, server_cpu = cpu_pair()
    os.sched_setaffinity(0, {client_cpu})
    log = work / "serve.log"
    topology = work / "topology.txt"
    _run(_python("child_launch.py", "--cpu", server_cpu, "--", "generate",
                 plan.profile, "-o", topology, "--seed", seed), log)
    n_open = max(1, math.ceil(plan.rate * seconds))
    rounds = max(1, n_open // ROUND)
    n_open -= n_open % rounds
    requests_file = work / "requests.json"
    _run(_python("child_expected.py", topology, requests_file, "--seed", seed,
                 "--requests", plan.closed // rounds * rounds + n_open), log)
    stream = json.loads(requests_file.read_text())
    paths, expected = stream["paths"], stream["expected"]

    setups, starts, precompute_trace, corpus_bytes = [], [], {}, 0
    server = None
    for attempt in range(plan.setups):
        last = attempt == plan.setups - 1
        shards = work / f"shards{attempt}"
        argv = _python("child_launch.py", "--cpu", server_cpu)
        trace_out = work / "precompute-spans.json"
        if trace and last:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", "precompute", str(topology), "-o", str(shards),
                 "--metrics", "--workers", "1", "-q"]
        start = time.perf_counter()
        _run(argv, log)
        precompute_s = time.perf_counter() - start
        if last:
            corpus_bytes = _corpus_bytes(shards)
            if trace:
                precompute_trace = json.loads(trace_out.read_text())
            if corrupt is not None:
                corrupt(shards)
        server = Server(
            topology, shards, server_cpu, log,
            work / "serve-spans.json" if trace and last else None,
        )
        setups.append(precompute_s + server.start_s)
        starts.append(server.start_s)
        if not last:
            server.stop()
            shutil.rmtree(shards)

    try:
        gc.collect()
        gc.disable()
        try:
            phases = asyncio.run(
                _drive(server.port, plan, paths, stream["warmup"], rounds,
                       (client_cpu, server_cpu))
            )
        finally:
            gc.enable()
        try:
            stats = server.get_json("/stats")
            peak_rss_mb = server.peak_rss_mb()
        except (OSError, ValueError) as exc:  # the server died
            stats, peak_rss_mb, lost = None, 0.0, exc
    finally:
        serve_trace = server.stop()

    problems, attempted, failed = [], 0, 0
    for result in phases.all():
        for path, status, body in zip(result.paths, result.status, result.bodies):
            attempted += 1
            if status != 200 or not checks.body_matches(body, expected[path]):
                failed += 1
    if failed:
        problems.append(f"{failed} of {attempted} answers were missing or differ from the live kernels")
    if stats is None:
        attempted += 1  # the /stats request
        failed += 1
        problems.append(f"/stats and the server's peak RSS could not be read: {lost}")
    invalid = []
    late_p99_ms = _late_p99_ms(_pooled(phases.opened))
    if late_p99_ms > LATE_P99_LIMIT_MS:
        invalid.append(
            f"the load generator ran {late_p99_ms:.1f} ms late (p99), "
            f"limit {LATE_P99_LIMIT_MS} ms"
        )
    chunk_s = statistics.median(r.elapsed for r in phases.closed)
    e2e = {
        "setup_s": statistics.median(setups),
        "report_s": chunk_s,
        "peak_rss_mb": peak_rss_mb,
        "qps": len(phases.closed[0].paths) / chunk_s,
        "latency_p50_ms": _median_percentile(phases.opened, 0.50),
        "latency_p99_ms": _median_percentile(phases.opened, 0.99),
    }
    layers = _empty_layers()
    span_stats = {**precompute_trace.get("spans", {}), **serve_trace.get("spans", {})}
    if trace:
        layers.update(_serve_layers(stats, phases.opened, span_stats))
        layers["loadgen.repeated_rounds"] = len(phases.discarded) // 2
        layers["shards.bytes_written"] = corpus_bytes
        layers["serve.start_s"] = starts[-1]
        layers["trace.setup_s"] = setups[-1]
        layers["trace.report_s"] = e2e["report_s"]
        layers["trace.qps"] = e2e["qps"]
        layers["trace.latency_p50_ms"] = e2e["latency_p50_ms"]
    return Outcome(e2e, layers, attempted, failed, problems, span_stats, invalid)


def _serve_layers(stats: Optional[dict], opened: list[loadgen.LoopResult],
                  span_stats: dict) -> dict[str, float]:
    layers = _span_layers(span_stats)
    calls = sum(row["calls"] for row in span_stats.values())
    layers["trace.wrapped_calls"] = calls
    layers["trace.overhead_est_s"] = calls * spans.calibrate_overhead()
    layers["loadgen.late_p99_ms"] = _late_p99_ms(_pooled(opened))
    if stats is not None:
        layers.update(_stats_layers(stats, opened))
    return layers


def _stats_layers(stats: dict, opened: list[loadgen.LoopResult]) -> dict[str, float]:
    """The per-layer metrics read from the server's ``/stats``."""
    layers = {}
    tiers = stats["tiers"]
    for tier in ("lru", "metric", "disk", "computed"):
        layers[f"serve.tier_{tier}"] = tiers[tier]
    metric_lookups = stats["metric_hits"] + stats["metric_misses"]
    layers["serve.metric_hit_ratio"] = (
        stats["metric_hits"] / metric_lookups if metric_lookups else 0
    )
    lookups = stats["hits"] + stats["misses"]
    layers["bgpsim.cache_hit_ratio"] = stats["hits"] / lookups if lookups else 0
    layers["bgpsim.cache_misses"] = stats["misses"]
    layers["serve.evictions"] = stats["evictions"]
    layers["serve.prefetch_chunks"] = stats["prefetch_chunks"]

    client: dict[str, list[float]] = {}
    pooled = _pooled(opened)
    for path, service in zip(pooled.paths, pooled.service):
        client.setdefault(path.split("?")[0], []).append(service)
    weighted, count = 0.0, 0
    for endpoint in ENDPOINTS:
        histogram = stats["latency"].get(f"/{endpoint}")
        if not histogram or not histogram["count"]:
            continue
        layers[f"serve.{endpoint}.server_p50_ms"] = histogram["p50_us"] / 1e3
        layers[f"serve.{endpoint}.server_p99_ms"] = histogram["p99_us"] / 1e3
        seen = client.get(f"/{endpoint}", [])
        if seen:
            overhead = statistics.fmean(seen) * 1e3 - histogram["mean_us"] / 1e3
            weighted += overhead * len(seen)
            count += len(seen)
    layers["http.overhead_mean_ms"] = weighted / count if count else 0
    return layers
