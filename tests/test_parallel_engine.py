"""Differential harness: parallel propagation ≡ serial propagation.

The parallel sweep in ``repro.bgpsim.parallel`` is only safe to use if it
is *bit-for-bit* equivalent to the serial engine.  This module proves it
on randomized synthetic-Internet scenarios across several seeds and two
sizes, checks the valley-free invariant on every emitted path, exercises
multi-seed / excluded / peer-locked configurations, and asserts that
states computed by the pool serve the experiment-level consumers exactly
like states computed in-process.  Worker-failure behaviour (original
exception surfaces, pool shuts down cleanly) is covered at the end.

Set ``REPRO_TEST_WORKERS`` to change the parallel worker count (CI runs
the harness at 2).
"""

from __future__ import annotations

import os
import random

import pytest

from .conftest import (
    assert_states_equal,
    assert_valley_free,
    build_mini,
    netgen_graph,
    random_internet,
)
from repro.bgpsim import (
    RoutingStateCache,
    Seed,
    graph_map,
    propagate,
    propagate_many,
    propagate_origins,
    resolve_workers,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


def sample_origins(graph, count: int, seed: int = 0) -> list[int]:
    nodes = sorted(graph.nodes())
    if len(nodes) <= count:
        return nodes
    return sorted(random.Random(seed).sample(nodes, count))


class TestResolveWorkers:
    def test_serial_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_auto_uses_cpus(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(-1) == resolve_workers("auto")


class TestDifferentialNetgen:
    """Serial vs parallel on seeded synthetic-Internet scenarios."""

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS)
    def test_states_identical(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 40, seed=seed)
        serial = list(propagate_many(graph, origins, workers=1))
        parallel = list(propagate_many(graph, origins, workers=WORKERS))
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(
                s, p, f"({profile_name}, seed={seed}, origin={origin})"
            )

    @pytest.mark.parametrize("profile_name,seed", SCENARIOS[:3])
    def test_emitted_paths_valley_free(self, profile_name, seed):
        graph = netgen_graph(profile_name, seed=seed)
        origins = sample_origins(graph, 10, seed=seed + 1)
        for origin, state in propagate_origins(
            graph, origins, workers=WORKERS
        ):
            receivers = sample_origins(graph, 15, seed=origin)
            for receiver in receivers:
                if not state.has_route(receiver):
                    continue
                for path in state.enumerate_best_paths(receiver, limit=50):
                    assert path[-1] == origin
                    assert_valley_free(graph, path)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_internet_identical(self, seed):
        rng = random.Random(seed)
        graph = random_internet(rng, n_tier1=4, n_transit=8, n_edge=40)
        origins = sorted(graph.nodes())
        serial = list(propagate_many(graph, origins, workers=1))
        parallel = list(propagate_many(graph, origins, workers=WORKERS))
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(s, p, f"(random seed={seed}, origin={origin})")


class TestDifferentialConfigurations:
    """Excluded sets, peer locking and multi-seed leak tasks."""

    def test_excluded_and_locked(self):
        graph = netgen_graph("tiny", seed=7)
        nodes = sorted(graph.nodes())
        rng = random.Random(42)
        excluded = frozenset(rng.sample(nodes, 8))
        origins = [n for n in nodes if n not in excluded][:25]
        locked = frozenset(rng.sample(origins, 3))
        serial = list(
            propagate_many(
                graph, origins, workers=1,
                excluded=excluded, peer_locked=locked,
            )
        )
        parallel = list(
            propagate_many(
                graph, origins, workers=WORKERS,
                excluded=excluded, peer_locked=locked,
            )
        )
        for origin, s, p in zip(origins, serial, parallel):
            assert_states_equal(s, p, f"(excluded/locked, origin={origin})")

    def test_multi_seed_leak_tasks(self):
        graph = netgen_graph("tiny", seed=8)
        nodes = sorted(graph.nodes())
        rng = random.Random(5)
        tasks = []
        for _ in range(12):
            origin, leaker = rng.sample(nodes, 2)
            tasks.append(
                (
                    Seed(asn=origin, key="origin"),
                    Seed(asn=leaker, key="leak", initial_length=2),
                )
            )
        serial = list(propagate_many(graph, tasks, workers=1))
        parallel = list(propagate_many(graph, tasks, workers=WORKERS))
        for task, s, p in zip(tasks, serial, parallel):
            assert_states_equal(s, p, f"(leak task {task[0].asn}/{task[1].asn})")

    def test_ordered_iterator(self):
        graph, _ = build_mini()
        origins = sorted(graph.nodes(), reverse=True)
        for origin, state in propagate_origins(
            graph, origins, workers=WORKERS
        ):
            assert state.seed_asns == {origin}


class TestConsumersIdentical:
    """Pool-computed states feed the consumers like in-process ones."""

    def test_average_resilience_curve(self, mini_graph):
        from repro.core import average_resilience_curve

        serial = average_resilience_curve(
            mini_graph, random.Random(23), origins=5, leakers_per_origin=4,
            engine="incremental",
        )
        warm = RoutingStateCache(mini_graph, engine="incremental")
        warm.prefetch(sorted(mini_graph.nodes()), workers=WORKERS)
        pooled = average_resilience_curve(
            mini_graph, random.Random(23), origins=5, leakers_per_origin=4,
            engine="incremental", cache=warm,
        )
        assert serial == pooled

    def test_reliance_sweep(self, mini):
        from repro.core import hierarchy_free_reliance_sweep, reliance_from_state

        graph, tiers = mini
        origins = [100, 201, 301]
        pooled = [
            reliance_from_state(state)
            for origin in origins
            for state in propagate_many(
                graph,
                [Seed(asn=origin, key="origin")],
                workers=WORKERS,
                excluded=(graph.providers(origin) | tiers.hierarchy) - {origin},
            )
        ]
        assert hierarchy_free_reliance_sweep(graph, origins, tiers) == pooled

    def test_collector_dump(self):
        from repro.collectors import collect_ribs, dumps_mrt
        from repro.netgen import build_scenario, profile

        scenario = build_scenario(profile("tiny", seed=7))
        serial = collect_ribs(
            scenario.graph, scenario.monitors, scenario.prefixes,
            rng=random.Random(3),
        )
        warm = RoutingStateCache(scenario.graph)
        warm.prefetch(sorted(scenario.prefixes), workers=WORKERS)
        pooled = collect_ribs(
            scenario.graph, scenario.monitors, scenario.prefixes,
            rng=random.Random(3), cache=warm,
        )
        assert dumps_mrt(serial) == dumps_mrt(pooled)

    def test_traceroute_campaign(self):
        from repro.netgen import build_scenario, profile
        from repro.traceroute import TracerouteCampaign

        scenario = build_scenario(profile("tiny", seed=7))
        serial = TracerouteCampaign(scenario, seed=5).run_all()
        pooled = TracerouteCampaign(scenario, seed=5)
        pooled._states.prefetch(sorted(scenario.graph), workers=WORKERS)
        assert serial == pooled.run_all()

    def test_cache_prefetch_matches_serial_compute(self):
        graph = netgen_graph("tiny", seed=9)
        origins = sample_origins(graph, 20, seed=1)
        warm = RoutingStateCache(graph)
        warm.prefetch(origins, workers=WORKERS)
        cold = RoutingStateCache(graph)
        for origin in origins:
            assert_states_equal(
                cold.state_for(origin),
                warm.state_for(origin),
                f"(prefetch origin={origin})",
            )


def _explode(graph, item):
    raise RuntimeError(f"worker exploded on {item}")


class TestWorkerFailure:
    def test_propagate_error_surfaces(self, mini_graph):
        missing = 987654
        with pytest.raises(KeyError, match=str(missing)):
            list(
                propagate_many(
                    mini_graph, [1, missing, 2], workers=WORKERS
                )
            )

    def test_custom_task_error_surfaces(self, mini_graph):
        with pytest.raises(RuntimeError, match="worker exploded on 2"):
            list(graph_map(mini_graph, _explode, [2], workers=WORKERS))

    def test_serial_path_raises_identically(self, mini_graph):
        with pytest.raises(KeyError):
            list(propagate_many(mini_graph, [987654], workers=1))
        with pytest.raises(RuntimeError, match="worker exploded"):
            list(graph_map(mini_graph, _explode, [2], workers=1))

    def test_pool_usable_after_failure(self, mini_graph):
        with pytest.raises(KeyError):
            list(propagate_many(mini_graph, [987654], workers=WORKERS))
        states = list(propagate_many(mini_graph, [1, 2], workers=WORKERS))
        assert len(states) == 2
        for state, origin in zip(states, (1, 2)):
            assert state.seed_asns == {origin}

    def test_results_before_failure_are_delivered(self, mini_graph):
        # chunksize=1 so the good task and the failing task are separate
        # work items; the iterator yields the first result, then raises.
        iterator = propagate_many(
            mini_graph, [1, 987654], workers=WORKERS, chunksize=1
        )
        first = next(iterator)
        assert first.seed_asns == {1}
        with pytest.raises(KeyError):
            list(iterator)
