"""Differential event-conformance harness: event deltas ≡ full recompute.

The dynamic-topology engine (``repro.bgpsim.events``) derives each
post-event routing state from a cached baseline instead of recomputing
the mutated graph from scratch.  It is only safe to use if every outcome
is *identical* to the full recompute, so this module proves, for every
event type (``LinkDown``, ``LinkUp``, ``Depeer``, ``ASFailure``,
``ASRecover``, ``Hijack``, ``RouteLeak``) on 3 netgen seeds × 2 sizes:

* **state level** — the delta state equals ``propagate_compiled`` on the
  mutated graph (full tied-best equivalence class: route class, length,
  parent sets, origins);
* **metric level** — the PR-4 metric kernels produce bit-identical
  floats on the delta state and on the full recompute;
* **regression level** — hand-computed minimal graphs where a
  ``LinkDown`` severing a provider must withdraw exactly the
  customer-cone routes that transited it (and re-converge the survivors
  through peers), including both sides of the fallback-threshold
  boundary;
* **timeline level** — ``ScenarioRunner`` emits identical metric rows on
  every engine and worker count, and drops cached baselines on every
  topology-mutating event (``baseline_invalidations``).

Hijacks are checked against an *independent* reference — a test-side
merge of two full propagations — rather than the engine's own merge.
Set ``REPRO_TEST_WORKERS`` to change the parallel worker count (CI runs
the harness at 2).
"""

from __future__ import annotations

import os
import random

import pytest

from .conftest import (
    assert_states_equal,
    build_mini,
    netgen_graph,
    sample_origins,
)
from repro.bgpsim import (
    ASFailure,
    ASRecover,
    Depeer,
    Hijack,
    LinkDown,
    LinkUp,
    RouteLeak,
    RoutingStateCache,
    Seed,
    cross_fractions_kernel,
    full_event_outcome,
    length_histogram_kernel,
    propagate_compiled,
    propagate_delta_event,
    reliance_kernel,
    routed_count_kernel,
)
from repro.experiments.timeline import ScenarioRunner, parse_events
from repro.topology import ASGraph

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


def _check_topology_event(graph, origins, event, context):
    """Apply ``event``; assert delta ≡ full recompute for every origin.

    ``threshold=1.0`` forces the frontier-limited pass (no silent
    fallbacks); the graph is left in its post-event form.  Returns the
    outcomes so callers can inspect instrumentation.
    """
    baselines = {
        origin: propagate_compiled(graph, Seed(asn=origin))
        for origin in origins
    }
    applied = event.apply(graph)
    outcomes = {}
    for origin, baseline in baselines.items():
        out = propagate_delta_event(graph, baseline, applied, threshold=1.0)
        assert not out.fallback, f"unexpected fallback: {out.reason}"
        full = propagate_compiled(graph, baseline.seeds)
        assert_states_equal(
            out.state, full, f"{context}, {event.describe()}, AS{origin}"
        )
        outcomes[origin] = (out, full)
    return applied, outcomes


def _assert_metrics_identical(state_a, state_b, targets, context):
    """The metric kernels must produce bit-identical floats (``==`` on
    dicts, no tolerance) on the delta state and the full recompute."""
    assert routed_count_kernel(state_a) == routed_count_kernel(state_b)
    assert reliance_kernel(state_a) == reliance_kernel(state_b), context
    assert length_histogram_kernel(state_a) == length_histogram_kernel(
        state_b
    ), context
    for target in targets:
        assert cross_fractions_kernel(state_a, target) == (
            cross_fractions_kernel(state_b, target)
        ), f"{context}, target AS{target}"


# ---------------------------------------------------------------------------
# per-event-type differential, netgen scenarios
# ---------------------------------------------------------------------------

class TestEventDifferential:
    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_linkdown(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 1)
        origins = sample_origins(graph, 3, seed=seed)
        for trial in range(6):
            edges = sorted(
                (a, b)
                for a in graph.nodes()
                for b in graph.customers(a) | graph.peers(a)
                if a < b or b in graph.customers(a)
            )
            a, b = edges[rng.randrange(len(edges))]
            applied, _ = _check_topology_event(
                graph, origins, LinkDown(a, b), f"{profile}/{seed} t{trial}"
            )
            applied.inverse.apply(graph)  # restore for the next trial

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_linkup(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 2)
        nodes = sorted(graph.nodes())
        origins = sample_origins(graph, 3, seed=seed)
        added = 0
        while added < 6:
            a, b = rng.sample(nodes, 2)
            if graph.relationship_between(a, b) is not None:
                continue
            rel = "p2p" if added % 2 else "p2c"
            applied, _ = _check_topology_event(
                graph,
                origins,
                LinkUp(a, b, relationship=rel),
                f"{profile}/{seed} add{added}",
            )
            applied.inverse.apply(graph)
            added += 1

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_depeer(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 3)
        peerings = sorted(
            (a, b) for a in graph.nodes() for b in graph.peers(a) if a < b
        )
        origins = sample_origins(graph, 3, seed=seed)
        for trial in range(4):
            a, b = peerings[rng.randrange(len(peerings))]
            applied, _ = _check_topology_event(
                graph, origins, Depeer(a, b), f"{profile}/{seed} t{trial}"
            )
            applied.inverse.apply(graph)

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_asfailure_and_recover(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 4)
        # fail high-degree transit nodes (the hard case) and random ones
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        origins = sample_origins(graph, 3, seed=seed)
        picks = by_degree[1:3] + rng.sample(sorted(graph.nodes()), 2)
        for victim in picks:
            if victim in origins:
                continue
            applied, _ = _check_topology_event(
                graph, origins, ASFailure(victim), f"{profile}/{seed}"
            )
            recover = applied.inverse
            assert isinstance(recover, ASRecover)
            # the recovery (pure addition of every incident edge) must
            # also hold differentially, and restore the graph
            _check_topology_event(
                graph, origins, recover, f"{profile}/{seed} recover"
            )

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_hijack_vs_independent_merge(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 5)
        nodes = sorted(graph.nodes())
        for trial in range(4):
            origin, hijacker = rng.sample(nodes, 2)
            baseline = propagate_compiled(graph, Seed(asn=origin))
            applied = Hijack(hijacker).apply(graph)
            out = propagate_delta_event(graph, baseline, applied)
            # independent reference: merge two full propagations
            hstate = propagate_compiled(
                graph, Seed(asn=hijacker, key="hijack")
            )
            stolen = frozenset(hstate.routes) - {origin}
            merged = out.state
            assert merged.ases_with_origin("hijack") == stolen
            for asn in set(baseline.routes) | set(hstate.routes):
                expect = (
                    hstate.routes[asn]
                    if asn in stolen
                    else baseline.routes.get(asn)
                )
                got = merged.routes.get(asn)
                if expect is None:
                    assert got is None, f"AS{asn} routed unexpectedly"
                    continue
                assert got is not None, f"AS{asn} lost its route"
                assert (
                    got.route_class == expect.route_class
                    and got.length == expect.length
                    and got.parents == expect.parents
                ), f"{profile}/{seed} t{trial}, AS{asn}"

    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_routeleak(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 6)
        nodes = sorted(graph.nodes())
        for trial in range(4):
            origin, leaker = rng.sample(nodes, 2)
            baseline = propagate_compiled(graph, Seed(asn=origin))
            length = baseline.path_length(leaker)
            event = RouteLeak(leaker) if length is not None else RouteLeak(
                leaker, initial_length=0
            )
            applied = event.apply(graph)
            out = propagate_delta_event(graph, baseline, applied)
            full = full_event_outcome(graph, baseline, applied)
            assert_states_equal(
                out.state, full.state, f"{profile}/{seed} t{trial}"
            )

    @pytest.mark.parametrize("profile,seed", SCENARIOS[:3])
    def test_metric_kernels_bit_identical(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        rng = random.Random(seed * 17 + 7)
        nodes = sorted(graph.nodes())
        [origin] = sample_origins(graph, 1, seed=seed)
        targets = rng.sample(nodes, 3)
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        events = [
            LinkDown(by_degree[0], sorted(graph.customers(by_degree[0]))[0]),
            ASFailure(by_degree[2]),
            Hijack(nodes[5] if nodes[5] != origin else nodes[6]),
            RouteLeak(nodes[9] if nodes[9] != origin else nodes[10], 0),
        ]
        for event in events:
            baseline = propagate_compiled(graph, Seed(asn=origin))
            applied = event.apply(graph)
            out = propagate_delta_event(graph, baseline, applied, threshold=1.0)
            full = full_event_outcome(graph, baseline, applied)
            _assert_metrics_identical(
                out.state,
                full.state,
                targets,
                f"{profile}/{seed}, {event.describe()}",
            )
            if applied.inverse is not None:
                applied.inverse.apply(graph)


# ---------------------------------------------------------------------------
# retraction regression: exact expected route sets on hand graphs
# ---------------------------------------------------------------------------

def _routes_of(state):
    """{asn: (route_class int, length, parent set)} minus the seeds."""
    return {
        asn: (int(r.route_class), r.length, set(r.parents))
        for asn, r in state.routes.items()
        if asn not in state.seed_asns
    }


class TestRetractionRegression:
    def test_severed_sole_provider_withdraws_everything(self):
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=301))
        assert len(baseline.routes) == 10  # everyone routed
        applied = LinkDown(12, 301).apply(graph)
        out = propagate_delta_event(graph, baseline, applied, threshold=1.0)
        assert not out.fallback
        assert _routes_of(out.state) == {}  # total withdrawal
        assert routed_count_kernel(out.state) == 0

    def test_severed_transit_withdraws_exactly_the_cone_that_used_it(self):
        # CLOUD (AS100) buys transit from AS11 only; severing 11—100 must
        # withdraw exactly the routes that transited AS11 (AS11 itself,
        # its provider AS1, and AS1's customer AS203) while every
        # peer-learned route survives untouched.
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=100))
        applied = LinkDown(11, 100).apply(graph)
        out = propagate_delta_event(graph, baseline, applied, threshold=1.0)
        assert not out.fallback
        assert _routes_of(out.state) == {
            2: (1, 1, {100}),
            12: (1, 1, {100}),
            201: (1, 1, {100}),
            202: (1, 1, {100}),
            301: (2, 2, {12}),
            204: (2, 2, {201}),
        }

    def test_withdrawal_reconverges_through_peer_detour(self):
        # chain 1→2→3→4 with an alternate provider 5→3 and peering 1—5:
        # severing 2—3 rolls AS1 onto a peer route through AS5 and AS2
        # onto a provider route through AS1 — withdrawal plus exact
        # re-convergence, not just deletion.
        graph = ASGraph()
        graph.add_p2c(1, 2)
        graph.add_p2c(2, 3)
        graph.add_p2c(3, 4)
        graph.add_p2c(5, 3)
        graph.add_p2p(1, 5)
        baseline = propagate_compiled(graph, Seed(asn=4))
        assert _routes_of(baseline) == {
            3: (0, 1, {4}),
            2: (0, 2, {3}),
            5: (0, 2, {3}),
            1: (0, 3, {2}),
        }
        applied = LinkDown(2, 3).apply(graph)
        out = propagate_delta_event(graph, baseline, applied, threshold=1.0)
        assert not out.fallback
        assert _routes_of(out.state) == {
            3: (0, 1, {4}),
            5: (0, 2, {3}),
            1: (1, 3, {5}),
            2: (2, 4, {1}),
        }

    def test_fallback_threshold_boundary(self):
        # severing 11—100 withdraws exactly 3 of the mini graph's 10
        # nodes: threshold 0.3 (3 > 3 is false) stays on the delta path,
        # anything lower falls back — and both produce the same state.
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=100))
        applied = LinkDown(11, 100).apply(graph)
        kept = propagate_delta_event(graph, baseline, applied, threshold=0.3)
        assert not kept.fallback and kept.changed is not None
        dropped = propagate_delta_event(
            graph, baseline, applied, threshold=0.29
        )
        assert dropped.fallback and dropped.changed is None
        assert "exceeds threshold" in dropped.reason
        assert_states_equal(kept.state, dropped.state, "threshold boundary")

    def test_env_threshold_is_honored(self, monkeypatch):
        graph, _ = build_mini()
        baseline = propagate_compiled(graph, Seed(asn=100))
        applied = LinkDown(11, 100).apply(graph)
        monkeypatch.setenv("REPRO_EVENT_THRESHOLD", "0.0")
        out = propagate_delta_event(graph, baseline, applied)
        assert out.fallback


# ---------------------------------------------------------------------------
# timeline runner: engine/worker equivalence + cache invalidation
# ---------------------------------------------------------------------------

def _mini_timeline():
    return parse_events(
        "down:11-100,hijack:301,up:11-100:p2c,leak:201,fail:12,depeer:100-2"
    )


class TestScenarioRunner:
    def test_rows_identical_across_engines(self):
        results = {}
        for engine in ("compiled", "incremental", "reference"):
            graph, _ = build_mini()
            runner = ScenarioRunner(
                graph,
                origins=[100, 301],
                targets=[11, 12],
                engine=engine,
                threshold=1.0,
            )
            results[engine] = runner.run(_mini_timeline())
        compiled = results["compiled"]
        for other in ("incremental", "reference"):
            for a, b in zip(compiled.records, results[other].records):
                assert (a.step, a.origin, a.event) == (b.step, b.origin, b.event)
                assert a.reachable == b.reachable, (other, a, b)
                assert a.captured == b.captured, (other, a, b)
                assert a.reliance == b.reliance, (other, a, b)
                assert a.hegemony == b.hegemony, (other, a, b)

    def test_rows_identical_across_workers(self):
        # baselines warmed by the pool replay like in-process ones
        results = {}
        for workers in (None, WORKERS):
            graph, _ = build_mini()
            cache = RoutingStateCache(graph, engine="compiled")
            cache.prefetch([100, 301], workers=workers)
            runner = ScenarioRunner(
                graph,
                origins=[100, 301],
                targets=[11, 12],
                cache=cache,
                engine="incremental",
                threshold=1.0,
            )
            results[workers] = runner.run(_mini_timeline())
        assert results[None] == results[WORKERS]

    @pytest.mark.parametrize("engine", ("compiled", "incremental"))
    def test_topology_events_invalidate_baselines(self, engine):
        graph, _ = build_mini()
        runner = ScenarioRunner(
            graph, origins=[100], engine=engine, threshold=1.0
        )
        runner.run(_mini_timeline())
        stats = runner.cache.stats()
        # 4 of the 6 timeline events mutate topology
        assert stats.baseline_invalidations == 4

    def test_seed_events_leave_cache_alone(self):
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100], engine="incremental")
        before_state = runner.cache.state_for(100)
        runner.run(parse_events("hijack:301,leak:201"))
        assert runner.cache.stats().baseline_invalidations == 0
        assert runner.cache.state_for(100) is before_state

    @pytest.mark.parametrize("engine", ("compiled", "incremental"))
    def test_installed_baselines_are_fresh(self, engine):
        # after a topology event the cache must serve post-event states:
        # identical to a from-scratch propagation on the mutated graph
        graph, _ = build_mini()
        runner = ScenarioRunner(
            graph, origins=[100, 301], engine=engine, threshold=1.0
        )
        runner.run(parse_events("down:11-100"))
        for origin in (100, 301):
            cached = runner.cache.state_for(origin)
            fresh = propagate_compiled(graph, Seed(asn=origin))
            assert_states_equal(cached, fresh, f"post-event cache AS{origin}")

    def test_stale_cache_would_differ(self):
        # the hazard the invalidation hook exists for: a pre-event state
        # served after the mutation is actually wrong
        graph, _ = build_mini()
        cache = RoutingStateCache(graph, engine="compiled")
        stale = cache.state_for(100)
        LinkDown(11, 100).apply(graph)
        fresh = propagate_compiled(graph, Seed(asn=100))
        assert stale.routes.keys() != fresh.routes.keys()

    def test_chained_deltas_stay_conformant(self):
        # each event's delta state becomes the next event's baseline;
        # after the whole timeline the incremental cache still matches a
        # from-scratch recompute of the final topology
        graph, _ = build_mini()
        runner = ScenarioRunner(
            graph, origins=[100], engine="incremental", threshold=1.0
        )
        runner.run(_mini_timeline())
        cached = runner.cache.state_for(100)
        fresh = propagate_compiled(graph, Seed(asn=100))
        assert_states_equal(cached, fresh, "chained timeline")

    def test_self_events_are_noops(self):
        graph, _ = build_mini()
        runner = ScenarioRunner(graph, origins=[100], engine="incremental")
        result = runner.run(parse_events("hijack:100,leak:100"))
        base = result.record(0, 100)
        for step in (1, 2):
            record = result.record(step, 100)
            assert record.reachable == base.reachable
            assert record.captured == 0

    def test_parse_events_rejects_malformed(self):
        with pytest.raises(ValueError, match="unknown or malformed"):
            parse_events("explode:1-2")
        with pytest.raises(ValueError, match="bad event token"):
            parse_events("down:1")
        with pytest.raises(ValueError, match="no events"):
            parse_events(" , ")

    @pytest.mark.parametrize("profile,seed", [("tiny", 20200901)])
    def test_netgen_timeline_engine_equivalence(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        origins = sample_origins(graph, 3, seed=seed)
        by_degree = sorted(
            graph.nodes(), key=lambda a: -len(graph.customers(a))
        )
        hub = by_degree[0]
        victim = sorted(graph.customers(by_degree[1]))[0]
        spec = (
            f"down:{hub}-{sorted(graph.customers(hub))[0]},"
            f"fail:{victim},hijack:{by_degree[3]},leak:{by_degree[4]}"
        )
        rows = {}
        for engine in ("compiled", "incremental"):
            g = netgen_graph(profile, seed=seed)
            runner = ScenarioRunner(
                g,
                origins,
                targets=by_degree[:2],
                engine=engine,
                threshold=1.0,
            )
            rows[engine] = runner.run(parse_events(spec))
        for a, b in zip(
            rows["compiled"].records, rows["incremental"].records
        ):
            assert a.reachable == b.reachable, (a, b)
            assert a.captured == b.captured, (a, b)
            assert a.reliance == b.reliance, (a, b)
            assert a.hegemony == b.hegemony, (a, b)
