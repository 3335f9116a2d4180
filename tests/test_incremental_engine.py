"""Differential harness: incremental delta-propagation ≡ full recompute.

The incremental engine (``repro.bgpsim.incremental``) derives each
combined ``(origin, leak)`` state from a shared single-seed baseline,
re-propagating only the region the leak disturbs.  It is only safe to
use for the paper's leak sweeps if every outcome it produces is
*identical* to the full two-seed recompute.  This module proves it at
three levels:

* **state level** — :func:`propagate_delta` against the two-seed
  :func:`propagate_compiled` on seeded synthetic-Internet scenarios
  (random lock sets, exclusions, hijack and re-announce initial
  lengths, restricted ``export_to`` origin seeds);
* **outcome level** — ``simulate_leaks`` / ``resilience_curve`` /
  ``average_resilience_curve`` / ``lock_coverage_sweep`` with
  ``engine="incremental"`` against ``engine="compiled"`` across every
  ``LEAK_CONFIGURATIONS`` × :class:`LeakMode` ×
  :class:`PeerLockSemantics` combination;
* **property level** — the delta pass's override set covers every AS
  whose combined route differs from the baseline, and the visited
  count bounds it from above (the pass never reports a region smaller
  than what actually changed).

The fallback guards (peer-locked leakers, retracting configurations)
are exercised explicitly, as is the shared-baseline cache.
"""

from __future__ import annotations

import random

import pytest

from .conftest import (
    assert_states_equal,
    build_mini,
    netgen_graph,
    sample_origins,
)
from repro.bgpsim import (
    CompiledRoutingState,
    DeltaRoutingState,
    ENGINES,
    LeakMode,
    RoutingStateCache,
    Seed,
    hierarchy_only_seed,
    propagate,
    propagate_compiled,
    propagate_delta,
    resolve_engine,
)
from repro.core.leaks import (
    LEAK_CONFIGURATIONS,
    PeerLockSemantics,
    resilience_curve,
    average_resilience_curve,
    lock_coverage_sweep,
    simulate_leak,
    simulate_leaks,
)
from repro.topology.tiers import infer_tiers


#: (profile, scenario seed) — ≥3 seeds × 2 sizes, per the acceptance bar.
SCENARIOS = [
    ("tiny", 20200901),
    ("tiny", 7),
    ("tiny", 8),
    ("small", 20200901),
    ("small", 7),
    ("small", 8),
]


def _delta_or_none(graph, baseline, leak, **kwargs):
    """Run the delta pass, returning ``None`` where a guard fires."""
    try:
        return propagate_delta(graph, baseline, leak, **kwargs)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# state-level differential
# ---------------------------------------------------------------------------

class TestStateDifferential:
    @pytest.mark.parametrize("profile,seed", SCENARIOS)
    def test_delta_matches_full_recompute(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed * 13 + 5)
        checked = 0
        for trial in range(30):
            origin, leaker = rng.sample(nodes, 2)
            lockset = [
                frozenset(),
                frozenset(rng.sample(nodes, 12)),
                frozenset(rng.sample(nodes, len(nodes) // 3)),
            ][trial % 3]
            locks = lockset - {origin, leaker}
            legit = Seed(asn=origin, key="origin")
            baseline = propagate_compiled(
                graph, (legit,), peer_locked=locks, locked_origin=origin
            )
            legit_length = baseline.path_length(leaker)
            if trial % 2 and legit_length is not None:
                initial = legit_length  # re-announce
            else:
                initial = 0  # hijack
            leak = Seed(asn=leaker, key="leak", initial_length=initial)
            delta = _delta_or_none(
                graph, baseline, leak, peer_locked=locks, locked_origin=origin
            )
            if delta is None:
                continue
            full = propagate_compiled(
                graph, (legit, leak), peer_locked=locks, locked_origin=origin
            )
            context = (
                f"({profile}, seed={seed}, trial={trial}, "
                f"{origin}->{leaker}, init={initial}, locks={len(locks)})"
            )
            assert_states_equal(full, delta, context)
            checked += 1
        assert checked >= 15, "too few scenarios survived the guards"

    @pytest.mark.parametrize("profile,seed", [("tiny", 11), ("small", 13)])
    def test_delta_with_exclusions_and_arbitrary_lengths(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed * 7 + 3)
        checked = 0
        for trial in range(40):
            origin, leaker = rng.sample(nodes, 2)
            locks = frozenset(rng.sample(nodes, 8)) - {origin, leaker}
            excluded = frozenset(
                a for a in rng.sample(nodes, 5) if a not in (origin, leaker)
            )
            legit = Seed(asn=origin, key="origin")
            kwargs = dict(
                excluded=excluded, peer_locked=locks, locked_origin=origin
            )
            baseline = propagate_compiled(graph, (legit,), **kwargs)
            leak = Seed(
                asn=leaker, key="leak", initial_length=rng.randint(0, 5)
            )
            delta = _delta_or_none(graph, baseline, leak, **kwargs)
            if delta is None:
                continue
            full = propagate_compiled(graph, (legit, leak), **kwargs)
            assert_states_equal(
                full, delta, f"(excl {profile}, seed={seed}, trial={trial})"
            )
            checked += 1
        assert checked >= 10

    def test_delta_with_hierarchy_only_origin(self):
        graph, tiers = build_mini()
        legit = hierarchy_only_seed(graph, 100, tiers)
        baseline = propagate_compiled(graph, (legit,))
        for leaker in (201, 202, 203, 204, 301, 11, 12):
            legit_length = baseline.path_length(leaker)
            lengths = [0] + ([legit_length] if legit_length is not None else [])
            for initial in lengths:
                leak = Seed(asn=leaker, key="leak", initial_length=initial)
                delta = _delta_or_none(graph, baseline, leak)
                if delta is None:
                    continue
                full = propagate_compiled(graph, (legit, leak))
                assert_states_equal(
                    full, delta, f"(mini, leaker={leaker}, init={initial})"
                )

    def test_fast_paths_agree_without_materialization(self):
        graph = netgen_graph("tiny", seed=7)
        nodes = sorted(graph.nodes())
        rng = random.Random(99)
        origin, leaker = rng.sample(nodes, 2)
        legit = Seed(asn=origin, key="origin")
        baseline = propagate_compiled(graph, (legit,))
        leak = Seed(asn=leaker, key="leak", initial_length=0)
        delta = propagate_delta(graph, baseline, leak)
        full = propagate_compiled(graph, (legit, leak))
        assert isinstance(delta, DeltaRoutingState)
        assert delta.reachable_ases() == full.reachable_ases()
        for key in ("origin", "leak"):
            expected = frozenset(
                asn for asn, route in full.routes.items()
                if key in route.origins
            )
            assert delta.ases_with_origin(key) == expected
        for asn in nodes:
            assert delta.has_route(asn) == full.has_route(asn)
            assert delta.path_length(asn) == full.path_length(asn)
            assert delta.origins_at(asn) == full.origins_at(asn)


# ---------------------------------------------------------------------------
# property: the delta pass covers everything that changed
# ---------------------------------------------------------------------------

class TestVisitedCoversChanges:
    @pytest.mark.parametrize("profile,seed", [("tiny", 20200901), ("small", 8)])
    def test_overrides_superset_of_changed_routes(self, profile, seed):
        graph = netgen_graph(profile, seed=seed)
        nodes = sorted(graph.nodes())
        rng = random.Random(seed + 41)
        checked = 0
        for trial in range(20):
            origin, leaker = rng.sample(nodes, 2)
            legit = Seed(asn=origin, key="origin")
            baseline = propagate_compiled(graph, (legit,))
            initial = 0 if trial % 2 else (baseline.path_length(leaker) or 0)
            leak = Seed(asn=leaker, key="leak", initial_length=initial)
            delta = _delta_or_none(graph, baseline, leak)
            if delta is None:
                continue
            full = propagate_compiled(graph, (legit, leak))
            changed = {
                asn
                for asn, route in full.routes.items()
                if baseline.routes.get(asn) is None
                or baseline.routes[asn].route_class != route.route_class
                or baseline.routes[asn].length != route.length
                or baseline.routes[asn].parents != route.parents
            }
            changed |= set(baseline.routes) - set(full.routes)
            asns = delta._baseline._asns
            overridden = {asns[i] for i in delta._overrides}
            assert changed <= overridden, (
                f"delta missed changed ASes {sorted(changed - overridden)[:5]} "
                f"({profile}, seed={seed}, trial={trial})"
            )
            stats = delta.delta_stats()
            assert stats["visited"] >= stats["route_changed"]
            assert stats["visited"] == delta.visited_count
            assert stats["total_ases"] == len(graph)
            checked += 1
        assert checked >= 10

    def test_visited_fraction_below_one_on_localized_leak(self):
        # a stub leaking its own provider route disturbs a small region;
        # the instrumentation must reflect that, not the whole graph
        graph = netgen_graph("small", seed=20200901)
        origins = sample_origins(graph, 12, seed=3)
        baseline_origin = origins[0]
        legit = Seed(asn=baseline_origin, key="origin")
        baseline = propagate_compiled(graph, (legit,))
        fractions = []
        for leaker in origins[1:]:
            legit_length = baseline.path_length(leaker)
            if legit_length is None:
                continue
            leak = Seed(asn=leaker, key="leak", initial_length=legit_length)
            delta = _delta_or_none(graph, baseline, leak)
            if delta is None:
                continue
            fractions.append(delta.visited_count / len(graph))
        assert fractions, "no re-announce leakers survived"
        assert min(fractions) < 0.8


# ---------------------------------------------------------------------------
# guard rails: configurations the delta pass must refuse
# ---------------------------------------------------------------------------

class TestGuards:
    def setup_method(self):
        self.graph = netgen_graph("tiny", seed=20200901)
        self.nodes = sorted(self.graph.nodes())
        self.origin = self.nodes[0]
        self.leaker = self.nodes[-1]
        self.legit = Seed(asn=self.origin, key="origin")
        self.baseline = propagate_compiled(self.graph, (self.legit,))

    def test_rejects_multi_seed_baseline(self):
        other = Seed(asn=self.nodes[1], key="other")
        multi = propagate_compiled(self.graph, (self.legit, other))
        with pytest.raises(ValueError, match="single-seed"):
            propagate_delta(
                self.graph, multi, Seed(asn=self.leaker, key="leak")
            )

    def test_rejects_foreign_graph_baseline(self):
        # the guard keys on the compiled ASN universe, so a graph over a
        # different node set (the mini fixture) must be refused
        other_graph, _ = build_mini()
        with pytest.raises(ValueError, match="different graph"):
            propagate_delta(
                other_graph,
                self.baseline,
                Seed(asn=sorted(other_graph.nodes())[-1], key="leak"),
            )

    def test_rejects_unknown_and_duplicate_leaker(self):
        with pytest.raises(KeyError, match="not in graph"):
            propagate_delta(
                self.graph, self.baseline, Seed(asn=999999, key="leak")
            )
        with pytest.raises(ValueError, match="duplicate seed"):
            propagate_delta(
                self.graph, self.baseline, Seed(asn=self.origin, key="leak")
            )

    def test_rejects_excluded_leaker(self):
        with pytest.raises(ValueError, match="is excluded"):
            propagate_delta(
                self.graph,
                self.baseline,
                Seed(asn=self.leaker, key="leak"),
                excluded={self.leaker},
            )

    def test_rejects_peer_locked_leaker(self):
        with pytest.raises(ValueError, match="peer-locked"):
            propagate_delta(
                self.graph,
                self.baseline,
                Seed(asn=self.leaker, key="leak"),
                peer_locked={self.leaker},
                locked_origin=self.origin,
            )

    def test_rejects_export_restriction_on_routed_leaker(self):
        routed = next(
            asn
            for asn in self.nodes
            if asn != self.origin and self.baseline.has_route(asn)
        )
        restricted = Seed(
            asn=routed,
            key="leak",
            export_to=frozenset(list(self.graph.neighbors(routed))[:1]),
        )
        with pytest.raises(ValueError, match="export_to"):
            propagate_delta(self.graph, self.baseline, restricted)

    def test_rejects_longer_seed_on_customer_routed_leaker(self):
        # seed from a stub so its provider chain holds customer routes
        stub_origin = self.nodes[-1]
        baseline = propagate_compiled(
            self.graph, (Seed(asn=stub_origin, key="origin"),)
        )
        customer_routed = next(
            asn
            for asn, route in sorted(baseline.routes.items())
            if asn != stub_origin and route.route_class.name == "CUSTOMER"
        )
        length = baseline.path_length(customer_routed)
        longer = Seed(
            asn=customer_routed, key="leak", initial_length=length + 3
        )
        with pytest.raises(ValueError, match="longer"):
            propagate_delta(self.graph, baseline, longer)


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

class TestEngineDispatch:
    def test_incremental_is_a_known_engine(self):
        assert "incremental" in ENGINES
        assert resolve_engine("incremental") == "incremental"

    def test_env_override_selects_incremental(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "incremental")
        assert resolve_engine(None) == "incremental"

    def test_plain_propagation_is_the_compiled_kernel(self, mini_graph):
        compiled = propagate(mini_graph, Seed(asn=100), engine="compiled")
        incremental = propagate(mini_graph, Seed(asn=100), engine="incremental")
        assert isinstance(incremental, CompiledRoutingState)
        assert_states_equal(compiled, incremental, "(engine dispatch)")


# ---------------------------------------------------------------------------
# outcome-level differential: the sweep consumers
# ---------------------------------------------------------------------------

class TestSweepEquivalence:
    @pytest.mark.parametrize("profile,seed", [("tiny", 20200901), ("tiny", 7), ("tiny", 8)])
    @pytest.mark.parametrize("mode", list(LeakMode))
    @pytest.mark.parametrize("semantics", list(PeerLockSemantics))
    def test_resilience_curves_identical(self, profile, seed, mode, semantics):
        graph = netgen_graph(profile, seed=seed)
        tiers = infer_tiers(graph, tier2_count=5, min_tier1_adjacency=1)
        origin = sample_origins(graph, 1, seed=seed)[0]
        leakers = sample_origins(graph, 8, seed=seed + 1)
        for configuration in LEAK_CONFIGURATIONS:
            full = resilience_curve(
                graph, origin, tiers, configuration, leakers,
                mode=mode, semantics=semantics, engine="compiled",
            )
            incremental = resilience_curve(
                graph, origin, tiers, configuration, leakers,
                mode=mode, semantics=semantics, engine="incremental",
            )
            assert incremental == full, (
                f"{configuration} diverged ({profile}, seed={seed}, "
                f"{mode}, {semantics})"
            )

    def test_simulate_leaks_outcomes_identical(self):
        graph = netgen_graph("small", seed=20200901)
        origin = sample_origins(graph, 1, seed=5)[0]
        leakers = [a for a in sample_origins(graph, 10, seed=6) if a != origin]
        full = simulate_leaks(graph, origin, leakers, engine="compiled")
        incremental = simulate_leaks(graph, origin, leakers, engine="incremental")
        # LeakOutcome equality ignores visited_fraction by design
        assert incremental == full
        assert any(
            outcome is not None and outcome.visited_fraction is not None
            for outcome in incremental
        )
        assert all(
            outcome is None or outcome.visited_fraction is None
            for outcome in full
        )

    def test_locked_leaker_falls_back_to_full_simulation(self):
        graph = netgen_graph("tiny", seed=20200901)
        origin = sample_origins(graph, 1, seed=4)[0]
        leakers = [a for a in sample_origins(graph, 6, seed=9) if a != origin]
        locked = frozenset(leakers[:2])
        full = simulate_leaks(
            graph, origin, leakers, peer_locked=locked, engine="compiled"
        )
        incremental = simulate_leaks(
            graph, origin, leakers, peer_locked=locked, engine="incremental"
        )
        assert incremental == full
        # the locked leakers took the fallback: no visited instrumentation
        by_leaker = {
            outcome.leaker: outcome
            for outcome in incremental
            if outcome is not None
        }
        for leaker in locked:
            if leaker in by_leaker:
                assert by_leaker[leaker].visited_fraction is None

    def test_single_leak_parity_across_modes(self):
        graph = netgen_graph("tiny", seed=8)
        origin = sample_origins(graph, 1, seed=1)[0]
        leaker = next(
            a for a in sample_origins(graph, 5, seed=11) if a != origin
        )
        for mode in LeakMode:
            full = simulate_leak(
                graph, origin, leaker, mode=mode, engine="compiled"
            )
            incremental = simulate_leak(
                graph, origin, leaker, mode=mode, engine="incremental"
            )
            assert incremental == full, mode

    def test_average_resilience_curve_identical(self):
        graph = netgen_graph("tiny", seed=7)
        full = average_resilience_curve(
            graph, random.Random(42), origins=4, leakers_per_origin=4,
            engine="compiled",
        )
        incremental = average_resilience_curve(
            graph, random.Random(42), origins=4, leakers_per_origin=4,
            engine="incremental",
        )
        assert incremental == full

    def test_lock_coverage_sweep_identical(self):
        graph = netgen_graph("tiny", seed=20200901)
        origin = sample_origins(graph, 1, seed=7)[0]
        leakers = sample_origins(graph, 8, seed=8)
        full = lock_coverage_sweep(
            graph, origin, leakers, coverages=(0.0, 0.5, 1.0),
            rng=random.Random(17), engine="compiled",
        )
        incremental = lock_coverage_sweep(
            graph, origin, leakers, coverages=(0.0, 0.5, 1.0),
            rng=random.Random(17), engine="incremental",
        )
        assert incremental == full


# ---------------------------------------------------------------------------
# the shared-baseline cache
# ---------------------------------------------------------------------------

class TestBaselineCache:
    def test_baseline_for_plain_origin_delegates_to_state_for(self):
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=0)[0]
        cache = RoutingStateCache(graph)
        warmed = cache.state_for(origin)
        baseline = cache.baseline_for(Seed(asn=origin))
        assert baseline is warmed
        assert cache.stats().misses == 1
        assert cache.stats().hits == 1

    def test_baseline_for_memoizes_locked_configurations(self):
        graph = netgen_graph("tiny", seed=7)
        nodes = sorted(graph.nodes())
        origin = nodes[0]
        locks = frozenset(nodes[1:4])
        cache = RoutingStateCache(graph)
        seed = Seed(asn=origin, key="origin")
        first = cache.baseline_for(seed, locks, origin)
        second = cache.baseline_for(seed, locks, origin)
        assert second is first
        assert cache.stats() .hits == 1
        # a different lock set is a different baseline
        other = cache.baseline_for(seed, frozenset(nodes[1:2]), origin)
        assert other is not first
        assert cache.stats().misses == 2

    def test_sweep_reuses_cached_baseline(self):
        graph = netgen_graph("tiny", seed=8)
        origin = sample_origins(graph, 1, seed=0)[0]
        leakers = [a for a in sample_origins(graph, 6, seed=1) if a != origin]
        cache = RoutingStateCache(graph, engine="incremental")
        first = simulate_leaks(
            graph, origin, leakers, engine="incremental", cache=cache
        )
        assert cache.stats().misses == 1
        second = simulate_leaks(
            graph, origin, leakers, engine="incremental", cache=cache
        )
        assert cache.stats().misses == 1
        assert cache.stats().hits >= 1
        assert second == first

    def test_reference_engine_cache_is_recompiled_not_crashed(self):
        # a cache built on the reference engine cannot supply compiled
        # baseline arrays; the sweep must recompute instead of failing
        graph = netgen_graph("tiny", seed=7)
        origin = sample_origins(graph, 1, seed=0)[0]
        leakers = [a for a in sample_origins(graph, 4, seed=1) if a != origin]
        cache = RoutingStateCache(graph, engine="reference")
        incremental = simulate_leaks(
            graph, origin, leakers, engine="incremental", cache=cache
        )
        full = simulate_leaks(graph, origin, leakers, engine="compiled")
        assert incremental == full
