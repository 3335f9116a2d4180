"""Route-leak resilience simulation (§8, with the erratum's semantics).

A misconfigured AS leaks the origin's prefix (re-announcing its learned
route to every neighbor); the leaked and legitimate routes then compete at
every AS under Gao-Rexford preference and AS-path length.  An AS is
*detoured* if **any** of its tied-best routes leads to the leaker (worst
case; no tie-breaking).  Peer locking is modeled per the erratum: a
peer-locking AS discards routes for the origin's prefix arriving from
anyone but the origin itself, so leaked routes can never propagate through
it — not merely never be announced to it.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..bgpsim.cache import RoutingStateCache
from ..bgpsim.compiled import CompiledRoutingState
from ..bgpsim.engine import propagate, resolve_engine, resolve_stream
from ..bgpsim.incremental import propagate_delta
from ..bgpsim.policies import LeakMode, hierarchy_only_seed, peer_lock_set
from ..bgpsim.routes import RoutingState, Seed
from ..topology.asgraph import ASGraph
from ..topology.tiers import TierAssignment


class PeerLockSemantics(enum.Enum):
    """Erratum semantics (leak can never traverse a locking AS) vs the
    original paper's buggy semantics (leak only filtered when announced
    directly to a locking AS) — kept as an ablation."""

    ERRATUM = "erratum"
    ORIGINAL = "original"


@dataclass(frozen=True)
class LeakOutcome:
    """Result of one leak simulation."""

    origin: int
    leaker: int
    detoured: frozenset[int]
    total_ases: int
    #: fraction of ASes the incremental delta pass examined (``None`` for
    #: a full recompute); instrumentation only, excluded from equality so
    #: differential tests can compare outcomes across engines directly
    visited_fraction: Optional[float] = field(default=None, compare=False)

    @property
    def eligible(self) -> int:
        """ASes that could be detoured (everyone but origin and leaker)."""
        return max(self.total_ases - 2, 1)

    @property
    def fraction_detoured(self) -> float:
        return len(self.detoured) / self.eligible

    def fraction_users_detoured(self, users: Mapping[int, int]) -> float:
        """Fraction of users in detoured ASes (Fig. 9's weighting)."""
        total = sum(
            count
            for asn, count in users.items()
            if asn not in (self.origin, self.leaker)
        )
        if total == 0:
            return 0.0
        detoured_users = sum(users.get(asn, 0) for asn in self.detoured)
        return detoured_users / total


def simulate_leak(
    graph: ASGraph,
    origin: int | Seed,
    leaker: int,
    peer_locked: Collection[int] = frozenset(),
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    engine: Optional[str] = None,
) -> Optional[LeakOutcome]:
    """Simulate ``leaker`` leaking ``origin``'s prefix.

    ``origin`` may be a :class:`Seed` to carry an announcement restriction
    (the "announce to Tier-1, Tier-2, and providers" configuration).
    Returns ``None`` when the leaker holds no route to the origin under the
    given configuration (there is nothing to re-announce); a hijack-mode
    leaker never needs a route.  ``engine`` selects the propagation
    engine (see :func:`repro.bgpsim.engine.propagate`).
    """
    legit = origin if isinstance(origin, Seed) else Seed(asn=origin, key="origin")
    if leaker == legit.asn or leaker not in graph:
        raise ValueError(f"invalid leaker AS{leaker}")

    peer_locked = frozenset(peer_locked) - {legit.asn, leaker}

    if mode is LeakMode.SUBPREFIX:
        # a more-specific prefix wins everywhere it propagates; only the
        # filtering (peer locking) limits it, so the legitimate route is
        # irrelevant and the leak is simulated alone
        if semantics is PeerLockSemantics.ORIGINAL and peer_locked:
            export_to = frozenset(graph.neighbors(leaker) - peer_locked)
            seed = Seed(asn=leaker, key="leak", initial_length=0,
                        export_to=export_to)
            state = propagate(graph, seed, engine=engine)
        else:
            seed = Seed(asn=leaker, key="leak", initial_length=0)
            state = propagate(
                graph, seed,
                peer_locked=peer_locked, locked_origin=legit.asn,
                engine=engine,
            )
        detoured = state.reachable_ases() - {legit.asn}
        return LeakOutcome(
            origin=legit.asn,
            leaker=leaker,
            detoured=frozenset(detoured),
            total_ases=len(graph),
        )

    baseline = propagate(graph, legit, peer_locked=peer_locked,
                         locked_origin=legit.asn, engine=engine)
    if mode is LeakMode.HIJACK:
        initial = 0
    else:
        legit_length = baseline.path_length(leaker)
        if legit_length is None:
            return None
        initial = legit_length

    if semantics is PeerLockSemantics.ORIGINAL and peer_locked:
        # Original (pre-erratum) behaviour: the leak is only filtered on
        # direct announcement to a locking AS; emulate by removing locking
        # ASes from the leaker's export set and disabling path filtering.
        export_to = frozenset(graph.neighbors(leaker) - peer_locked)
        leak = Seed(asn=leaker, key="leak", initial_length=initial,
                    export_to=export_to)
        state = propagate(graph, (legit, leak), engine=engine)
    else:
        leak = Seed(asn=leaker, key="leak", initial_length=initial)
        state = propagate(
            graph,
            (legit, leak),
            peer_locked=peer_locked,
            locked_origin=legit.asn,
            engine=engine,
        )

    # the array-backed states answer this without materializing routes
    detoured = state.ases_with_origin("leak") - state.seed_asns
    return LeakOutcome(
        origin=legit.asn,
        leaker=leaker,
        detoured=detoured,
        total_ases=len(graph),
    )


def _delta_outcome(
    graph: ASGraph,
    baseline: RoutingState,
    legit: Seed,
    leaker: int,
    peer_locked: frozenset[int],
    mode: LeakMode,
) -> Optional[LeakOutcome]:
    """Combined-state outcome derived from a shared baseline, or ``None``
    when the leaker has nothing to re-announce.  Raises ``ValueError``
    for configurations the delta pass cannot serve (callers fall back)."""
    if mode is LeakMode.HIJACK:
        initial = 0
    else:
        legit_length = baseline.path_length(leaker)
        if legit_length is None:
            return None
        initial = legit_length
    leak = Seed(asn=leaker, key="leak", initial_length=initial)
    state = propagate_delta(
        graph,
        baseline,
        leak,
        peer_locked=peer_locked,
        locked_origin=legit.asn,
    )
    detoured = state.ases_with_origin("leak") - state.seed_asns
    return LeakOutcome(
        origin=legit.asn,
        leaker=leaker,
        detoured=detoured,
        total_ases=len(graph),
        visited_fraction=state.visited_count / max(len(graph), 1),
    )


def _incremental_leak(
    graph: ASGraph,
    baseline: RoutingState,
    legit: Seed,
    leaker: int,
    peer_locked: frozenset[int],
    mode: LeakMode,
    semantics: PeerLockSemantics,
    engine: Optional[str],
) -> Optional[LeakOutcome]:
    """One leaker against a shared precomputed baseline.

    Leakers the delta pass cannot serve — peer-locked leakers (whose
    baseline uses a different lock set) chiefly — fall back to the full
    two-propagation :func:`simulate_leak`, so the sweep's results never
    depend on which path each leaker took.
    """
    if leaker == legit.asn or leaker not in graph:
        raise ValueError(f"invalid leaker AS{leaker}")
    if leaker not in peer_locked:
        try:
            return _delta_outcome(
                graph, baseline, legit, leaker, peer_locked, mode
            )
        except ValueError:
            pass
    return simulate_leak(
        graph, legit, leaker, peer_locked=peer_locked, mode=mode,
        semantics=semantics, engine=engine,
    )


def simulate_leaks(
    graph: ASGraph,
    origin: int | Seed,
    leakers: Sequence[int],
    peer_locked: Collection[int] = frozenset(),
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    engine: Optional[str] = None,
    cache: Optional[RoutingStateCache] = None,
) -> list[Optional[LeakOutcome]]:
    """:func:`simulate_leak` for every leaker.

    Returns one entry per leaker, in order (``None`` where the leaker holds
    no route).

    With ``engine="incremental"`` the whole sweep shares one baseline
    propagation for its ``(origin, locks, mode, semantics)`` group — taken
    from ``cache`` when given, computed once otherwise — and each leaker
    runs only the frontier-limited delta pass of
    :func:`repro.bgpsim.incremental.propagate_delta`.  Subprefix leaks,
    the pre-erratum ``ORIGINAL`` semantics and peer-locked leakers fall
    back to the full recompute transparently.
    """
    legit = origin if isinstance(origin, Seed) else Seed(asn=origin, key="origin")
    peer_locked = frozenset(peer_locked)
    baseline: Optional[RoutingState] = None
    if (
        resolve_engine(engine) == "incremental"
        and mode is not LeakMode.SUBPREFIX
        and semantics is PeerLockSemantics.ERRATUM
    ):
        locks = peer_locked - {legit.asn}
        if cache is not None:
            baseline = cache.baseline_for(legit, locks, legit.asn)
        if baseline is None or not isinstance(baseline, CompiledRoutingState):
            # the delta pass needs the baseline's compact arrays; a cache
            # running the reference engine cannot supply them
            baseline = propagate(
                graph, legit, peer_locked=locks,
                locked_origin=legit.asn, engine=engine,
            )
        return [
            _incremental_leak(
                graph, baseline, legit, leaker, peer_locked, mode,
                semantics, engine,
            )
            for leaker in leakers
        ]
    return [
        simulate_leak(
            graph, legit, leaker, peer_locked=peer_locked, mode=mode,
            semantics=semantics, engine=engine,
        )
        for leaker in leakers
    ]


def _pair_delta_leak(
    graph: ASGraph,
    baseline: Optional[RoutingState],
    origin: int,
    leaker: int,
    mode: LeakMode,
    engine: Optional[str],
) -> Optional[LeakOutcome]:
    """One (origin, leaker) pair against the origin's precomputed baseline."""
    if isinstance(baseline, CompiledRoutingState):
        legit = Seed(asn=origin, key="origin")
        try:
            return _delta_outcome(
                graph, baseline, legit, leaker, frozenset(), mode
            )
        except ValueError:
            pass
    return simulate_leak(graph, origin, leaker, mode=mode, engine=engine)


#: The five announcement/locking configurations plotted in Figs. 7-9.
LEAK_CONFIGURATIONS = (
    "announce_all",
    "announce_all_t1_lock",
    "announce_all_t1t2_lock",
    "announce_all_global_lock",
    "announce_hierarchy_only",
)


def configuration_seed_and_locks(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    configuration: str,
) -> tuple[Seed, frozenset[int]]:
    """Map a Fig. 7/8 configuration name to (origin seed, peer-lock set)."""
    if configuration == "announce_all":
        return Seed(asn=origin, key="origin"), frozenset()
    if configuration == "announce_all_t1_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "tier1"
        )
    if configuration == "announce_all_t1t2_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "tier1+tier2"
        )
    if configuration == "announce_all_global_lock":
        return Seed(asn=origin, key="origin"), peer_lock_set(
            graph, origin, tiers, "all"
        )
    if configuration == "announce_hierarchy_only":
        return hierarchy_only_seed(graph, origin, tiers), frozenset()
    raise ValueError(f"unknown leak configuration: {configuration!r}")


def resilience_curve(
    graph: ASGraph,
    origin: int,
    tiers: TierAssignment,
    configuration: str,
    leakers: Sequence[int],
    mode: LeakMode = LeakMode.REANNOUNCE,
    semantics: PeerLockSemantics = PeerLockSemantics.ERRATUM,
    engine: Optional[str] = None,
    cache: Optional[RoutingStateCache] = None,
) -> list[float]:
    """Detoured-AS fractions over ``leakers`` for one configuration.

    Leakers with no route to the origin under the configuration are skipped
    (they cannot re-announce anything).  Each call is one baseline group:
    with ``engine="incremental"`` the configuration's ``(seed, locks)``
    baseline is propagated once (memoized in ``cache`` when given) and
    every leaker reuses it through the delta pass.
    """
    seed, locks = configuration_seed_and_locks(graph, origin, tiers, configuration)
    outcomes = simulate_leaks(
        graph,
        seed,
        [leaker for leaker in leakers if leaker != origin],
        peer_locked=locks,
        mode=mode,
        semantics=semantics,
        engine=engine,
        cache=cache,
    )
    return sorted(
        outcome.fraction_detoured
        for outcome in outcomes
        if outcome is not None
    )


def average_resilience_curve(
    graph: ASGraph,
    rng: random.Random,
    origins: int = 50,
    leakers_per_origin: int = 50,
    mode: LeakMode = LeakMode.REANNOUNCE,
    engine: Optional[str] = None,
    cache: Optional[RoutingStateCache] = None,
    batch: Optional[int] = None,
    stream: bool | str | None = None,
) -> list[float]:
    """The paper's *average resilience* baseline: random legitimate origins
    against random misconfigured ASes, announce-to-all, no locking.

    The (origin, leaker) pairs are drawn up front — in exactly the order the
    historical serial loop drew them, so the RNG stream is unchanged — and
    then simulated.

    With ``engine="incremental"`` each distinct origin's baseline is
    propagated exactly once (per ``batch`` in bit-parallel multi-origin
    sweeps, through a :class:`~repro.bgpsim.cache.RoutingStateCache`
    prefetch) and every pair runs against its origin's baseline, so the
    historical ``origins × leakers`` full propagations collapse to
    ``origins`` baselines plus one delta pass per pair.

    ``stream`` (``REPRO_STREAM``; auto-on at paper scale) bounds the
    baseline footprint: instead of prefetching and holding *every*
    distinct origin's baseline for the whole sweep, origins are consumed
    in batch-width windows — one
    :meth:`~repro.bgpsim.cache.RoutingStateCache.states_for_many`
    streaming window of baselines lives at a time, its pairs run their
    delta passes, and the window is dropped before the next is computed.
    The curve is bit-identical (it is sorted, so per-window reordering
    of pairs cannot change it).
    """
    nodes = sorted(graph.nodes())
    pairs: list[tuple[int, int]] = []
    for _ in range(origins):
        origin = rng.choice(nodes)
        for _ in range(leakers_per_origin):
            leaker = rng.choice(nodes)
            if leaker != origin:
                pairs.append((origin, leaker))
    if (
        resolve_engine(engine) == "incremental"
        and mode is not LeakMode.SUBPREFIX
    ):
        unique_origins = list(dict.fromkeys(origin for origin, _ in pairs))
        if resolve_stream(stream, len(graph)):
            if cache is None:
                cache = RoutingStateCache(graph, engine=engine, batch=batch)
            width = cache._batch_width(batch, cap=False)
            by_origin: dict[int, list[tuple[int, int]]] = {}
            for pair in pairs:
                by_origin.setdefault(pair[0], []).append(pair)
            fractions: list[float] = []
            for i in range(0, len(unique_origins), width):
                window = unique_origins[i : i + width]
                baselines = dict(
                    cache.states_for_many(window, batch=batch, stream=True)
                )
                for origin in window:
                    for _, leaker in by_origin[origin]:
                        outcome = _pair_delta_leak(
                            graph, baselines.get(origin), origin, leaker,
                            mode, engine,
                        )
                        if outcome is not None:
                            fractions.append(outcome.fraction_detoured)
                # drop this window's baselines before the next window
                baselines.clear()
            return sorted(fractions)
        if cache is None or (
            cache.maxsize is not None and cache.maxsize < len(unique_origins)
        ):
            cache = RoutingStateCache(graph, engine=engine)
        cache.prefetch(unique_origins, batch=batch)
        baselines = {
            origin: cache.state_for(origin) for origin in unique_origins
        }
        outcomes = (
            _pair_delta_leak(
                graph, baselines.get(origin), origin, leaker, mode, engine
            )
            for origin, leaker in pairs
        )
    else:
        outcomes = (
            simulate_leak(graph, origin, leaker, mode=mode, engine=engine)
            for origin, leaker in pairs
        )
    return sorted(
        outcome.fraction_detoured
        for outcome in outcomes
        if outcome is not None
    )


def lock_coverage_sweep(
    graph: ASGraph,
    origin: int,
    leakers: Sequence[int],
    coverages: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    rng: Optional[random.Random] = None,
    mode: LeakMode = LeakMode.REANNOUNCE,
    engine: Optional[str] = None,
    cache: Optional[RoutingStateCache] = None,
) -> dict[float, float]:
    """Mean detoured fraction vs. peer-lock deployment coverage.

    An ablation beyond the paper's three fixed deployment scenarios: for
    each coverage level, a random ``coverage`` fraction of the origin's
    neighbors deploys peer locking (biggest neighbors first would be the
    T1/T2 scenarios; random deployment is the pessimistic counterpart),
    and the same leakers are replayed.  Each coverage level is one
    :func:`simulate_leaks` sweep, so the ``engine`` and ``cache`` knobs
    (shared baseline per lock set under ``engine="incremental"``) both
    apply.
    """
    rng = rng or random.Random(0)
    neighbors = sorted(graph.neighbors(origin))
    eligible = [leaker for leaker in leakers if leaker != origin]
    results: dict[float, float] = {}
    for coverage in coverages:
        count = round(coverage * len(neighbors))
        locked = frozenset(rng.sample(neighbors, k=count)) if count else frozenset()
        outcomes = simulate_leaks(
            graph, origin, eligible, peer_locked=locked, mode=mode,
            engine=engine, cache=cache,
        )
        fractions = [
            outcome.fraction_detoured
            for outcome in outcomes
            if outcome is not None
        ]
        results[coverage] = (
            sum(fractions) / len(fractions) if fractions else 0.0
        )
    return results


def cdf_points(fractions: Sequence[float]) -> list[tuple[float, float]]:
    """(x, F(x)) pairs for plotting a CDF of detoured fractions."""
    ordered = sorted(fractions)
    n = len(ordered)
    return [(x, (i + 1) / n) for i, x in enumerate(ordered)]


def fraction_at_most(fractions: Sequence[float], threshold: float) -> float:
    """Share of simulations with detoured fraction <= threshold."""
    if not fractions:
        return 0.0
    return sum(1 for x in fractions if x <= threshold) / len(fractions)
