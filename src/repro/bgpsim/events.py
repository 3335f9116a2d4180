"""Event-driven dynamic-topology deltas over cached compiled baselines.

The incremental leak engine (:mod:`repro.bgpsim.incremental`) handles one
kind of disturbance — an extra seed whose delta only ever adds or shortens
routes.  This module generalizes the idea to an *event algebra* over the
topology itself:

* :class:`LinkDown` / :class:`Depeer` / :class:`ASFailure` — edge removal,
  the hard new case: routes that transited the removed edges must be
  *withdrawn* and the affected subtrees re-converged;
* :class:`LinkUp` / :class:`ASRecover` — edge addition, a pure-improvement
  delta handled with the leak engine's machinery (improvement waves plus
  the dirty-region provider recompute);
* :class:`Hijack` — a more-specific origin steal: no topology change, the
  hijacker's announcement wins wherever it reaches;
* :class:`RouteLeak` — the existing leak, delegated to
  :func:`~repro.bgpsim.incremental.propagate_delta`.

Each event's :meth:`~Event.apply` mutates an ``ASGraph`` in place and
returns an :class:`AppliedEvent` carrying the exact edge delta plus the
*inverse* event, so timelines can be replayed and reverted (the
property-based tests in ``tests/test_timeline_properties.py`` rely on
apply ∘ revert being the identity on both the graph and its compiled
cache).

:func:`propagate_delta_event` then maps the edge delta onto a cached
single-seed :class:`~repro.bgpsim.compiled.CompiledRoutingState`
baseline, frontier-limited over the CSR arrays:

* **removal** — a withdrawal-closure pass finds every node whose tied-best
  parents are all gone (lazily cascading over the baseline best-route
  DAG), re-solves exactly that region with the three Gao-Rexford phases
  restricted to it, lets provider-class *length improvements* escape the
  region through a Dijkstra wave (a node falling from a long customer
  route to a short peer route shortens its downstream provider paths —
  the one way removal can shorten anything), and finally recomputes the
  parent sets of every touched node exactly from its neighbors' settled
  routes.  When the withdrawal region exceeds a threshold fraction of
  the graph (``REPRO_EVENT_THRESHOLD``, default 0.5) the pass falls back
  to a full recompute — correct either way, just no longer incremental.
* **addition** — initial offers from the new edges feed the leak engine's
  improvement phases (class-0 BFS, one-hop peer scan, dirty-region
  provider Dijkstra); under pure addition routes never worsen except in
  the class-improved-with-longer-path case the dirty region re-solves.
* **seed events** — hijacks merge an independent hijacker propagation
  over the baseline (the more-specific wins wherever it reaches); leaks
  reuse ``propagate_delta`` and inherit its fallback guards.

The result is a fresh :class:`CompiledRoutingState` (baseline arrays
copied, overrides applied), so event outcomes chain as the next event's
baseline, pickle compactly, and feed the metric kernels unchanged.
Every path is proven state-equivalent to a full recompute on the mutated
graph by the differential harness in ``tests/test_event_engine.py``.
"""

from __future__ import annotations

import heapq
import os
from array import array
from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Optional

from .compiled import (
    _NO_ROUTE,
    _shrink,
    _signed_typecode,
    _unsigned_typecode,
    CompiledGraph,
    CompiledRoutingState,
    propagate_compiled,
)
from .incremental import propagate_delta
from .routes import RoutingState, Seed

__all__ = [
    "AppliedEvent",
    "ASFailure",
    "ASRecover",
    "Depeer",
    "Event",
    "EventOutcome",
    "Hijack",
    "LinkDown",
    "LinkUp",
    "RouteLeak",
    "full_event_outcome",
    "propagate_delta_event",
    "resolve_event_threshold",
]

#: environment knob: max withdrawal-region fraction before falling back
THRESHOLD_ENV = "REPRO_EVENT_THRESHOLD"
DEFAULT_THRESHOLD = 0.5


def resolve_event_threshold(threshold: Optional[float] = None) -> float:
    """The effective fallback threshold: argument, else environment, else
    :data:`DEFAULT_THRESHOLD`.  A fraction in [0, 1] of the graph's nodes;
    1.0 disables the fallback entirely."""
    if threshold is None:
        raw = os.environ.get(THRESHOLD_ENV)
        threshold = DEFAULT_THRESHOLD if raw is None else float(raw)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"event threshold must be in [0, 1], got {threshold}")
    return threshold


# ---------------------------------------------------------------------------
# the event algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppliedEvent:
    """Record of one event applied to a graph.

    ``removed`` holds the undirected AS pairs the event deleted,
    ``added`` the ``(a, b, relationship)`` triples it created (``a`` is
    the provider for ``"p2c"``).  ``inverse`` is the event that undoes
    this one (``None`` for seed events, which change no topology).
    """

    event: "Event"
    inverse: Optional["Event"]
    removed: tuple[tuple[int, int], ...] = ()
    added: tuple[tuple[int, int, str], ...] = ()

    @property
    def mutates_topology(self) -> bool:
        return bool(self.removed or self.added)


@dataclass(frozen=True)
class Event:
    """Base class of the typed event algebra; use the concrete events."""

    #: whether applying the event changes the topology (seed events don't)
    mutates_topology = True

    def apply(self, graph) -> AppliedEvent:
        raise NotImplementedError

    def describe(self) -> str:
        return repr(self)


@dataclass(frozen=True)
class LinkDown(Event):
    """Failure of the (transit or peering) link between two ASes."""

    a: int
    b: int

    def apply(self, graph) -> AppliedEvent:
        rel = graph.relationship_between(self.a, self.b)
        if rel is None:
            raise KeyError(f"no edge between AS{self.a} and AS{self.b}")
        from ..topology.relationships import Relationship

        if rel is Relationship.PEER_PEER:
            inverse: Event = LinkUp(self.a, self.b, "p2p")
        elif self.b in graph.customers(self.a):
            inverse = LinkUp(self.a, self.b, "p2c")
        else:
            inverse = LinkUp(self.b, self.a, "p2c")
        graph.remove_edge(self.a, self.b)
        return AppliedEvent(self, inverse, removed=((self.a, self.b),))

    def describe(self) -> str:
        return f"link-down AS{self.a}—AS{self.b}"


@dataclass(frozen=True)
class LinkUp(Event):
    """A new link; for ``"p2c"`` the first AS is the provider.

    Both endpoints must already exist in the graph (so the inverse
    :class:`LinkDown` restores the exact previous topology).
    """

    a: int
    b: int
    relationship: str = "p2p"

    def __post_init__(self) -> None:
        if self.relationship not in ("p2c", "p2p"):
            raise ValueError(f"unknown relationship {self.relationship!r}")

    def apply(self, graph) -> AppliedEvent:
        if self.a not in graph or self.b not in graph:
            raise KeyError(
                f"AS{self.a} or AS{self.b} not in graph; add_as() new "
                "ASes before raising links to them"
            )
        if self.relationship == "p2c":
            graph.add_p2c(self.a, self.b)
        else:
            graph.add_p2p(self.a, self.b)
        return AppliedEvent(
            self,
            LinkDown(self.a, self.b),
            added=((self.a, self.b, self.relationship),),
        )

    def describe(self) -> str:
        arrow = "→" if self.relationship == "p2c" else "—"
        return f"link-up AS{self.a}{arrow}AS{self.b} ({self.relationship})"


@dataclass(frozen=True)
class Depeer(Event):
    """Termination of a settlement-free peering (must be p2p)."""

    a: int
    b: int

    def apply(self, graph) -> AppliedEvent:
        from ..topology.relationships import Relationship

        rel = graph.relationship_between(self.a, self.b)
        if rel is not Relationship.PEER_PEER:
            raise ValueError(
                f"AS{self.a} and AS{self.b} are not peers; "
                "use LinkDown for transit edges"
            )
        graph.remove_edge(self.a, self.b)
        return AppliedEvent(
            self, LinkUp(self.a, self.b, "p2p"), removed=((self.a, self.b),)
        )

    def describe(self) -> str:
        return f"depeer AS{self.a}—AS{self.b}"


@dataclass(frozen=True)
class ASFailure(Event):
    """Complete outage of one AS: every incident edge goes down.

    The AS itself stays in the graph (isolated), so the routing-state
    universe is unchanged and the inverse :class:`ASRecover` restores
    the captured edge sets exactly.
    """

    asn: int

    def apply(self, graph) -> AppliedEvent:
        if self.asn not in graph:
            raise KeyError(f"AS{self.asn} not in graph")
        providers = tuple(sorted(graph.providers(self.asn)))
        customers = tuple(sorted(graph.customers(self.asn)))
        peers = tuple(sorted(graph.peers(self.asn)))
        removed = []
        for nbr in providers + customers + peers:
            graph.remove_edge(self.asn, nbr)
            removed.append((self.asn, nbr))
        inverse = ASRecover(self.asn, providers, customers, peers)
        return AppliedEvent(self, inverse, removed=tuple(removed))

    def describe(self) -> str:
        return f"as-failure AS{self.asn}"


@dataclass(frozen=True)
class ASRecover(Event):
    """Recovery of a failed AS: re-raise the captured incident edges."""

    asn: int
    providers: tuple[int, ...] = ()
    customers: tuple[int, ...] = ()
    peers: tuple[int, ...] = ()

    def apply(self, graph) -> AppliedEvent:
        added = []
        for p in self.providers:
            graph.add_p2c(p, self.asn)
            added.append((p, self.asn, "p2c"))
        for c in self.customers:
            graph.add_p2c(self.asn, c)
            added.append((self.asn, c, "p2c"))
        for q in self.peers:
            graph.add_p2p(self.asn, q)
            added.append((self.asn, q, "p2p"))
        return AppliedEvent(self, ASFailure(self.asn), added=tuple(added))

    def describe(self) -> str:
        return f"as-recover AS{self.asn}"


@dataclass(frozen=True)
class Hijack(Event):
    """More-specific prefix hijack: the hijacker originates a more
    specific of the baseline origin's prefix, so its announcement wins at
    every AS it reaches regardless of route preference.  The legitimate
    origin itself keeps its own route."""

    hijacker: int
    key: str = "hijack"
    mutates_topology = False

    def apply(self, graph) -> AppliedEvent:
        return AppliedEvent(self, None)

    def describe(self) -> str:
        return f"hijack by AS{self.hijacker}"


@dataclass(frozen=True)
class RouteLeak(Event):
    """The paper's route leak as an event: the leaker re-announces its
    learned route for the origin's prefix to all neighbors.

    ``initial_length=None`` means re-announce semantics — the leak seed
    carries the leaker's baseline path length (the leaker must hold a
    route); an explicit length overrides (0 reproduces origin-hijack
    style leaks)."""

    leaker: int
    initial_length: Optional[int] = None
    key: str = "leak"
    mutates_topology = False

    def apply(self, graph) -> AppliedEvent:
        return AppliedEvent(self, None)

    def describe(self) -> str:
        return f"route-leak by AS{self.leaker}"


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EventOutcome:
    """A post-event routing state plus delta-pass instrumentation.

    ``visited`` counts the nodes the delta pass examined (``total`` on a
    fallback); ``changed`` counts nodes whose route differs from the
    baseline (``None`` when a fallback recompute didn't track it).
    """

    state: RoutingState
    total: int
    visited: int
    changed: Optional[int]
    fallback: bool = False
    reason: str = ""

    @property
    def visited_fraction(self) -> float:
        return self.visited / self.total if self.total else 0.0


class _Fallback(Exception):
    """Internal: the delta pass cannot (or should not) run; recompute."""


def _capacity(typecode: str) -> int:
    """Largest value an array of ``typecode`` can hold."""
    bits = array(typecode).itemsize * 8
    return (1 << (bits - 1)) - 1 if typecode.islower() else (1 << bits) - 1


def _owned(arr) -> array:
    """A mutable owned copy of ``arr`` (slice copy for arrays; a
    ``memoryview`` of an mmap shard baseline must not be aliased)."""
    if isinstance(arr, array):
        return arr[:]
    return array(arr.format, arr)


def _widened(arr, needed_max: int, code_fn) -> array:
    """Copy ``arr``, widening its typecode only if ``needed_max`` won't
    fit — the common case is a same-typecode slice copy (a memcpy),
    keeping delta-state construction O(frontier) instead of O(n)
    element-conversion work.  A ``memoryview`` (a zero-copy view of an
    mmap shard baseline) must become an owned array either way: its
    slice would alias the read-only map and the caller mutates the
    result."""
    if not isinstance(arr, array):
        code = arr.format
        if needed_max <= _capacity(code):
            return array(code, arr)
        return array(code_fn(needed_max), arr)
    if needed_max <= _capacity(arr.typecode):
        return arr[:]
    return array(code_fn(needed_max), arr)


# ---------------------------------------------------------------------------
# the generalized delta dispatcher
# ---------------------------------------------------------------------------

def propagate_delta_event(
    graph,
    baseline: CompiledRoutingState,
    applied: AppliedEvent,
    threshold: Optional[float] = None,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> EventOutcome:
    """Apply an event's delta to a cached single-seed baseline.

    ``graph`` must already be mutated by ``applied`` (i.e. this is called
    with the :class:`AppliedEvent` returned by ``event.apply(graph)``),
    and ``baseline`` must be the pre-event
    :func:`~repro.bgpsim.compiled.propagate_compiled` state for the same
    ``excluded`` / ``peer_locked`` / ``locked_origin`` configuration.
    Removal events whose withdrawal region exceeds ``threshold`` (see
    :func:`resolve_event_threshold`), mixed add+remove deltas, multi-seed
    baselines, and baselines from a different AS universe all fall back
    to a full recompute — flagged in the returned
    :class:`EventOutcome`, never silently wrong.
    """
    event = applied.event
    if isinstance(event, RouteLeak):
        return _leak_outcome(
            graph, baseline, event, excluded, peer_locked, locked_origin
        )
    if isinstance(event, Hijack):
        return _hijack_outcome(
            graph, baseline, event, excluded, peer_locked, locked_origin
        )
    cg: CompiledGraph = graph.compile()
    n = cg.n
    if not applied.mutates_topology:
        return EventOutcome(baseline, n, 0, 0)
    threshold = resolve_event_threshold(threshold)
    try:
        if len(baseline.seeds) != 1:
            raise _Fallback("baseline is not a single-seed propagation")
        if baseline._asns is not cg.asns and baseline._asns != cg.asns:
            raise _Fallback("baseline was computed over a different AS universe")
        if applied.removed and applied.added:
            raise _Fallback("event mixes edge addition and removal")
        ctx = _DeltaContext(
            cg, baseline, excluded, peer_locked, locked_origin
        )
        if applied.removed:
            state, visited, changed = _retract(ctx, applied.removed, threshold)
        else:
            state, visited, changed = _augment(ctx, applied.added)
        return EventOutcome(state, n, visited, changed)
    except _Fallback as fb:
        state = propagate_compiled(
            cg,
            baseline.seeds,
            excluded=excluded,
            peer_locked=peer_locked,
            locked_origin=locked_origin,
        )
        return EventOutcome(state, n, n, None, fallback=True, reason=str(fb))


def full_event_outcome(
    graph,
    baseline: CompiledRoutingState,
    applied: AppliedEvent,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> EventOutcome:
    """The post-event state by full recompute on the mutated graph.

    The non-incremental counterpart of :func:`propagate_delta_event`
    (same call convention: ``graph`` already mutated, ``baseline`` the
    pre-event state): topology events re-propagate the baseline's seeds
    from scratch; a :class:`RouteLeak` resolves its re-announce length
    against the baseline and runs one fresh two-seed propagation; a
    :class:`Hijack` is inherently a full hijacker propagation merged over
    the baseline, so both entry points share :func:`_hijack_outcome`.
    Timelines use this when the engine is not ``"incremental"``, and the
    differential harness/benchmark use it as the ground truth the delta
    pass must reproduce bit-for-bit.
    """
    event = applied.event
    if isinstance(event, Hijack):
        return _hijack_outcome(
            graph, baseline, event, excluded, peer_locked, locked_origin
        )
    cg: CompiledGraph = graph.compile()
    n = cg.n
    seeds = baseline.seeds
    if isinstance(event, RouteLeak):
        legit = seeds[0]
        if event.leaker == legit.asn:
            raise ValueError(f"AS{event.leaker} cannot leak its own prefix")
        length = event.initial_length
        if length is None:
            length = baseline.path_length(event.leaker)
            if length is None:
                raise ValueError(
                    f"AS{event.leaker} has no route to AS{legit.asn}; "
                    "nothing to leak"
                )
        seeds = (
            legit,
            Seed(asn=event.leaker, key=event.key, initial_length=length),
        )
    state = propagate_compiled(
        cg,
        seeds,
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
    )
    return EventOutcome(state, n, n, None)


# ---------------------------------------------------------------------------
# shared delta-pass context
# ---------------------------------------------------------------------------

class _DeltaContext:
    """Baseline arrays, filter flags and override maps for one delta pass."""

    def __init__(
        self,
        cg: CompiledGraph,
        baseline: CompiledRoutingState,
        excluded: Collection[int],
        peer_locked: Collection[int],
        locked_origin: Optional[int],
    ) -> None:
        self.cg = cg
        self.baseline = baseline
        index = cg.index
        seed = baseline.seeds[0]
        self.seed_i = index[seed.asn]
        n = cg.n
        ex = bytearray(n)
        for asn in excluded:
            i = index.get(asn)
            if i is not None:
                ex[i] = 1
        lk = bytearray(n)
        for asn in peer_locked:
            if asn == seed.asn:
                continue
            i = index.get(asn)
            if i is not None:
                lk[i] = 1
        self.ex = ex
        self.lk = lk
        if locked_origin is None:
            locked_origin = seed.asn
        self.locked_idx = index.get(locked_origin, -2)
        self.seed_export: Optional[frozenset[int]] = None
        if seed.export_to is not None:
            self.seed_export = frozenset(
                index[a] for a in seed.export_to if a in index
            )
        self.base_rc = baseline._route_class
        self.base_ln = baseline._length
        # copy-on-write (class, length) overrides; parents are recomputed
        # exactly at the end for every touched node, so the phase passes
        # are pure label-setting
        self.cur_rc: dict[int, int] = {}
        self.cur_ln: dict[int, int] = {}
        self._bp_cache: dict[int, set[int]] = {}
        self.visited: set[int] = set()

    def rc_of(self, i: int) -> int:
        got = self.cur_rc.get(i)
        return self.base_rc[i] if got is None else got

    def ln_of(self, i: int) -> int:
        got = self.cur_ln.get(i)
        return self.base_ln[i] if got is None else got

    def base_parents(self, i: int) -> set[int]:
        got = self._bp_cache.get(i)
        if got is None:
            got = set()
            baseline = self.baseline
            h = baseline._parent_head[i]
            while h >= 0:
                got.add(baseline._pool_parent[h])
                h = baseline._pool_next[h]
            self._bp_cache[i] = got
        return got

    def exports(self, sender: int, receiver: int) -> bool:
        if self.ex[receiver] or (
            self.lk[receiver] and sender != self.locked_idx
        ):
            return False
        if sender == self.seed_i and self.seed_export is not None:
            return receiver in self.seed_export
        return True

    # -- final parent reconstruction ---------------------------------------
    def exact_parents(self, v: int) -> set[int]:
        """``v``'s tied-best parents from its neighbors' settled routes.

        A neighbor is a parent iff its class-appropriate offer equals
        ``v``'s final (class, length) and export rules let it through —
        exactly the set the full kernel accumulates via its offer queues.
        """
        cg = self.cg
        rc_v = self.rc_of(v)
        target = self.ln_of(v) - 1
        out: set[int] = set()
        rc_of, ln_of, exports = self.rc_of, self.ln_of, self.exports
        if rc_v == 0:
            off, nbr = cg.customer_off, cg.customer_nbr
            for u in nbr[off[v] : off[v + 1]]:
                if rc_of(u) == 0 and ln_of(u) == target and exports(u, v):
                    out.add(u)
        elif rc_v == 1:
            off, nbr = cg.peer_off, cg.peer_nbr
            for u in nbr[off[v] : off[v + 1]]:
                if rc_of(u) == 0 and ln_of(u) == target and exports(u, v):
                    out.add(u)
        else:
            off, nbr = cg.provider_off, cg.provider_nbr
            for u in nbr[off[v] : off[v + 1]]:
                if (
                    rc_of(u) != _NO_ROUTE
                    and ln_of(u) == target
                    and exports(u, v)
                ):
                    out.add(u)
        return out

    # -- result construction -----------------------------------------------
    def finish(
        self, fixup: set[int]
    ) -> tuple[CompiledRoutingState, int, int]:
        """Build the post-event state: baseline arrays copied, (class,
        length) overrides applied, parent sets of every ``fixup`` node
        recomputed exactly.  Returns ``(state, visited, changed)``."""
        baseline, cg = self.baseline, self.cg
        base_rc, base_ln = self.base_rc, self.base_ln
        overrides = {
            i: (c, self.cur_ln[i])
            for i, c in self.cur_rc.items()
            if c != base_rc[i] or self.cur_ln[i] != base_ln[i]
        }
        new_parents: dict[int, set[int]] = {}
        for v in fixup:
            if v == self.seed_i:
                continue
            if self.rc_of(v) == _NO_ROUTE:
                continue  # withdrawn entirely; head is cleared below
            parents = self.exact_parents(v)
            if v in overrides or parents != self.base_parents(v):
                new_parents[v] = parents

        # copies stay in the baseline's typecodes (slice copies are
        # memcpy-fast) and only widen when an override value or the
        # grown parent pool provably needs it — the whole construction
        # is O(frontier), not O(n), apart from the memcpys themselves
        rc = bytearray(base_rc)
        ln = _widened(
            base_ln,
            max((length for _, length in overrides.values()), default=0),
            _unsigned_typecode,
        )
        grown = sum(len(p) for p in new_parents.values())
        pool_size = len(baseline._pool_parent) + grown
        head = _widened(
            baseline._parent_head, pool_size - 1, _signed_typecode
        )
        pool_parent = _owned(baseline._pool_parent)
        pool_next = _widened(
            baseline._pool_next, pool_size - 1, _signed_typecode
        )
        became_routed: list[int] = []
        became_unrouted = set()
        for i, (c, length) in overrides.items():
            if (c == _NO_ROUTE) != (base_rc[i] == _NO_ROUTE):
                if c == _NO_ROUTE:
                    became_unrouted.add(i)
                else:
                    became_routed.append(i)
            rc[i] = c
            if c == _NO_ROUTE:
                ln[i] = 0
                head[i] = -1
            else:
                ln[i] = length
        for i, parents in new_parents.items():
            h = -1
            for p in sorted(parents):
                pool_parent.append(p)
                pool_next.append(h)
                h = len(pool_parent) - 1
            head[i] = h
        if became_routed or became_unrouted:
            became_routed.sort()
            # baseline._routed may be a plain list (full-propagation
            # output) or an array (a prior delta state) — emit an array
            routed = array(_unsigned_typecode(max(cg.n - 1, 0)))
            ai, added = 0, became_routed
            for i in baseline._routed:
                while ai < len(added) and added[ai] < i:
                    routed.append(added[ai])
                    ai += 1
                if i not in became_unrouted:
                    routed.append(i)
            routed.extend(added[ai:])
        else:
            routed = baseline._routed[:]
        state = CompiledRoutingState(
            cg.asns,
            baseline.seeds,
            rc,
            ln,
            head,
            pool_parent,
            pool_next,
            routed,
            None,
        )
        changed = len(set(overrides) | set(new_parents))
        return state, len(self.visited), changed


# ---------------------------------------------------------------------------
# removal: withdrawal closure + restricted re-convergence
# ---------------------------------------------------------------------------

def _retract(
    ctx: _DeltaContext,
    removed: tuple[tuple[int, int], ...],
    threshold: float,
) -> tuple[CompiledRoutingState, int, int]:
    cg = ctx.cg
    index = cg.index
    n = cg.n
    base_rc = ctx.base_rc
    seed_i = ctx.seed_i
    poff, pnbr = cg.provider_off, cg.provider_nbr
    coff, cnbr = cg.customer_off, cg.customer_nbr
    qoff, qnbr = cg.peer_off, cg.peer_nbr
    cur_rc, cur_ln = ctx.cur_rc, ctx.cur_ln
    rc_of, ln_of = ctx.rc_of, ctx.ln_of
    exports = ctx.exports
    visited = ctx.visited

    # ------------------------------------------------------------------
    # withdrawal closure W: a node joins when its *every* tied-best parent
    # is removed-or-withdrawn; membership cascades lazily down the
    # baseline DAG (children found through the surviving CSR adjacency,
    # confirmed against the baseline parent sets)
    # ------------------------------------------------------------------
    lost: dict[int, set[int]] = {}
    W: set[int] = set()
    cascade: list[int] = []

    def note_lost(v: int, p: int) -> None:
        if v == seed_i or base_rc[v] == _NO_ROUTE:
            return
        bp = ctx.base_parents(v)
        if p not in bp:
            return
        s = lost.get(v)
        if s is None:
            s = lost[v] = set()
        if p in s:
            return
        s.add(p)
        visited.add(v)
        if len(s) == len(bp) and v not in W:
            W.add(v)
            cascade.append(v)

    for a, b in removed:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            raise _Fallback(f"removed edge AS{a}—AS{b} has an unknown endpoint")
        note_lost(ib, ia)
        note_lost(ia, ib)
    while cascade:
        w = cascade.pop()
        for off, nbr in ((poff, pnbr), (coff, cnbr), (qoff, qnbr)):
            for c in nbr[off[w] : off[w + 1]]:
                note_lost(c, w)

    if len(W) > threshold * n:
        raise _Fallback(
            f"withdrawal region {len(W)}/{n} exceeds threshold {threshold}"
        )

    for w in W:
        cur_rc[w] = _NO_ROUTE
        cur_ln[w] = 0

    # ------------------------------------------------------------------
    # phase 1: customer routes of the withdrawn region, level BFS up
    # provider edges.  Non-W class-0 routes are unchanged (under removal
    # customer offers only disappear), so boundary offers use baseline
    # lengths and the wave stays inside W.
    # ------------------------------------------------------------------
    pending: dict[int, list[int]] = {}
    for w in W:
        best = None
        for c in cnbr[coff[w] : coff[w + 1]]:
            if c in W:
                continue  # rebuilt senders announce through the wave
            if base_rc[c] == 0 and exports(c, w):
                hop = ctx.base_ln[c] + 1
                if best is None or hop < best:
                    best = hop
        if best is not None:
            pending.setdefault(best, []).append(w)

    level = min(pending) if pending else 0
    while pending:
        if level not in pending:
            level = min(pending)
        newly: list[int] = []
        for r in pending.pop(level):
            if cur_rc[r] != _NO_ROUTE:
                continue  # already settled at a lower level
            visited.add(r)
            cur_rc[r] = 0
            cur_ln[r] = level
            newly.append(r)
        if newly:
            nxt = level + 1
            for r in newly:
                for p in pnbr[poff[r] : poff[r + 1]]:
                    if p in W and cur_rc[p] == _NO_ROUTE and exports(r, p):
                        pending.setdefault(nxt, []).append(p)
        level += 1

    # ------------------------------------------------------------------
    # phase 2: peer routes for still-unsettled W nodes, one hop from any
    # customer-routed neighbor (baseline or rebuilt)
    # ------------------------------------------------------------------
    for w in W:
        if cur_rc[w] != _NO_ROUTE:
            continue
        best = None
        for q in qnbr[qoff[w] : qoff[w + 1]]:
            if rc_of(q) == 0 and exports(q, w):
                hop = ln_of(q) + 1
                if best is None or hop < best:
                    best = hop
        if best is not None:
            visited.add(w)
            cur_rc[w] = 1
            cur_ln[w] = best

    # ------------------------------------------------------------------
    # phase 3: provider routes, Dijkstra down customer edges.  Seeds:
    # boundary offers into unsettled W nodes, plus the announcements of
    # every W node phases 1-2 settled.  A W node whose class worsened
    # with a *shorter* path (long customer route falling to a short peer
    # route) shortens its downstream provider-class offers, so the wave
    # may improve nodes far outside W — those improvements (and tie
    # parent gains) are tracked for the parent fix-up.
    # ------------------------------------------------------------------
    heap: list[tuple[int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    fixadd: set[int] = set()
    for w in W:
        c = cur_rc[w]
        if c == _NO_ROUTE:
            for u in pnbr[poff[w] : poff[w + 1]]:
                if u in W:
                    continue  # rebuilt providers announce via the wave
                if base_rc[u] != _NO_ROUTE and exports(u, w):
                    push(heap, (ctx.base_ln[u] + 1, w, u))
        else:
            hop = cur_ln[w] + 1
            for cc in cnbr[coff[w] : coff[w + 1]]:
                if exports(w, cc):
                    push(heap, (hop, cc, w))
    while heap:
        hop, r, s = pop(heap)
        if r == seed_i:
            continue
        visited.add(r)
        c = rc_of(r)
        if c == 0 or c == 1:
            continue  # customer/peer routes beat provider offers
        if c == 2:
            existing = ln_of(r)
            if hop > existing:
                continue
            if hop == existing:
                fixadd.add(r)  # may gain the sender as a tied parent
                continue
        # strictly better provider route, or the first offer reaching a
        # withdrawn node
        cur_rc[r] = 2
        cur_ln[r] = hop
        fixadd.add(r)
        nxt = hop + 1
        for cc in cnbr[coff[r] : coff[r + 1]]:
            if exports(r, cc):
                push(heap, (nxt, cc, r))

    fixup = W | set(lost) | fixadd
    return ctx.finish(fixup)


# ---------------------------------------------------------------------------
# addition: improvement waves + dirty-region provider recompute
# ---------------------------------------------------------------------------

def _augment(
    ctx: _DeltaContext,
    added: tuple[tuple[int, int, str], ...],
) -> tuple[CompiledRoutingState, int, int]:
    cg = ctx.cg
    index = cg.index
    base_rc, base_ln = ctx.base_rc, ctx.base_ln
    seed_i = ctx.seed_i
    poff, pnbr = cg.provider_off, cg.provider_nbr
    coff, cnbr = cg.customer_off, cg.customer_nbr
    qoff, qnbr = cg.peer_off, cg.peer_nbr
    cur_rc, cur_ln = ctx.cur_rc, ctx.cur_ln
    rc_of, ln_of = ctx.rc_of, ctx.ln_of
    exports = ctx.exports
    visited = ctx.visited
    fixadd: set[int] = set()

    # initial offers across the new edges (already present in the CSR)
    pending: dict[int, list[tuple[int, int]]] = {}
    peer_init: list[tuple[int, int]] = []  # (sender, receiver)
    prov_init: list[tuple[int, int]] = []
    for a, b, rel in added:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            raise _Fallback(f"added edge AS{a}—AS{b} has an unknown endpoint")
        if rel == "p2c":  # a provider, b customer
            if base_rc[ib] == 0 and exports(ib, ia):
                pending.setdefault(base_ln[ib] + 1, []).append((ia, ib))
            prov_init.append((ia, ib))
        else:
            peer_init.append((ia, ib))
            peer_init.append((ib, ia))

    # ------------------------------------------------------------------
    # phase 1: customer improvement wave (class 0 offers never worsen
    # under addition; anything not strictly better is dropped, ties only
    # mark a parent fix-up)
    # ------------------------------------------------------------------
    changed_customer: list[int] = []
    level = min(pending) if pending else 0
    while pending:
        if level not in pending:
            level = min(pending)
        newly: list[int] = []
        for r, s in pending.pop(level):
            if r == seed_i:
                continue  # the seed's route is fixed
            visited.add(r)
            c = rc_of(r)
            if c == 0:
                existing = ln_of(r)
                if level > existing:
                    continue
                if level == existing:
                    fixadd.add(r)
                    continue
            cur_rc[r] = 0
            cur_ln[r] = level
            newly.append(r)
            changed_customer.append(r)
        if newly:
            nxt = level + 1
            bucket = pending.setdefault(nxt, [])
            for r in newly:
                for p in pnbr[poff[r] : poff[r + 1]]:
                    if exports(r, p):
                        bucket.append((p, r))
        level += 1

    # ------------------------------------------------------------------
    # phase 2: peer offers from every changed customer route plus the
    # new peering edges themselves
    # ------------------------------------------------------------------
    changed_any: list[int] = list(changed_customer)
    offers: list[tuple[int, int]] = []
    for s in dict.fromkeys(changed_customer):
        for q in qnbr[qoff[s] : qoff[s + 1]]:
            offers.append((s, q))
    offers.extend(peer_init)
    for s, q in offers:
        if q == seed_i or rc_of(s) != 0 or not exports(s, q):
            continue
        hop = ln_of(s) + 1
        visited.add(q)
        c = rc_of(q)
        if c == 0:
            continue
        if c == 1:
            existing = ln_of(q)
            if hop > existing:
                continue
            if hop == existing:
                fixadd.add(q)
                continue
        cur_rc[q] = 1
        cur_ln[q] = hop
        changed_any.append(q)

    # ------------------------------------------------------------------
    # phase 3: provider routes.  A node whose class improved with a
    # longer path now exports a longer provider-class route — its
    # provider-class baseline descendants are reset and re-solved, as in
    # the leak engine; everything else is an improvement wave seeded
    # from the changed nodes and the new transit edges.
    # ------------------------------------------------------------------
    worsened = [
        i
        for i, c in cur_rc.items()
        if c != _NO_ROUTE
        and base_rc[i] != _NO_ROUTE
        and cur_ln[i] > base_ln[i]
    ]
    dirty: set[int] = set()
    stack = list(worsened)
    while stack:
        w = stack.pop()
        for c in cnbr[coff[w] : coff[w + 1]]:
            if c in dirty or rc_of(c) != 2:
                continue
            if w in ctx.base_parents(c):
                dirty.add(c)
                visited.add(c)
                stack.append(c)
    for d in dirty:
        cur_rc[d] = _NO_ROUTE
        cur_ln[d] = 0

    heap: list[tuple[int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for d in dirty:
        for u in pnbr[poff[d] : poff[d + 1]]:
            if u in dirty or rc_of(u) == _NO_ROUTE:
                continue
            if exports(u, d):
                push(heap, (ln_of(u) + 1, d, u))
    for s in dict.fromkeys(changed_any):
        hop = ln_of(s) + 1
        for c in cnbr[coff[s] : coff[s + 1]]:
            if exports(s, c):
                push(heap, (hop, c, s))
    for s, r in prov_init:
        if rc_of(s) != _NO_ROUTE and exports(s, r):
            push(heap, (ln_of(s) + 1, r, s))
    while heap:
        hop, r, s = pop(heap)
        if r == seed_i:
            continue
        visited.add(r)
        c = rc_of(r)
        if c == 0 or c == 1:
            continue
        if c == 2:
            existing = ln_of(r)
            if hop > existing:
                continue
            if hop == existing:
                fixadd.add(r)
                continue
        cur_rc[r] = 2
        cur_ln[r] = hop
        fixadd.add(r)
        nxt = hop + 1
        for cc in cnbr[coff[r] : coff[r + 1]]:
            if exports(r, cc):
                push(heap, (nxt, cc, r))

    fixup = fixadd | set(cur_rc)
    return ctx.finish(fixup)


# ---------------------------------------------------------------------------
# seed events
# ---------------------------------------------------------------------------

def _leak_outcome(
    graph,
    baseline: CompiledRoutingState,
    event: RouteLeak,
    excluded: Collection[int],
    peer_locked: Collection[int],
    locked_origin: Optional[int],
) -> EventOutcome:
    cg: CompiledGraph = graph.compile()
    n = cg.n
    legit = baseline.seeds[0]
    if event.leaker == legit.asn:
        raise ValueError(f"AS{event.leaker} cannot leak its own prefix")
    length = event.initial_length
    if length is None:
        length = baseline.path_length(event.leaker)
        if length is None:
            raise ValueError(
                f"AS{event.leaker} has no route to AS{legit.asn}; "
                "nothing to leak"
            )
    leak = Seed(asn=event.leaker, key=event.key, initial_length=length)
    try:
        state = propagate_delta(
            cg,
            baseline,
            leak,
            excluded=excluded,
            peer_locked=peer_locked,
            locked_origin=locked_origin,
        )
    except ValueError as exc:
        full = propagate_compiled(
            cg,
            (legit, leak),
            excluded=excluded,
            peer_locked=peer_locked,
            locked_origin=locked_origin,
        )
        return EventOutcome(full, n, n, None, fallback=True, reason=str(exc))
    stats = state.delta_stats()
    return EventOutcome(state, n, stats["visited"], stats["route_changed"])


def _hijack_outcome(
    graph,
    baseline: CompiledRoutingState,
    event: Hijack,
    excluded: Collection[int],
    peer_locked: Collection[int],
    locked_origin: Optional[int],
) -> EventOutcome:
    cg: CompiledGraph = graph.compile()
    n = cg.n
    if len(baseline.seeds) != 1:
        raise ValueError("hijack deltas need a single-seed baseline")
    if baseline._asns is not cg.asns and baseline._asns != cg.asns:
        raise ValueError("baseline was computed over a different AS universe")
    legit = baseline.seeds[0]
    if event.hijacker == legit.asn:
        raise ValueError(f"AS{event.hijacker} cannot hijack its own prefix")
    hseed = Seed(asn=event.hijacker, key=event.key)
    hstate = propagate_compiled(
        cg,
        hseed,
        excluded=excluded,
        peer_locked=peer_locked,
        locked_origin=locked_origin,
    )
    index = cg.index
    li, hi = index[legit.asn], index[event.hijacker]
    hrc, hln = hstate._route_class, hstate._length
    hhead = hstate._parent_head
    hpp, hpn = hstate._pool_parent, hstate._pool_next
    # baseline copies stay in their typecodes (memcpy) and widen only
    # when the hijacker's lengths or the grown pool demand it — see
    # _widened; the merge itself is O(hijacker's region), not O(n)
    rc = bytearray(baseline._route_class)
    pool_size = len(baseline._pool_parent) + len(hpp)
    ln = _widened(
        baseline._length, max(hln) if len(hln) else 0, _unsigned_typecode
    )
    head = _widened(baseline._parent_head, pool_size - 1, _signed_typecode)
    pool_parent = _owned(baseline._pool_parent)
    pool_next = _widened(baseline._pool_next, pool_size - 1, _signed_typecode)
    mask = [0] * n
    for i in baseline._routed:
        mask[i] = 1
    stolen = 0
    for i in hstate._routed:
        if i == li:
            continue  # the legitimate origin keeps its own route
        mask[i] = 2
        rc[i] = hrc[i]
        ln[i] = hln[i]
        h = hhead[i]
        nh = -1
        while h >= 0:
            pool_parent.append(hpp[h])
            pool_next.append(nh)
            nh = len(pool_parent) - 1
            h = hpn[h]
        head[i] = nh
        if i != hi:
            stolen += 1
    routed_set = set(baseline._routed)
    routed_set.update(hstate._routed)
    merged = CompiledRoutingState(
        cg.asns,
        (legit, hseed),
        rc,
        ln,
        head,
        pool_parent,
        pool_next,
        array(_unsigned_typecode(max(n - 1, 0)), sorted(routed_set)),
        mask,
    )
    return EventOutcome(merged, n, len(hstate._routed), stolen)
