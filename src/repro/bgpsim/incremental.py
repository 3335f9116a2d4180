"""Incremental delta-propagation for route-leak sweeps.

A leak simulation under the erratum semantics runs the *same* legitimate
propagation for every leaker and differs only where the leaked route
changes the outcome.  The combined ``(origin, leak)`` state is derived
from the single-origin baseline by a frontier-limited pass that visits
only the region the leak actually disturbs:

1. *delta waves* — replay the customer and peer phases seeded solely
   from the leaker: every offer is compared against the baseline (or the
   already-overridden) route at the receiver and dropped the moment it
   is worse, so propagation stops at the boundary of the leak's
   influence.  Within a class the route set only grows, so these two
   phases are pure improvements.
2. *dirty-region recompute* — the one retraction the phases above can
   cause: an AS whose route *class* improved with a *longer* path (the
   essence of a leak — a customer route beats a shorter peer/provider
   route) now exports a longer provider-class route to its customers.
   Every provider-class baseline descendant of such a node is collected
   down the customer edges, reset, and re-solved by a small Dijkstra
   seeded with the offers still standing at the region's boundary.
3. *origin taint* — a BFS over the best-route DAG (children found
   through the CSR adjacency, membership checked against parent sets)
   marks every AS whose tied-best routes lead to the leak, which is
   exactly the paper's *detoured* set, followed by an exact origin-mask
   pass over the affected region in increasing path-length order.
4. *copy-on-write state* — :class:`DeltaRoutingState` holds the per-node
   overrides plus the origin masks and answers every query by delegating
   to the untouched baseline arrays, so one baseline
   :class:`~repro.bgpsim.compiled.CompiledRoutingState` serves every
   leaker in a sweep.

The pass is proven outcome- and state-equivalent to a full two-seed
recompute by ``tests/test_incremental_engine.py``.  It applies when the
baseline and the combined run share their filter configuration — erratum
peer-lock semantics, a leaker that is not itself peer-locked, and a leak
seed that does not retract announcements the baseline already made
(enforced here with ``ValueError``).  The :mod:`repro.core.leaks`
consumers fall back to the full engine for the remaining cases
(subprefix leaks, the pre-erratum ``ORIGINAL`` semantics, and locked
leakers), so ``engine="incremental"`` is always safe.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection
from typing import Optional

from .compiled import _NO_ROUTE, CompiledGraph, CompiledRoutingState
from .routes import NodeRoute, RouteClass, RoutingState, Seed

__all__ = ["DeltaRoutingState", "propagate_delta"]

_CLASSES = (RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER)

#: origin-mask bits for the two seeds of a leak scenario
_LEGIT_BIT = 1
_LEAK_BIT = 2


class DeltaRoutingState(RoutingState):
    """Combined ``(origin, leak)`` state as a copy-on-write view.

    ``overrides`` maps a node index to its combined ``(route_class,
    length, parent-index set)`` where that differs from the baseline;
    ``omask`` maps every affected node index to its combined origin mask
    (bit 0: legitimate origin, bit 1: leak).  Nodes outside both maps
    carry their baseline route with origins ``{legit.key}``.  The
    baseline's arrays are shared, never copied and never mutated.
    """

    def __init__(
        self,
        baseline: CompiledRoutingState,
        leak: Seed,
        overrides: dict[int, tuple[int, int, set[int]]],
        omask: dict[int, int],
        visited: int,
    ) -> None:
        legit = baseline.seeds[0]
        self.seeds = (legit, leak)
        self.seed_asns = frozenset((legit.asn, leak.asn))
        self._baseline = baseline
        self._overrides = overrides
        self._omask = omask
        #: nodes examined by the delta pass (offers received, reset or
        #: tainted); the benchmark reports this as the visited fraction
        self.visited_count = visited
        self._materialized: Optional[dict[int, NodeRoute]] = None
        # metric-kernel caches (see repro.bgpsim.metrics_kernel)
        self._metric_dag = None
        self._metric_counts: Optional[list[int]] = None

    # -- instrumentation ---------------------------------------------------
    def delta_stats(self) -> dict[str, int]:
        """Sizes of the regions the delta pass touched."""
        return {
            "visited": self.visited_count,
            "route_changed": len(self._overrides),
            "tainted": sum(1 for m in self._omask.values() if m & _LEAK_BIT),
            "total_ases": len(self._baseline._asns),
        }

    # -- index helpers -----------------------------------------------------
    def _routed_indices(self) -> set[int]:
        routed = set(self._baseline._routed)
        for i, (rc, _, _) in self._overrides.items():
            if rc != _NO_ROUTE:
                routed.add(i)
            else:
                routed.discard(i)
        return routed

    def _base_parents(self, i: int) -> set[int]:
        base = self._baseline
        parents: set[int] = set()
        h = base._parent_head[i]
        while h >= 0:
            parents.add(base._pool_parent[h])
            h = base._pool_next[h]
        return parents

    # -- lazy materialization ---------------------------------------------
    @property
    def routes(self) -> dict[int, NodeRoute]:
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized

    def _materialize(self) -> dict[int, NodeRoute]:
        base = self._baseline
        asns = base._asns
        keys = (self.seeds[0].key, self.seeds[1].key)
        routes: dict[int, NodeRoute] = {}
        for i in sorted(self._routed_indices()):
            override = self._overrides.get(i)
            if override is not None:
                rc, ln, parents = override
                parent_asns = {asns[p] for p in parents}
            else:
                rc = base._route_class[i]
                ln = base._length[i]
                parent_asns = {asns[p] for p in self._base_parents(i)}
            mask = self._omask.get(i, _LEGIT_BIT)
            origins = {keys[b] for b in (0, 1) if mask >> b & 1}
            routes[asns[i]] = NodeRoute(_CLASSES[rc], ln, parent_asns, origins)
        return routes

    # -- array-backed fast paths (no materialization) ----------------------
    def has_route(self, asn: int) -> bool:
        if self._materialized is not None:
            return asn in self._materialized
        i = self._baseline._idx(asn)
        if i is None:
            return False
        override = self._overrides.get(i)
        if override is not None:
            return override[0] != _NO_ROUTE
        return self._baseline._route_class[i] != _NO_ROUTE

    def path_length(self, asn: int) -> Optional[int]:
        if self._materialized is not None:
            node = self._materialized.get(asn)
            return node.length if node else None
        i = self._baseline._idx(asn)
        if i is None:
            return None
        override = self._overrides.get(i)
        if override is not None:
            return override[1] if override[0] != _NO_ROUTE else None
        if self._baseline._route_class[i] == _NO_ROUTE:
            return None
        return self._baseline._length[i]

    def origins_at(self, asn: int) -> frozenset[str]:
        if self._materialized is not None:
            node = self._materialized.get(asn)
            return frozenset(node.origins) if node else frozenset()
        if not self.has_route(asn):
            return frozenset()
        i = self._baseline._idx(asn)
        mask = self._omask.get(i, _LEGIT_BIT)
        keys = (self.seeds[0].key, self.seeds[1].key)
        return frozenset(keys[b] for b in (0, 1) if mask >> b & 1)

    def ases_with_origin(self, key: str) -> frozenset[int]:
        asns = self._baseline._asns
        bit = 0
        if key == self.seeds[0].key:
            bit |= _LEGIT_BIT
        if key == self.seeds[1].key:
            bit |= _LEAK_BIT
        if not bit:
            return frozenset()
        if bit == _LEAK_BIT:
            # only affected nodes can carry the leak bit — no full scan
            base_rc = self._baseline._route_class
            overrides = self._overrides
            hits = []
            for i, m in self._omask.items():
                if not m & _LEAK_BIT:
                    continue
                override = overrides.get(i)
                rc = override[0] if override is not None else base_rc[i]
                if rc != _NO_ROUTE:
                    hits.append(asns[i])
            return frozenset(hits)
        # the legit bit is carried implicitly by every unaffected node
        return frozenset(
            asns[i]
            for i in self._routed_indices()
            if self._omask.get(i, _LEGIT_BIT) & bit
        )

    def reachable_ases(self) -> frozenset[int]:
        if self._materialized is not None:
            return frozenset(self._materialized) - self.seed_asns
        asns = self._baseline._asns
        return (
            frozenset(asns[i] for i in self._routed_indices())
            - self.seed_asns
        )

    # -- pickling: ship the compact pieces, never the materialized dict
    # (nor the derived metric-kernel caches) ------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_materialized"] = None
        state["_metric_dag"] = None
        state["_metric_counts"] = None
        return state


def propagate_delta(
    graph,
    baseline: CompiledRoutingState,
    leak: Seed,
    excluded: Collection[int] = frozenset(),
    peer_locked: Collection[int] = frozenset(),
    locked_origin: Optional[int] = None,
) -> DeltaRoutingState:
    """Inject ``leak`` into a single-seed ``baseline`` and return the
    combined state, visiting only the disturbed region.

    ``baseline`` must be the :func:`~repro.bgpsim.compiled.propagate_compiled`
    result for ``(baseline.seeds[0],)`` over ``graph`` under the *same*
    ``excluded`` / ``peer_locked`` / ``locked_origin`` configuration —
    the equivalence with a full two-seed recompute holds only then.
    Raises ``ValueError`` for the configurations whose combined run
    would retract announcements the baseline already made (a peer-locked
    or excluded leaker, a restricted ``export_to`` on a baseline-routed
    leaker, or a leak seed longer than the leaker's baseline customer
    route); callers fall back to the full engine for those.
    """
    cg: CompiledGraph = graph.compile()
    if len(baseline.seeds) != 1:
        raise ValueError("baseline must be a single-seed propagation")
    legit = baseline.seeds[0]
    if baseline._asns is not cg.asns and baseline._asns != cg.asns:
        raise ValueError("baseline was computed over a different graph")
    index = cg.index
    if leak.asn not in index:
        raise KeyError(f"seed AS{leak.asn} not in graph")
    if leak.asn == legit.asn:
        raise ValueError(f"duplicate seed AS{leak.asn}")
    if leak.asn in excluded:
        raise ValueError(f"seed AS{leak.asn} is excluded")
    if locked_origin is None:
        locked_origin = legit.asn
    peer_locked = frozenset(peer_locked) - {legit.asn}
    if leak.asn in peer_locked:
        raise ValueError(
            f"leaker AS{leak.asn} is peer-locked; the baseline's filter "
            "set would differ from the combined run's"
        )

    base_rc = baseline._route_class
    base_ln = baseline._length
    legit_i = index[legit.asn]
    L = index[leak.asn]
    if leak.export_to is not None and base_rc[L] != _NO_ROUTE:
        raise ValueError(
            f"leak seed at routed AS{leak.asn} restricts export_to; the "
            "baseline's announcements would be retracted"
        )
    if base_rc[L] == 0 and leak.initial_length > base_ln[L]:
        raise ValueError(
            f"leak seed at AS{leak.asn} is longer ({leak.initial_length}) "
            f"than its baseline customer route ({base_ln[L]}); the "
            "leaker's exports to providers and peers would be retracted"
        )

    ex = bytearray(cg.n)
    for asn in excluded:
        i = index.get(asn)
        if i is not None:
            ex[i] = 1
    lk = bytearray(cg.n)
    for asn in peer_locked:
        i = index.get(asn)
        if i is not None:
            lk[i] = 1
    locked_idx = index.get(locked_origin, -2)
    leak_export: Optional[frozenset[int]] = None
    if leak.export_to is not None:
        leak_export = frozenset(
            index[a] for a in leak.export_to if a in index
        )
    legit_export: Optional[frozenset[int]] = None
    if legit.export_to is not None:
        legit_export = frozenset(
            index[a] for a in legit.export_to if a in index
        )

    # copy-on-write override maps: only nodes the leak disturbs appear
    cur_rc: dict[int, int] = {}
    cur_ln: dict[int, int] = {}
    cur_par: dict[int, set[int]] = {}
    visited: set[int] = {L}

    def rc_of(i: int) -> int:
        return cur_rc.get(i, base_rc[i])

    def ln_of(i: int) -> int:
        v = cur_ln.get(i)
        return base_ln[i] if v is None else v

    def base_parents(i: int) -> set[int]:
        parents: set[int] = set()
        h = baseline._parent_head[i]
        while h >= 0:
            parents.add(baseline._pool_parent[h])
            h = baseline._pool_next[h]
        return parents

    def parents_of(i: int) -> set[int]:
        got = cur_par.get(i)
        return base_parents(i) if got is None else got

    # the leak seed's route replaces whatever the leaker held: seeds keep
    # a fixed (CUSTOMER, initial_length) route with no parents
    cur_rc[L] = 0
    cur_ln[L] = leak.initial_length
    cur_par[L] = set()
    #: nodes whose customer-class route strictly changed (re-announce)
    changed_customer: list[int] = [L]

    poff, pnbr = cg.provider_off, cg.provider_nbr
    coff, cnbr = cg.customer_off, cg.customer_nbr
    qoff, qnbr = cg.peer_off, cg.peer_nbr

    def exports(sender: int, receiver: int) -> bool:
        if ex[receiver] or (lk[receiver] and sender != locked_idx):
            return False
        if sender == L and leak_export is not None:
            return receiver in leak_export
        if sender == legit_i and legit_export is not None:
            return receiver in legit_export
        return True

    # ------------------------------------------------------------------
    # phase 1: customer routes, level BFS up provider edges from the
    # leaker.  Within class 0 the delta is a pure improvement: the offer
    # set only grows and announcements are never retracted, so an offer
    # that is worse than the (baseline or overridden) route is dropped.
    # ------------------------------------------------------------------
    pending: dict[int, list[tuple[int, int]]] = {}
    bucket = pending.setdefault(leak.initial_length + 1, [])
    for p in pnbr[poff[L] : poff[L + 1]]:
        if exports(L, p):
            bucket.append((p, L))

    level = min(pending) if pending else 0
    while pending:
        if level not in pending:
            level = min(pending)
        events = pending.pop(level)
        newly: list[int] = []
        for r, s in events:
            if r == legit_i or r == L:
                continue  # seed routes are fixed
            visited.add(r)
            c = rc_of(r)
            if c == 0:
                existing = ln_of(r)
                if level > existing:
                    continue
                if level == existing:
                    # tie: the baseline (or delta) parents gain the sender
                    par = cur_par.get(r)
                    if par is None:
                        par = cur_par[r] = base_parents(r)
                        cur_rc[r] = 0
                        cur_ln[r] = existing
                    par.add(s)
                    continue
            # strictly better customer route (or first one): override
            cur_rc[r] = 0
            cur_ln[r] = level
            cur_par[r] = {s}
            newly.append(r)
            changed_customer.append(r)
        if newly:
            nxt = level + 1
            bucket = pending.get(nxt)
            if bucket is None:
                bucket = pending[nxt] = []
            for r in newly:
                for p in pnbr[poff[r] : poff[r + 1]]:
                    if exports(r, p):
                        bucket.append((p, r))
        level += 1

    # ------------------------------------------------------------------
    # phase 2: peer routes, one hop from every changed customer route.
    # Baseline peer candidates never worsen (class-0 senders only keep
    # or shorten their routes), so this too is a pure improvement.
    # ------------------------------------------------------------------
    changed_any: list[int] = list(changed_customer)
    for s in changed_customer:
        hop = ln_of(s) + 1
        for q in qnbr[qoff[s] : qoff[s + 1]]:
            if q == legit_i or q == L:
                continue
            if not exports(s, q):
                continue
            visited.add(q)
            c = rc_of(q)
            if c == 0:
                continue  # customer routes always beat peer offers
            if c == 1:
                existing = ln_of(q)
                if hop > existing:
                    continue
                if hop == existing:
                    par = cur_par.get(q)
                    if par is None:
                        par = cur_par[q] = base_parents(q)
                        cur_rc[q] = 1
                        cur_ln[q] = existing
                    par.add(s)
                    continue
            # strictly better peer route (or first route at q)
            cur_rc[q] = 1
            cur_ln[q] = hop
            cur_par[q] = {s}
            changed_any.append(q)

    # ------------------------------------------------------------------
    # phase 3: provider routes.  Not monotone: a node whose route class
    # improved with a *longer* path (a leaked customer route beating a
    # shorter peer/provider route) now exports a longer provider-class
    # route to its customers, so its provider-class baseline descendants
    # must be re-solved from scratch.  Collect that dirty region down
    # the customer edges, reset it, then run one Dijkstra seeded with
    # (a) the offers still standing at the region's boundary and (b) the
    # offers of every node phases 1–2 changed.
    # ------------------------------------------------------------------
    # Overrides so far are all class 0/1, so a length can only have grown
    # through a class improvement (or the leak seed replacing the
    # leaker's own shorter customer route — HIJACK with a routed leaker).
    worsened = [
        i
        for i, rc in cur_rc.items()
        if rc != _NO_ROUTE
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
            if w in base_parents(c):
                dirty.add(c)
                visited.add(c)
                stack.append(c)
    for d in dirty:
        cur_rc[d] = _NO_ROUTE
        cur_ln[d] = 0
        cur_par[d] = set()

    heap: list[tuple[int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    # (a) boundary offers: every non-dirty routed provider of a dirty
    # node still announces — at its (possibly overridden) length
    for d in dirty:
        for u in pnbr[poff[d] : poff[d + 1]]:
            if u in dirty or rc_of(u) == _NO_ROUTE:
                continue
            if exports(u, d):
                push(heap, (ln_of(u) + 1, d, u))
    # (b) changed offers: every node phases 1-2 changed re-announces
    for s in dict.fromkeys(changed_any):
        hop = ln_of(s) + 1
        for c in cnbr[coff[s] : coff[s + 1]]:
            if exports(s, c):
                push(heap, (hop, c, s))
    while heap:
        hop, r, s = pop(heap)
        if r == legit_i or r == L:
            continue
        visited.add(r)
        c = rc_of(r)
        if c < 2:
            continue  # customer/peer routes beat provider offers
        if c == 2:
            existing = ln_of(r)
            if hop > existing:
                continue
            if hop == existing:
                par = cur_par.get(r)
                if par is None:
                    par = cur_par[r] = base_parents(r)
                    cur_rc[r] = 2
                    cur_ln[r] = existing
                par.add(s)
                continue
        # strictly better provider route, or the first offer reaching a
        # reset (dirty) or never-routed node
        cur_rc[r] = 2
        cur_ln[r] = hop
        cur_par[r] = {s}
        nxt = hop + 1
        for cch in cnbr[coff[r] : coff[r + 1]]:
            if exports(r, cch):
                push(heap, (nxt, cch, r))

    # ------------------------------------------------------------------
    # origin taint: BFS down the best-route DAG from the leaker.  A
    # node's origins gain the leak key exactly when some parent's did;
    # children are found through the adjacency rows and confirmed
    # against the (combined) parent sets.
    # ------------------------------------------------------------------
    tainted: set[int] = {L}
    parent_cache: dict[int, set[int]] = {}
    queue = [L]
    while queue:
        t = queue.pop()
        for off, nbr in ((poff, pnbr), (coff, cnbr), (qoff, qnbr)):
            for v in nbr[off[t] : off[t + 1]]:
                if v in tainted or v == legit_i:
                    continue
                if rc_of(v) == _NO_ROUTE:
                    continue
                par = parent_cache.get(v)
                if par is None:
                    par = parent_cache[v] = parents_of(v)
                if t in par:
                    tainted.add(v)
                    visited.add(v)
                    queue.append(v)

    # ------------------------------------------------------------------
    # exact origin masks over the affected region, in increasing length
    # order (parents are one hop shorter, so they finalize first)
    # ------------------------------------------------------------------
    affected = set(cur_rc) | tainted
    omask: dict[int, int] = {L: _LEAK_BIT, legit_i: _LEGIT_BIT}
    for i in sorted(affected - {L, legit_i}, key=ln_of):
        if rc_of(i) == _NO_ROUTE:
            continue
        mask = 0
        for p in parents_of(i):
            mask |= omask.get(p, _LEGIT_BIT)
        omask[i] = mask

    overrides = {i: (cur_rc[i], cur_ln[i], cur_par[i]) for i in cur_rc}
    return DeltaRoutingState(baseline, leak, overrides, omask, len(visited))
