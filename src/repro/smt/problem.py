"""Solver-neutral encoding of fixed-II modulo scheduling.

The exact backend decomposes optimal modulo scheduling the way the
solver-based schedulers in PAPERS.md do (Roorda's SMT software
pipelining, SAT-MapIt): a *decision problem* per candidate II — "does a
valid modulo schedule at exactly this II exist?" — plus an outer search
that ascends from MII collecting UNSAT certificates until the first
feasible II.  This module owns the decision problem's encoding; the
engines (:mod:`repro.smt.native`, :mod:`repro.smt.z3backend`) only
decide *how* to search it.

Model
-----

Variables: one issue cycle ``t_i`` per node, one cluster ``c_i`` per
node (clustered machines), and one send cycle ``tau_{p,c}`` per
*potential* inter-cluster move — the pair ``(producer p, destination
cluster c)``, mirroring the heuristic's "one move per (value,
destination cluster)" rule.  Move send cycles live in the *producer's*
iteration frame: ``tau >= t_p + latency(p)`` and each cross-cluster
consumer obeys ``t_v >= tau + move_latency - II * distance(p, v)``.
This subsumes the heuristic's distance-splitting (producer edge carries
``min(distances)``, consumer edges the residual) because the frame
shift is a multiple of II and therefore invisible to the modulo
reservation rows and to the folded register-pressure count.

Constraints:

* dependence inequalities across the back-edge —
  ``t_dst - t_src - latency + II * distance >= 0`` (through the move
  pair when the endpoints sit in different clusters);
* exact per-row resource sums for GP FUs (occupancy rows for
  unpipelined operations, with exact instance packing), memory ports,
  and per-move OUT_PORT @ source / BUS / IN_PORT @ destination;
* a MaxLive-style per-cluster register bound that mirrors
  :class:`repro.schedule.lifetimes.LifetimeAnalysis` bit for bit
  (row folding of each value's ``[def, last-use)`` interval, plus one
  register per cluster consuming each loop invariant).

Soundness of the bound
----------------------

The model is a *relaxation* of what the heuristic emits whenever the
heuristic result uses no spill code, no invariant spilling and no
chained moves (:func:`relaxation_covers`): any such schedule maps
directly onto a satisfying assignment, so an UNSAT verdict at II is a
machine-checked proof that the heuristic cannot beat II either.  All
certificates are *horizon-relative*: "no schedule whose issue cycles
fit in ``[0, horizon)``" — every certificate records the horizon it was
proven under, and comparisons must check the heuristic's schedule span
against it (:func:`ScheduleResult` spans beyond the horizon are not
refuted).  II values below MII need no solver at all: the analytic
ResMII/RecMII argument (:mod:`repro.graph.mii`) is their certificate.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SchedulingError
from repro.graph.ddg import DepKind, DependenceGraph
from repro.graph.latency import edge_latency, node_latency
from repro.machine.config import MachineConfig
from repro.machine.reservation import ReservationResolver
from repro.machine.resources import OpKind, ResourceClass

#: Extra kernel stages of schedule-length headroom beyond the
#: critical-path bound.  Every UNSAT certificate records the horizon it
#: was proven under; raising this widens the claim (and the search
#: space).
HORIZON_STAGES = 2


@dataclasses.dataclass(frozen=True)
class MoveSlot:
    """One potential inter-cluster move: (producer, destination cluster).

    ``consumers`` lists every register edge of the producer as
    ``(consumer id, distance)``; a slot is *active* under a cluster
    assignment iff the producer sits in another cluster and at least one
    consumer sits in ``dst``.  ``var`` is the slot's variable index in
    the problem's flat variable space (nodes first, slots after).
    """

    producer: int
    dst: int
    var: int
    consumers: tuple[tuple[int, int], ...]

    def active_consumers(self, clusters: dict[int, int]) -> list[tuple[int, int]]:
        return [(v, d) for v, d in self.consumers if clusters[v] == self.dst]


class FixedIIProblem:
    """The fixed-II decision problem for one pristine loop.

    Accepts only pristine graphs (no move or spill nodes): the exact
    model *derives* communication, and spilling is deliberately outside
    the relaxation (see the module docstring).
    """

    def __init__(
        self,
        graph: DependenceGraph,
        machine: MachineConfig,
        ii: int,
        *,
        register_caps: dict[int, int] | None = None,
    ):
        if ii < 1:
            raise SchedulingError("initiation interval must be positive")
        for node in graph.nodes():
            if node.is_move or node.is_spill:
                raise SchedulingError(
                    "the exact backend schedules pristine loops only "
                    f"(node {node.id} is a {'move' if node.is_move else 'spill'})"
                )
        self.graph = graph
        self.machine = machine
        self.ii = ii
        self.nodes: list[int] = sorted(graph.node_ids())
        self.var_of = {nid: i for i, nid in enumerate(self.nodes)}
        self.latency = {
            nid: node_latency(graph.node(nid), machine) for nid in self.nodes
        }
        self.occupancy = {
            nid: machine.occupancy(graph.node(nid).kind)
            for nid in self.nodes
            if graph.node(nid).kind.is_compute
        }
        #: Register edges between distinct nodes: (src, dst, distance,
        #: direct latency).  The direct latency is what a same-cluster
        #: placement must respect (edge override included); the
        #: cross-cluster path uses producer latency + move latency.
        self.reg_edges: list[tuple[int, int, int, int]] = []
        #: Ordering edges (memory/control) plus same-node register
        #: self-edges: always direct, never moved.
        self.order_edges: list[tuple[int, int, int, int]] = []
        for edge in sorted(
            graph.edges(), key=lambda e: (e.src, e.dst, e.kind.value, e.distance)
        ):
            latency = edge_latency(graph, edge, machine)
            item = (edge.src, edge.dst, edge.distance, latency)
            if edge.kind is DepKind.REG and edge.src != edge.dst:
                self.reg_edges.append(item)
            else:
                self.order_edges.append(item)
        #: Potential move slots, only on clustered machines.
        self.slots: list[MoveSlot] = []
        self.slot_of: dict[tuple[int, int], MoveSlot] = {}
        if machine.clusters > 1:
            consumers: dict[int, list[tuple[int, int]]] = {}
            for src, dst, distance, _ in self.reg_edges:
                consumers.setdefault(src, []).append((dst, distance))
            var = len(self.nodes)
            for producer in sorted(consumers):
                for cluster in range(machine.clusters):
                    slot = MoveSlot(
                        producer=producer,
                        dst=cluster,
                        var=var,
                        consumers=tuple(consumers[producer]),
                    )
                    self.slots.append(slot)
                    self.slot_of[(producer, cluster)] = slot
                    var += 1
        self.horizon = self._compute_horizon()
        #: Per-cluster register caps (``None`` = unbounded).  Callers
        #: tighten individual clusters when the allocator's arc
        #: colouring lands above MaxLive (the paper's footnote-2 gap).
        self.register_caps = dict(register_caps or {})
        self.invariants: list[tuple[int, tuple[int, ...]]] = [
            (inv.id, tuple(sorted(inv.consumers)))
            for inv in sorted(graph.invariants(), key=lambda i: i.id)
        ]

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def _compute_horizon(self) -> int:
        """Absolute cycle bound H: issue cycles range over ``[0, H)``.

        Any modulo schedule can be shifted down by a multiple of II
        (which preserves every reservation row and every folded
        pressure row) until its earliest issue cycle lies in
        ``[0, II)``, so bounding the *span* bounds the problem without
        losing schedules of that span.  The span allowance is the
        longest zero-distance dependence path (with a move-latency
        surcharge per hop on clustered machines) plus
        :data:`HORIZON_STAGES` extra kernel stages of headroom.
        """
        surcharge = self.machine.move_latency if self.machine.clusters > 1 else 0
        # Longest path over the intra-iteration (distance 0) DAG.
        longest = {nid: self.latency[nid] for nid in self.nodes}
        for nid in self._zero_distance_topo():
            for edge in self.graph.out_edges(nid):
                if edge.distance != 0:
                    continue
                latency = edge_latency(self.graph, edge, self.machine)
                reach = longest[nid] + latency + surcharge
                if reach > longest.get(edge.dst, 0):
                    longest[edge.dst] = reach
        span = max(longest.values(), default=1)
        stages = -(-span // self.ii) + HORIZON_STAGES
        return self.ii * (stages + 1)

    def _zero_distance_topo(self) -> list[int]:
        """Topological order of the distance-0 subgraph (always a DAG:
        the builder rejects zero-distance cycles)."""
        indeg = {nid: 0 for nid in self.nodes}
        for edge in self.graph.edges():
            if edge.distance == 0 and edge.src != edge.dst:
                indeg[edge.dst] += 1
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for edge in self.graph.out_edges(nid):
                if edge.distance != 0 or edge.src == edge.dst:
                    continue
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
            ready.sort()
        if len(order) != len(self.nodes):
            raise SchedulingError("zero-distance dependence cycle in input")
        return order

    def anchor_candidates(self) -> list[int]:
        """Nodes that can be the earliest-issued operation.

        In any schedule the argmin-cycle node has no incoming
        zero-distance edge of positive latency (its predecessor would
        issue strictly earlier), so the normalized search — "some anchor
        issues in ``[0, II)`` and nothing issues before it" — only needs
        to branch over these sources.
        """
        blocked: set[int] = set()
        for edge in self.graph.edges():
            if edge.distance == 0 and edge.src != edge.dst:
                if edge_latency(self.graph, edge, self.machine) > 0:
                    blocked.add(edge.dst)
        return [nid for nid in self.nodes if nid not in blocked]

    def active_slots(self, clusters: dict[int, int]) -> list[MoveSlot]:
        """Slots activated by a full cluster assignment."""
        active = []
        for slot in self.slots:
            if clusters[slot.producer] == slot.dst:
                continue
            if any(clusters[v] == slot.dst for v, _ in slot.consumers):
                active.append(slot)
        return active

    # ------------------------------------------------------------------
    # Register pressure (the exact mirror of LifetimeAnalysis)
    # ------------------------------------------------------------------

    def pressure_rows(
        self,
        times: dict[int, int],
        clusters: dict[int, int],
        move_times: dict[tuple[int, int], int],
    ) -> dict[int, list[int]]:
        """Per-cluster live-value count per MRT row.

        Mirrors :class:`~repro.schedule.lifetimes.LifetimeAnalysis`:
        every non-store node's value lives from its issue cycle to the
        max of (issue + latency, each same-cluster use at
        ``t_use + II * distance``); each active move both extends its
        producer's lifetime (the send reads it) and creates a copy
        lifetime in the destination cluster.  Lifetimes longer than II
        contribute one live instance per wrapped stage.  Loop invariants
        add one register per cluster with a consumer.
        """
        ii = self.ii
        graph = self.graph
        rows = {c: [0] * ii for c in range(self.machine.clusters)}
        bases = {c: 0 for c in range(self.machine.clusters)}

        def fold(cluster: int, start: int, end: int) -> None:
            full, rest = divmod(end - start, ii)
            bases[cluster] += full
            if rest:
                first = start % ii
                for k in range(rest):
                    rows[cluster][(first + k) % ii] += 1

        for nid in self.nodes:
            node = graph.node(nid)
            if node.kind is OpKind.STORE:
                continue
            cluster = clusters[nid]
            start = times[nid]
            end = start + self.latency[nid]
            for edge in graph.out_edges(nid):
                if edge.kind is not DepKind.REG:
                    continue
                if clusters[edge.dst] == cluster:
                    end = max(end, times[edge.dst] + ii * edge.distance)
            for c in range(self.machine.clusters):
                tau = move_times.get((nid, c))
                if tau is not None:
                    end = max(end, tau)
            fold(cluster, start, end)
        for (producer, dst), tau in sorted(move_times.items()):
            slot = self.slot_of[(producer, dst)]
            end = tau + self.machine.move_latency
            for v, d in slot.active_consumers(clusters):
                end = max(end, times[v] + ii * d)
            fold(dst, tau, end)
        totals = {
            c: [bases[c] + r for r in rows[c]] for c in rows
        }
        for _, consumer_ids in self.invariants:
            held = {clusters[v] for v in consumer_ids}
            for c in held:
                totals[c] = [r + 1 for r in totals[c]]
        return totals

    # ------------------------------------------------------------------
    # Full solution check (belt and braces over any engine)
    # ------------------------------------------------------------------

    def check_solution(
        self,
        times: dict[int, int],
        clusters: dict[int, int],
        move_times: dict[tuple[int, int], int],
    ) -> list[str]:
        """Independent validation of an engine's model; [] = valid."""
        from repro.core.verify import pool_overflow

        ii = self.ii
        machine = self.machine
        violations: list[str] = []
        active = {
            (s.producer, s.dst) for s in self.active_slots(clusters)
        }
        if active != set(move_times):
            violations.append(
                f"move slots {sorted(active)} active but times given for "
                f"{sorted(move_times)}"
            )
            return violations

        for src, dst, distance, latency in self.reg_edges:
            if clusters[src] == clusters[dst]:
                slack = times[dst] - times[src] - latency + ii * distance
                if slack < 0:
                    violations.append(
                        f"dependence {src}->{dst} violated by {-slack}"
                    )
            else:
                tau = move_times[(src, clusters[dst])]
                if tau < times[src] + self.latency[src]:
                    violations.append(f"move ({src},{clusters[dst]}) sends early")
                slack = times[dst] - tau - machine.move_latency + ii * distance
                if slack < 0:
                    violations.append(
                        f"moved dependence {src}->{dst} violated by {-slack}"
                    )
        for src, dst, distance, latency in self.order_edges:
            slack = times[dst] - times[src] - latency + ii * distance
            if slack < 0:
                violations.append(
                    f"ordering {src}->{dst} violated by {-slack}"
                )

        # Resources: exact per-pool packing, as the verifier does.
        reservations = ReservationResolver(machine, ii)
        placements = [
            (f"node {nid}", self.graph.node(nid).kind, clusters[nid], times[nid], None)
            for nid in self.nodes
        ] + [
            (f"move {slot}", OpKind.MOVE, slot[1], tau, clusters[slot[0]])
            for slot, tau in move_times.items()
        ]
        pools: dict[tuple[ResourceClass, int], list[int]] = {}
        for name, kind, cluster, cycle, source in placements:
            groups = reservations.groups(kind, cluster, cycle, source)
            if groups is None:
                violations.append(f"{name} occupancy exceeds II")
                continue
            for resource, target, rows in groups:
                pools.setdefault((resource, target), []).append(
                    sum(1 << row for row in rows)
                )
        for (resource, cluster), masks in sorted(
            pools.items(), key=lambda kv: (kv[0][0].name, kv[0][1])
        ):
            row = pool_overflow(masks, machine.instances(resource), ii)
            if row is not None and row >= 0:
                violations.append(
                    f"{resource.name}@{cluster} over capacity in row {row}"
                )
            elif row is not None:
                violations.append(
                    f"{resource.name}@{cluster} admits no instance packing"
                )

        if self.register_caps:
            pressure = self.pressure_rows(times, clusters, move_times)
            for cluster, cap in sorted(self.register_caps.items()):
                peak = max(pressure[cluster], default=0)
                if peak > cap:
                    violations.append(
                        f"cluster {cluster} MaxLive {peak} exceeds cap {cap}"
                    )
        return violations


def relaxation_covers(result) -> tuple[bool, str]:
    """Is a heuristic :class:`ScheduleResult` inside the exact model?

    The exact model forbids spill code, invariant spilling and chained
    moves (a move whose producer is itself a move); heuristic results
    using any of those live outside the relaxation, so the SMT lower
    bound does not apply to them.  Returns ``(covered, reason)``.
    """
    if not result.converged:
        return False, "not converged"
    if result.spill_operations > 0:
        return False, "spill code"
    graph = result.graph
    if graph is None:
        return False, "no graph attached"
    for node in graph.nodes():
        if not node.is_move:
            continue
        if node.move_of_invariant is not None:
            return False, "invariant spill"
        if node.move_of is not None and graph.node(node.move_of).is_move:
            return False, "chained moves"
    return True, ""


def span_within_horizon(result, horizon: int) -> bool:
    """Does a schedule, shift-normalized, fit inside a certificate horizon?

    UNSAT certificates are horizon-relative ("no schedule with issue
    cycles in ``[0, horizon)``"), and shifting by a multiple of II is
    the only free normalization — so a heuristic schedule contradicts a
    certificate at its II only if its earliest-cycle-normalized span
    still fits the horizon.  Schedules spanning beyond it are simply
    not refuted.
    """
    if not result.times:
        return True
    low = min(result.times.values())
    high = max(result.times.values())
    return low % result.ii + (high - low) < horizon
