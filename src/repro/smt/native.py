"""The built-in exact engine for fixed-II decision problems.

A systematic CSP search over the encoding in :mod:`repro.smt.problem`,
always available (no third-party solver): the z3-free CI matrix, the
examples and the differential tests all run on it, and the z3 backend
must agree with it verdict-for-verdict.

Search structure, outermost to innermost:

1. **Cluster assignments** (clustered machines only) are enumerated
   with first-use symmetry breaking (clusters are identical, so the
   first node to use a new cluster always picks the lowest unused
   index) and per-cluster load pruning (FU-cycle and memory-port sums
   against ``II * capacity``).
2. **Anchor normalization**: any schedule shifts by a multiple of II —
   preserving every MRT row and folded pressure row — until its
   earliest operation issues in ``[0, II)``; that operation has no
   incoming zero-distance dependence, so the search branches over those
   anchor candidates only, each with ``t_anchor < II`` and
   ``t_i >= t_anchor``.  Exhausting every anchor proves UNSAT over the
   whole horizon.
3. **Issue-cycle search**: bounds propagation over the dependence
   difference constraints (the move inequalities included), branching
   on the tightest-window variable with ascending values; every
   variable fixed by propagation or decision immediately reserves its
   MRT rows (per-row counts, plus exact instance packing where
   unpipelined multi-row reservations exist), and complete assignments
   take a final MaxLive check mirroring ``LifetimeAnalysis``.

The search is *deterministic* and budgeted in solver steps (decisions +
propagations), never wall-clock: a cached verdict is reproducible on
any machine.  Budget exhaustion yields ``"unknown"``, and an exhausted
search (no assignment left) is a genuine UNSAT certificate for the
problem's horizon.
"""

from __future__ import annotations

import dataclasses

from repro.core.verify import instances_assignable
from repro.machine.reservation import ReservationResolver
from repro.machine.resources import OpKind, ResourceClass
from repro.smt.problem import FixedIIProblem, MoveSlot

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class _Exhausted(Exception):
    """Internal: the step budget ran out mid-search."""


class _Budget:
    __slots__ = ("left", "total")

    def __init__(self, steps: int):
        self.left = steps
        self.total = steps

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise _Exhausted

    @property
    def spent(self) -> int:
        return self.total - max(self.left, 0)


@dataclasses.dataclass
class SolveOutcome:
    """Verdict of one fixed-II decision problem.

    ``times``/``clusters``/``move_times`` are populated for ``sat``
    (move send cycles in the producer's iteration frame, keyed by
    ``(producer, destination cluster)``).  ``steps`` is the
    deterministic work spent, whatever the verdict.
    """

    status: str
    times: dict[int, int] | None = None
    clusters: dict[int, int] | None = None
    move_times: dict[tuple[int, int], int] | None = None
    steps: int = 0


def solve_fixed_ii(problem: FixedIIProblem, step_budget: int) -> SolveOutcome:
    """Decide one fixed-II problem exactly (within the step budget)."""
    budget = _Budget(step_budget)
    try:
        for clusters in _cluster_assignments(problem, budget):
            solution = _solve_times(problem, clusters, budget)
            if solution is not None:
                times, move_times = solution
                return SolveOutcome(
                    status=SAT,
                    times=times,
                    clusters=clusters,
                    move_times=move_times,
                    steps=budget.spent,
                )
        return SolveOutcome(status=UNSAT, steps=budget.spent)
    except _Exhausted:
        return SolveOutcome(status=UNKNOWN, steps=budget.spent)


# ----------------------------------------------------------------------
# Cluster enumeration
# ----------------------------------------------------------------------


def _cluster_assignments(problem: FixedIIProblem, budget: _Budget):
    machine = problem.machine
    if machine.clusters == 1:
        yield dict.fromkeys(problem.nodes, 0)
        return
    ii = problem.ii
    gp_cap = ii * machine.cluster.gp_units
    mem_cap = ii * machine.cluster.mem_ports
    nodes = problem.nodes
    graph = problem.graph
    gp_load = [0] * machine.clusters
    mem_load = [0] * machine.clusters
    assignment: dict[int, int] = {}

    def feasible_moves(clusters: dict[int, int]) -> bool:
        """Port/bus counting prune over the activated move slots."""
        active = problem.active_slots(clusters)
        if machine.buses is not None and len(active) > ii * machine.buses:
            return False
        per_src: dict[int, int] = {}
        per_dst: dict[int, int] = {}
        out_cap = ii * machine.instances(ResourceClass.OUT_PORT)
        in_cap = ii * machine.instances(ResourceClass.IN_PORT)
        for slot in active:
            src = clusters[slot.producer]
            per_src[src] = per_src.get(src, 0) + 1
            per_dst[slot.dst] = per_dst.get(slot.dst, 0) + 1
            if per_src[src] > out_cap or per_dst[slot.dst] > in_cap:
                return False
        return True

    def extend(index: int):
        if index == len(nodes):
            if feasible_moves(assignment):
                yield dict(assignment)
            return
        nid = nodes[index]
        node = graph.node(nid)
        used = 1 + max(assignment.values(), default=-1)
        for cluster in range(min(machine.clusters, used + 1)):
            budget.spend()
            if node.kind.is_compute:
                demand = problem.occupancy[nid]
                if gp_load[cluster] + demand > gp_cap:
                    continue
                gp_load[cluster] += demand
            elif node.kind.is_memory:
                if mem_load[cluster] + 1 > mem_cap:
                    continue
                mem_load[cluster] += 1
            assignment[nid] = cluster
            yield from extend(index + 1)
            del assignment[nid]
            if node.kind.is_compute:
                gp_load[cluster] -= problem.occupancy[nid]
            elif node.kind.is_memory:
                mem_load[cluster] -= 1

    yield from extend(0)


# ----------------------------------------------------------------------
# Issue-cycle CSP under one cluster assignment
# ----------------------------------------------------------------------


class _TimeSearch:
    """Difference-constraint CSP with modulo resource reservations."""

    def __init__(
        self,
        problem: FixedIIProblem,
        clusters: dict[int, int],
        slots: list[MoveSlot],
        budget: _Budget,
    ):
        self.problem = problem
        self.machine = problem.machine
        self.ii = problem.ii
        self.clusters = clusters
        self.budget = budget
        self.nodes = problem.nodes
        self.var_of = dict(problem.var_of)
        self.slots = slots
        self.slot_var: dict[tuple[int, int], int] = {}
        nvars = len(self.nodes) + len(slots)
        horizon = problem.horizon
        self.lb = [0] * nvars
        self.ub = [horizon - 1] * nvars
        for i, slot in enumerate(slots):
            var = len(self.nodes) + i
            self.slot_var[(slot.producer, slot.dst)] = var
            maxd = max(
                (d for v, d in slot.active_consumers(clusters)), default=0
            )
            self.ub[var] = horizon - 1 + self.ii * maxd
        self.out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
        self.in_arcs: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
        self.fixed = [False] * nvars
        self.infeasible = not self._build_arcs()
        self.reservations = ReservationResolver(self.machine, self.ii)
        # (resource, cluster) -> [row counts, capacity, masks or None].
        # Masks are tracked only where exact multi-row packing matters
        # (GP pools hosting unpipelined operations).
        self.pools: dict[tuple[ResourceClass, int], list] = {}
        self.trail: list[tuple] = []

    # -- model construction -------------------------------------------

    def _arc(self, u: int, v: int, w: int) -> bool:
        """Add ``t_v >= t_u + w``; False when trivially inconsistent."""
        if u == v:
            return w <= 0
        self.out_arcs[u].append((v, w))
        self.in_arcs[v].append((u, w))
        return True

    def _build_arcs(self) -> bool:
        ii = self.ii
        problem = self.problem
        clusters = self.clusters
        move_latency = self.machine.move_latency
        for src, dst, distance, latency in problem.order_edges:
            if not self._arc(
                self.var_of[src], self.var_of[dst], latency - ii * distance
            ):
                return False
        for src, dst, distance, latency in problem.reg_edges:
            if clusters[src] == clusters[dst]:
                if not self._arc(
                    self.var_of[src], self.var_of[dst], latency - ii * distance
                ):
                    return False
            else:
                slot_var = self.slot_var[(src, clusters[dst])]
                # Send after the value exists; deliver before the use.
                self._arc(self.var_of[src], slot_var, problem.latency[src])
                self._arc(slot_var, self.var_of[dst], move_latency - ii * distance)
        return True

    # -- trail / bounds -----------------------------------------------

    def _set_lb(self, var: int, value: int, queue: list[int]) -> bool:
        if value <= self.lb[var]:
            return True
        if value > self.ub[var]:
            return False
        self.trail.append(("lb", var, self.lb[var]))
        self.lb[var] = value
        queue.append(var)
        if value == self.ub[var]:
            return self._on_fixed(var)
        return True

    def _set_ub(self, var: int, value: int, queue: list[int]) -> bool:
        if value >= self.ub[var]:
            return True
        if value < self.lb[var]:
            return False
        self.trail.append(("ub", var, self.ub[var]))
        self.ub[var] = value
        queue.append(var)
        if value == self.lb[var]:
            return self._on_fixed(var)
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            entry = self.trail.pop()
            kind = entry[0]
            if kind == "lb":
                self.lb[entry[1]] = entry[2]
            elif kind == "ub":
                self.ub[entry[1]] = entry[2]
            elif kind == "fix":
                self.fixed[entry[1]] = False
            elif kind == "row":
                self.pools[entry[1]][0][entry[2]] -= 1
            else:  # "mask"
                self.pools[entry[1]][2].pop()

    def _propagate(self, queue: list[int]) -> bool:
        while queue:
            var = queue.pop()
            self.budget.spend()
            base_lb = self.lb[var]
            for succ, w in self.out_arcs[var]:
                if not self._set_lb(succ, base_lb + w, queue):
                    return False
            base_ub = self.ub[var]
            for pred, w in self.in_arcs[var]:
                if not self._set_ub(pred, base_ub - w, queue):
                    return False
        return True

    # -- resource reservations ----------------------------------------

    def _pool(self, resource: ResourceClass, cluster: int) -> list:
        key = (resource, cluster)
        pool = self.pools.get(key)
        if pool is None:
            capacity = self.machine.instances(resource)
            track_masks = resource is ResourceClass.GP_FU and any(
                occ > 1 for occ in self.problem.occupancy.values()
            )
            pool = [[0] * self.ii, capacity, [] if track_masks else None]
            self.pools[key] = pool
        return pool

    def _reserve(
        self, resource: ResourceClass, cluster: int, rows: list[int]
    ) -> bool:
        pool = self._pool(resource, cluster)
        counts, capacity, masks = pool
        key = (resource, cluster)
        mask = 0
        for row in rows:
            if counts[row] + 1 > capacity:
                return False
            counts[row] += 1
            self.trail.append(("row", key, row))
            mask |= 1 << row
        if masks is not None:
            masks.append(mask)
            self.trail.append(("mask", key))
            self.budget.spend(len(masks))
            if not instances_assignable(list(masks), capacity):
                return False
        return True

    def _on_fixed(self, var: int) -> bool:
        self.trail.append(("fix", var))
        self.fixed[var] = True
        value = self.lb[var]
        if var < len(self.nodes):
            nid = self.nodes[var]
            groups = self.reservations.groups(
                self.problem.graph.node(nid).kind, self.clusters[nid], value
            )
        else:
            slot = self.slots[var - len(self.nodes)]
            groups = self.reservations.groups(
                OpKind.MOVE, slot.dst, value, self.clusters[slot.producer]
            )
        return groups is not None and all(
            self._reserve(resource, cluster, rows)
            for resource, cluster, rows in groups
        )

    # -- search --------------------------------------------------------

    def _pick(self) -> int | None:
        best = None
        best_width = None
        for var in range(len(self.lb)):
            if self.fixed[var]:
                continue
            width = self.ub[var] - self.lb[var]
            if best_width is None or width < best_width:
                best, best_width = var, width
        return best

    def _leaf_ok(self) -> bool:
        caps = self.problem.register_caps
        if not caps:
            return True
        self.budget.spend(len(self.nodes))
        times = {nid: self.lb[self.var_of[nid]] for nid in self.nodes}
        move_times = {key: self.lb[var] for key, var in self.slot_var.items()}
        pressure = self.problem.pressure_rows(times, self.clusters, move_times)
        return all(
            max(pressure[cluster], default=0) <= cap
            for cluster, cap in caps.items()
        )

    def _dfs(self) -> bool:
        var = self._pick()
        if var is None:
            return self._leaf_ok()
        for value in range(self.lb[var], self.ub[var] + 1):
            self.budget.spend()
            mark = len(self.trail)
            queue: list[int] = []
            ok = (
                self._set_lb(var, value, queue)
                and self._set_ub(var, value, queue)
                and self._propagate(queue)
            )
            if ok and self._dfs():
                return True
            self._undo(mark)
        return False

    def solve_anchored(self, anchor: int) -> bool:
        """Search with ``t_anchor < II`` and every node at/after it."""
        mark = len(self.trail)
        anchor_var = self.var_of[anchor]
        queue: list[int] = []
        ok = self._set_ub(anchor_var, self.ii - 1, queue)
        if ok:
            for var in range(len(self.nodes)):
                if var == anchor_var:
                    continue
                # t_i >= t_anchor: encode via the anchor's lower bound
                # (the anchor is pinned to [0, II) so a one-shot bound
                # suffices; full arcs would slow propagation for no
                # extra pruning once lb[anchor] is 0).
                if self.lb[var] < self.lb[anchor_var]:
                    ok = self._set_lb(var, self.lb[anchor_var], queue)
                    if not ok:
                        break
        if ok and self._propagate(queue) and self._dfs():
            return True
        self._undo(mark)
        return False


def _solve_times(
    problem: FixedIIProblem,
    clusters: dict[int, int],
    budget: _Budget,
) -> tuple[dict[int, int], dict[tuple[int, int], int]] | None:
    slots = problem.active_slots(clusters)
    search = _TimeSearch(problem, clusters, slots, budget)
    if search.infeasible:
        return None
    for anchor in problem.anchor_candidates():
        if search.solve_anchored(anchor):
            times = {nid: search.lb[search.var_of[nid]] for nid in problem.nodes}
            move_times = {
                key: search.lb[var] for key, var in search.slot_var.items()
            }
            return times, move_times
    return None
