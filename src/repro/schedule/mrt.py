"""The modulo reservation table (MRT).

A modulo schedule at initiation interval II repeats every II cycles, so a
resource used at cycle *t* is used at *every* cycle congruent with
``t mod II``.  The MRT therefore has II rows per resource instance, and an
operation can be placed at cycle *t* only if every resource group of its
reservation (resolved by :class:`~repro.machine.reservation.ReservationResolver`)
finds a free instance at all of the group's rows.

Two non-trivial cases (both called out by the paper):

* unpipelined operations reserve the *same* FU instance for several
  consecutive rows; if their occupancy exceeds II the reservation
  collides with itself and the placement is impossible at this II;
* move operations reserve resources in *two* clusters plus a global bus
  (the "complex reservation table" of Section 1), which is what makes
  them hard to place and ejection so valuable.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.graph.ddg import Node
from repro.machine.config import MachineConfig
from repro.machine.reservation import ReservationResolver
from repro.machine.resources import ResourceClass


class ModuloReservationTable:
    """Tracks resource occupancy per (resource class, cluster, instance, row)."""

    def __init__(self, machine: MachineConfig, ii: int):
        if ii < 1:
            raise SchedulingError("initiation interval must be positive")
        self.machine = machine
        self.ii = ii
        # (resource, cluster) -> list over instances of row->node_id dicts.
        # Buses use cluster = -1.  Unbounded buses are not tracked at all.
        self._tables: dict[tuple[ResourceClass, int], list[dict[int, int]]] = {}
        for cluster in range(machine.clusters):
            for resource in (
                ResourceClass.GP_FU,
                ResourceClass.MEM_PORT,
                ResourceClass.OUT_PORT,
                ResourceClass.IN_PORT,
            ):
                count = machine.instances(resource)
                self._tables[(resource, cluster)] = [dict() for _ in range(count)]
        if machine.buses is not None:
            self._tables[(ResourceClass.BUS, -1)] = [
                dict() for _ in range(machine.buses)
            ]
        # node_id -> list of (resource, cluster, instance, row) it holds.
        self._held: dict[int, list[tuple[ResourceClass, int, int, int]]] = {}
        self._reservations = ReservationResolver(machine, ii)

    def _free_instance(
        self, resource: ResourceClass, cluster: int, rows: list[int]
    ) -> int | None:
        """First instance with all the given rows free, or ``None``."""
        for index, table in enumerate(self._tables[(resource, cluster)]):
            if all(row not in table for row in rows):
                return index
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def can_place(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> bool:
        """True if the node fits at (cluster, cycle) without conflicts."""
        groups = self._reservations.groups(
            node.kind, cluster, cycle, src_cluster
        )
        if groups is None:
            return False
        return all(
            self._free_instance(resource, target, rows) is not None
            for resource, target, rows in groups
        )

    def feasible_at_ii(
        self,
        node: Node,
        cluster: int,
        src_cluster: int | None = None,
    ) -> bool:
        """True unless the node's reservation self-collides at this II
        (which no amount of ejection can fix)."""
        groups = self._reservations.groups(node.kind, cluster, 0, src_cluster)
        return groups is not None

    def blocking_nodes(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> set[int]:
        """Nodes that currently block this placement.

        For each resource group the instance with the fewest distinct
        occupants is considered (that is the instance a forced placement
        would evict from), and those occupants are returned.
        """
        groups = self._reservations.groups(
            node.kind, cluster, cycle, src_cluster
        )
        if groups is None:
            raise SchedulingError(
                f"node {node.id} cannot be force-placed at II={self.ii}: "
                "its reservation table collides with itself"
            )
        victims: set[int] = set()
        for resource, target, rows in groups:
            tables = self._tables[(resource, target)]
            best: set[int] | None = None
            for table in tables:
                occupants = {table[row] for row in rows if row in table}
                if not occupants:
                    best = set()
                    break
                if best is None or len(occupants) < len(best):
                    best = occupants
            if best:
                victims |= best
        return victims

    def occupancy_fraction(
        self, resource: ResourceClass, cluster: int
    ) -> float:
        """Fraction of this resource's MRT slots currently occupied."""
        key = (resource, cluster if not resource.is_global else -1)
        if key not in self._tables:
            return 0.0
        tables = self._tables[key]
        total = len(tables) * self.ii
        if total == 0:
            return 1.0
        used = sum(len(table) for table in tables)
        return used / total

    def holds(self, node_id: int) -> bool:
        return node_id in self._held

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def place(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> None:
        """Reserve the node's resources; raises on conflict."""
        if node.id in self._held:
            raise SchedulingError(f"node {node.id} is already placed")
        groups = self._reservations.groups(
            node.kind, cluster, cycle, src_cluster
        )
        if groups is None:
            raise SchedulingError(
                f"node {node.id} self-collides at II={self.ii}"
            )
        held: list[tuple[ResourceClass, int, int, int]] = []
        for resource, target, rows in groups:
            instance = self._free_instance(resource, target, rows)
            if instance is None:
                # Roll back partial reservations before failing.
                for res, tgt, inst, row in held:
                    del self._tables[(res, tgt)][inst][row]
                raise SchedulingError(
                    f"resource conflict placing node {node.id} at "
                    f"cluster {cluster} cycle {cycle}"
                )
            table = self._tables[(resource, target)][instance]
            for row in rows:
                table[row] = node.id
                held.append((resource, target, instance, row))
        self._held[node.id] = held

    def remove(self, node_id: int) -> None:
        """Release every reservation held by the node."""
        held = self._held.pop(node_id, None)
        if held is None:
            raise SchedulingError(f"node {node_id} holds no reservations")
        for resource, target, instance, row in held:
            del self._tables[(resource, target)][instance][row]
