"""Reservation tables for VLIW operations.

A reservation table describes which resources an operation holds and at
which cycle offsets relative to its issue cycle.  Most operations have
trivial tables (one FU or port for one cycle).  The two interesting cases,
which the paper calls out explicitly, are:

* **unpipelined operations** (division, square root) hold their
  general-purpose unit for their whole latency, and
* **move operations** are "a coupled send-receive pair in the
  source-destination cluster which is a complex operation (in terms of
  reservation table)" (Section 1): they hold the *output port* of the
  source cluster and one *bus* at the issue cycle, and the *input port*
  of the destination cluster when the value arrives, ``lambda_m - 1``
  cycles later.

:class:`ReservationResolver` folds these tables onto the rows of a
modulo reservation table at one II.  It is the single definition of
"which (resource, cluster, rows) does this placement hold" shared by
the scheduler's MRT, the schedule verifier and the exact backend.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import ConfigError, SchedulingError
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind, ResourceClass


class ClusterRole(enum.Enum):
    """Which cluster a reservation step refers to.

    ``SELF`` is the cluster the operation is assigned to.  For moves the
    destination cluster is the assigned one (the move *defines* its value
    there), so ``SELF`` doubles as the destination; ``SOURCE`` is the
    cluster the value comes from.  ``GLOBAL`` marks interconnect resources
    that do not belong to any cluster.
    """

    SELF = "self"
    SOURCE = "source"
    GLOBAL = "global"


@dataclasses.dataclass(frozen=True)
class ReservationStep:
    """One resource usage of an operation.

    Attributes:
        resource: the resource class used.
        role: which cluster the resource belongs to.
        offset: cycle offset relative to the operation's issue cycle.
        duration: number of consecutive cycles the resource stays busy.
        same_instance: steps sharing a ``same_instance`` group key must be
            satisfied by a single physical resource instance (an
            unpipelined divide cannot hop between FUs mid-flight).
    """

    resource: ResourceClass
    role: ClusterRole
    offset: int
    duration: int = 1
    same_instance: int = 0

    def rows(self, ii: int) -> list[int]:
        """MRT rows occupied by this step at initiation interval ``ii``."""
        return [(self.offset + i) % ii for i in range(self.duration)]


def reservation_steps(
    kind: OpKind, machine: MachineConfig
) -> tuple[ReservationStep, ...]:
    """Reservation table of an operation kind on the given machine.

    Returns the steps in a canonical order (FU/port steps first).  All
    offsets are relative to the issue cycle of the operation.
    """
    if kind.is_compute:
        return (
            ReservationStep(
                resource=ResourceClass.GP_FU,
                role=ClusterRole.SELF,
                offset=0,
                duration=machine.occupancy(kind),
                same_instance=1,
            ),
        )
    if kind.is_memory:
        return (
            ReservationStep(
                resource=ResourceClass.MEM_PORT,
                role=ClusterRole.SELF,
                offset=0,
                duration=1,
            ),
        )
    if kind is OpKind.MOVE:
        return (
            ReservationStep(
                resource=ResourceClass.OUT_PORT,
                role=ClusterRole.SOURCE,
                offset=0,
                duration=1,
            ),
            ReservationStep(
                resource=ResourceClass.BUS,
                role=ClusterRole.GLOBAL,
                offset=0,
                duration=1,
            ),
            ReservationStep(
                resource=ResourceClass.IN_PORT,
                role=ClusterRole.SELF,
                offset=machine.move_latency - 1,
                duration=1,
            ),
        )
    raise ConfigError(f"no reservation table for operation kind {kind}")


#: One resolved reservation: ``(resource, cluster or -1, rows)``.  A
#: single resource instance must be free at every row of the group;
#: global resources (buses) use cluster ``-1``.
ReservationGroup = tuple[ResourceClass, int, list[int]]


class ReservationResolver:
    """Resolves operation reservation tables at one initiation interval.

    Steps are cached per operation kind, with unbounded buses (never a
    constraint) already dropped and kinds whose occupancy exceeds II
    marked as self-colliding, so a lookup only maps rows.
    """

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        self.machine = machine
        self.ii = ii
        self._steps: dict[OpKind, tuple[ReservationStep, ...] | None] = {}

    def _kind_steps(self, kind: OpKind) -> tuple[ReservationStep, ...] | None:
        steps = tuple(
            step
            for step in reservation_steps(kind, self.machine)
            if not (
                step.resource is ResourceClass.BUS and self.machine.buses is None
            )
        )
        if any(step.duration > self.ii for step in steps):
            return None  # one instance would collide with itself
        return steps

    def groups(
        self,
        kind: OpKind,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> list[ReservationGroup] | None:
        """The reservation groups of an operation issued at ``cycle``.

        ``cluster`` is the operation's own cluster (a move's
        destination); ``src_cluster`` is a move's source cluster.
        Returns ``None`` when the reservation collides with itself
        (occupancy exceeds II), which no placement can fix.
        """
        try:
            steps = self._steps[kind]
        except KeyError:
            steps = self._steps[kind] = self._kind_steps(kind)
        if steps is None:
            return None
        ii = self.ii
        groups: list[ReservationGroup] = []
        for step in steps:
            if step.role is ClusterRole.SELF:
                target = cluster
            elif step.role is ClusterRole.GLOBAL:
                target = -1
            elif src_cluster is None:
                raise SchedulingError(
                    f"{kind.value} placed without a source cluster"
                )
            else:
                target = src_cluster
            start = cycle + step.offset
            groups.append(
                (
                    step.resource,
                    target,
                    [(start + i) % ii for i in range(step.duration)],
                )
            )
        return groups


def max_occupancy(machine: MachineConfig, kinds: set[OpKind]) -> int:
    """Largest single-resource occupancy among the given operation kinds.

    Any operation that keeps one physical unit busy for *o* consecutive
    cycles cannot be placed in a modulo reservation table with ``II < o``
    (its own reservations would collide with themselves, one iteration
    later).  ``ResMII`` must therefore be at least this value.
    """
    occ = 1
    for kind in kinds:
        if kind.is_compute:
            occ = max(occ, machine.occupancy(kind))
    return occ
