"""Schedule results and derived metrics."""

from __future__ import annotations

import dataclasses

from repro.core.state import SchedulerStats
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.partial import PartialSchedule
from repro.schedule.regalloc import allocate_registers


@dataclasses.dataclass
class ScheduleResult:
    """The outcome of scheduling one loop on one machine configuration.

    Attributes:
        loop: the loop's name.
        machine: the target configuration.
        converged: False when the scheduler gave up (possible for the
            non-iterative baseline; MIRS-C always converges).
        ii: achieved initiation interval (meaningless when not converged).
        mii: the lower bound the search started from.
        times / clusters: per-node issue cycles and cluster assignments.
        register_usage: physical registers used per cluster (after
            allocation).
        max_live: MaxLive per cluster.
        memory_traffic: memory operations per iteration, spill included.
        spill_operations: spill loads+stores inserted.
        move_operations: inter-cluster moves in the final schedule.
        stage_count: kernel stages (depth of iteration overlap).
        restarts: times the II had to be increased.
        scheduling_seconds: wall-clock time spent scheduling.
        stats: low-level scheduler counters.
        graph: the final dependence graph (with spill/move nodes), used by
            the memory-hierarchy simulator.
        trip_count: loop trip count (from the workload).
    """

    loop: str
    machine: MachineConfig
    converged: bool
    ii: int
    mii: int
    times: dict[int, int] = dataclasses.field(default_factory=dict)
    clusters: dict[int, int] = dataclasses.field(default_factory=dict)
    register_usage: dict[int, int] = dataclasses.field(default_factory=dict)
    max_live: dict[int, int] = dataclasses.field(default_factory=dict)
    memory_traffic: int = 0
    spill_operations: int = 0
    move_operations: int = 0
    stage_count: int = 1
    restarts: int = 0
    scheduling_seconds: float = 0.0
    stats: SchedulerStats = dataclasses.field(default_factory=SchedulerStats)
    graph: DependenceGraph | None = None
    trip_count: int = 0
    #: Exact-backend verdict (``scheduler="smt"`` only): engine, status
    #: (``optimal`` / ``feasible`` / ``skipped`` / ``infeasible``), the
    #: proven lower II and the per-II certificate ledger.  ``None`` for
    #: heuristic results.  Like ``scheduling_seconds`` it is diagnostic
    #: provenance, deliberately outside ``result_fingerprint`` (which
    #: builds its payload explicitly).
    oracle: dict | None = None

    @property
    def execution_cycles(self) -> int:
        """Kernel cycles to run the whole loop, prologue/epilogue included.

        A software-pipelined loop with SC kernel stages executes for
        ``II * (N + SC - 1)`` cycles over N iterations.
        """
        if not self.converged:
            raise ValueError(f"loop {self.loop} did not converge")
        overlap = max(0, self.stage_count - 1)
        return self.ii * (self.trip_count + overlap)

    @property
    def total_registers_used(self) -> int:
        return sum(self.register_usage.values())

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "ok" if self.converged else "NOT CONVERGED"
        return (
            f"{self.loop}: II={self.ii} (MII={self.mii}) [{status}] "
            f"traffic={self.memory_traffic} moves={self.move_operations} "
            f"spills={self.spill_operations} "
            f"regs={self.register_usage}"
        )


def converged_result(
    graph: DependenceGraph,
    schedule: PartialSchedule,
    machine: MachineConfig,
    *,
    mii: int,
    memory_traffic: int,
    stats: SchedulerStats,
    restarts: int = 0,
    seconds: float = 0.0,
    spilled_invariants: set[tuple[int, int]] | frozenset = frozenset(),
    verify: bool,
    scheduler: str,
) -> ScheduleResult:
    """Summarise a finished schedule as a converged :class:`ScheduleResult`.

    The one place every backend (MIRS-C, the baseline [31] and the
    exact solver) turns a complete schedule into a result: a batch
    :class:`LifetimeAnalysis` gives MaxLive, :func:`allocate_registers`
    the per-cluster register usage, and the graph's spill and move
    nodes are counted.  The caller supplies what only it knows: the
    memory traffic, the counters, the restart count and the spilled
    invariants.  With ``verify`` the result is checked by
    :func:`verify_result`, whose error names ``scheduler``.
    """
    analysis = LifetimeAnalysis(
        graph, schedule, machine, spilled_invariants=spilled_invariants
    )
    allocations = allocate_registers(
        graph, schedule, machine, analysis,
        spilled_invariants=spilled_invariants,
    )
    scheduled = schedule.scheduled_ids()
    result = ScheduleResult(
        loop=graph.name,
        machine=machine,
        converged=True,
        ii=schedule.ii,
        mii=mii,
        times={n: schedule.time(n) for n in scheduled},
        clusters={n: schedule.cluster(n) for n in scheduled},
        register_usage={c: a.registers_used for c, a in allocations.items()},
        max_live={c: analysis.max_live(c) for c in range(machine.clusters)},
        memory_traffic=memory_traffic,
        spill_operations=sum(1 for n in graph.nodes() if n.is_spill),
        move_operations=graph.count_kind(OpKind.MOVE),
        stage_count=max(1, schedule.stage_count()),
        restarts=restarts,
        scheduling_seconds=seconds,
        stats=stats,
        graph=graph,
        trip_count=graph.trip_count,
    )
    if verify:
        verify_result(result, scheduler)
    return result


def verify_result(result: ScheduleResult, scheduler: str) -> None:
    """Raise :class:`SchedulingError` if ``result`` breaks a dependence,
    resource or register constraint (see :func:`verify_schedule`)."""
    violations = verify_schedule(
        result.graph,
        result.machine,
        result.ii,
        result.times,
        result.clusters,
        result.register_usage,
    )
    if violations:
        raise SchedulingError(
            f"{scheduler} produced an invalid schedule for {result.loop}: "
            + "; ".join(violations[:5])
        )
