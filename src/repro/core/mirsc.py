"""MIRS-C: Modulo scheduling with Integrated Register Spilling and
Cluster assignment - the paper's contribution (Figure 4).

The driver below follows the paper's skeleton step by step::

    Procedure MIRS-C (G) {
      S = empty; II = MII;
      Priority_List = Order_HRMS(G);
      WHILE (!Priority_List.empty()) {
    (1)   Budget = Budget_Ratio * Number_Nodes(G);
    (2)   U = Priority_List.highest_priority();
    (C1)  i = Select_Cluster(G, S, U);
    (C2)  WHILE (Need_Move(G, S, U, i)) {
            move = Add_Move(G, U, i); Schedule(G, S, move, i); }
    (3)   Schedule(G, S, U, i);
    (4)   IF (Priority_List.empty()) Register_Allocation(G, S);
    (5)   Check_and_Insert_Spill(G, S, Priority_List);
    (6)   IF (Restart_Schedule(G, Budget)) {
            Re_Initialize(II++, S, Priority_List); GOTO (1); }
          Budget--;
      }
    (7) Print(II, S);
    }

The fixed-II inner loop (steps (1)-(6)) lives in
:class:`repro.core.attempts.AttemptEngine`.  The II search over it
(the paper's ladder, or any registered
:class:`~repro.core.search.IISearchPolicy`) always runs through
:class:`~repro.core.attempts.SpeculativeSearchDriver`: at width K=1 it
executes one attempt at a time in-process, at K>1 it races K candidate
IIs over a process pool with bit-identical committed results.  The
accepted attempt becomes a result through
:func:`repro.core.result.converged_result`.

On a single-cluster machine steps C1/C2 degenerate (the cluster is always
0 and no moves are ever needed) and the algorithm *is* MIRS [33], the
non-clustered variant - exposed as :class:`Mirs` for clarity.
"""

from __future__ import annotations

import dataclasses
import time

from repro.errors import ConvergenceError, SchedulingError
from repro.core.attempts import SpeculativeSearchDriver
from repro.core.params import MirsParams, max_ii_for
from repro.core.result import ScheduleResult, converged_result
from repro.core.state import SchedulerStats
from repro.graph.ddg import DependenceGraph
from repro.graph.mii import compute_mii
from repro.machine.config import MachineConfig
from repro.obs import resolve_tracer
from repro.obs.metrics import SearchStats, outcome_histogram
from repro.order.hrms import hrms_order


class MirsC:
    """The MIRS-C scheduler.

    Args:
        machine: target configuration.
        params: algorithm parameters (paper defaults when omitted).
        verify: re-validate every produced schedule (cheap; on by default).
        strict: with the paper's parameters MIRS-C always converges, so
            hitting the II cap raises :class:`ConvergenceError`; pass
            ``strict=False`` (as the parameter-ablation benchmarks do) to
            get a ``converged=False`` result instead.
        search: II-search policy — a registered name (``"linear"``,
            ``"geometric"``) or an
            :class:`~repro.core.search.IISearchPolicy` instance.
            Overrides ``params.ii_search``; the default is the paper's
            linear ladder.
        speculation: speculative II-search width K — overrides
            ``params.speculation`` (``None`` keeps the param's own
            resolution: field, then ``REPRO_SPECULATION``, then the
            serial search).
        tracer: structured-trace sink — a
            :class:`~repro.obs.Tracer`, ``True`` (process-global
            tracer), ``False`` (off, overriding the environment) or
            ``None`` (follow ``REPRO_TRACE``).  See :mod:`repro.obs`.
    """

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams | None = None,
        verify: bool = True,
        strict: bool = True,
        search=None,
        speculation: int | None = None,
        tracer=None,
    ):
        self.machine = machine
        self.params = params or MirsParams()
        if search is not None:
            self.params = dataclasses.replace(self.params, ii_search=search)
        if speculation is not None:
            self.params = dataclasses.replace(
                self.params, speculation=speculation
            )
        self.verify = verify
        self.strict = strict
        self.tracer = resolve_tracer(tracer)

    # ------------------------------------------------------------------

    def schedule(self, graph: DependenceGraph) -> ScheduleResult:
        """Schedule one loop; always converges (spilling guarantees it).

        The II ladder is driven by the configured
        :class:`~repro.core.search.IISearchPolicy`: each attempt's
        :class:`~repro.core.search.AttemptOutcome` is fed back to the
        policy, which names the next II (or ends the search).  The
        lowest II whose attempt scheduled wins — its verified state is
        retained even when the policy goes on probing, so the accepted
        schedule never needs a re-run.  The full
        ``(ii, outcome)`` trace lands in ``result.stats.search_trace``.

        The search runs through the
        :class:`~repro.core.attempts.SpeculativeSearchDriver` at the
        effective speculation width K: K=1 runs one attempt at a time
        in-process, K > 1 races K attempts concurrently (losers
        cancelled); the committed result is fingerprint-identical by
        construction.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._schedule_inner(graph)
        token = tracer.begin("schedule", "schedule", loop=graph.name)
        try:
            result = self._schedule_inner(graph)
        except Exception as exc:
            tracer.end(token, error=type(exc).__name__)
            raise
        tracer.end(
            token,
            converged=result.converged,
            ii=result.ii,
            mii=result.mii,
            restarts=result.restarts,
        )
        return result

    def _schedule_inner(self, graph: DependenceGraph) -> ScheduleResult:
        tracer = self.tracer
        started = time.perf_counter()
        prepare = (
            tracer.begin("phase.prepare", "schedule", loop=graph.name)
            if tracer.enabled
            else None
        )
        pristine = graph.clone()
        ordering = hrms_order(pristine, self.machine)
        mii = compute_mii(pristine, self.machine)
        limit = max_ii_for(mii, len(pristine), self.params)
        if prepare is not None:
            tracer.end(prepare, mii=mii, limit=limit, nodes=len(pristine))

        speculation = self.params.effective_speculation()
        # Opened before the driver is built: spinning up the attempt
        # pool is part of the search cost, and the phases must tile the
        # schedule span (the summary gates coverage near 1.0).
        search_span = (
            tracer.begin(
                "phase.search", "schedule",
                mii=mii, limit=limit, speculation=speculation,
            )
            if tracer.enabled
            else None
        )
        # Only the race consults the per-attempt cache: a serial search
        # leaves no per-attempt entries on disk.
        driver = SpeculativeSearchDriver(
            self.machine, self.params, speculation,
            cache=None if speculation > 1 else False,
            tracer=tracer,
        )
        found = driver.search(pristine, ordering.priority, mii, limit)
        best = found.best
        if search_span is not None:
            tracer.end(
                search_span,
                attempts=len(found.path),
                executed=found.stats.executed_attempts,
                best_ii=None if best is None else best.ii,
            )
        elapsed = time.perf_counter() - started
        if best is None:
            return self._give_up(
                pristine, mii, limit,
                path_iis=[r.ii for r in found.path],
                trace_entries=found.trace,
                elapsed=elapsed,
                search=found.stats,
            )

        finalize_span = (
            tracer.begin("phase.finalize", "schedule", ii=best.ii)
            if tracer.enabled
            else None
        )
        stats = best.stats
        stats.search_trace = found.trace
        stats.search = found.stats
        result = converged_result(
            best.graph,
            best.schedule,
            self.machine,
            mii=mii,
            memory_traffic=best.memory_traffic,
            stats=stats,
            # The attempts that did not produce the accepted schedule
            # (= failed attempts under linear search).
            restarts=len(found.path) - 1,
            seconds=elapsed,
            spilled_invariants=best.spilled_invariants,
            verify=self.verify,
            scheduler="MIRS-C",
        )
        if finalize_span is not None:
            tracer.end(
                finalize_span,
                registers=result.total_registers_used,
                spills=result.spill_operations,
                moves=result.move_operations,
            )
        return result

    def _give_up(
        self,
        pristine: DependenceGraph,
        mii: int,
        limit: int,
        *,
        path_iis: list[int],
        trace_entries: list[dict],
        elapsed: float,
        search: SearchStats,
    ) -> ScheduleResult:
        """Non-convergence: raise (strict) or report (non-strict).

        ``path_iis`` is the serial-equivalent attempt sequence in search
        order; under jumping policies its last element is *not* the
        highest II probed (geometric backfill descends), so the error
        carries both.  The strict-mode message folds in the
        failure-kind histogram of the attempt trace so the dominant
        failure mode is visible without re-running under a tracer.
        """
        if self.strict:
            if not path_iis:  # a cap below MII runs no attempt
                raise ConvergenceError(
                    f"MIRS-C failed to schedule {pristine.name}: the II "
                    f"cap {limit} is below MII={mii}, so no II was tried"
                )
            last_ii = path_iis[-1]
            highest_ii = max(path_iis)
            histogram = outcome_histogram(trace_entries)
            detail = ", ".join(
                f"{kind}={count}" for kind, count in histogram.items()
            )
            raise ConvergenceError(
                f"MIRS-C failed to schedule {pristine.name}: no feasible "
                f"II found in {len(path_iis)} attempt(s) up to II="
                f"{highest_ii} (last probed II={last_ii}, cap {limit})"
                + (f"; attempt outcomes: {detail}" if detail else ""),
                last_ii=last_ii,
                highest_ii=highest_ii,
                kind_histogram=histogram,
            )
        return ScheduleResult(
            loop=pristine.name,
            machine=self.machine,
            converged=False,
            ii=limit,
            mii=mii,
            restarts=len(path_iis),
            scheduling_seconds=elapsed,
            stats=SchedulerStats(
                search_trace=trace_entries,
                search=search,
            ),
            trip_count=pristine.trip_count,
        )


class Mirs(MirsC):
    """MIRS - the non-clustered special case of MIRS-C [33].

    On a single-cluster machine MIRS-C's cluster steps are inert, so MIRS
    is implemented as MIRS-C restricted to ``clusters == 1``; constructing
    it with a clustered machine is an error.
    """

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams | None = None,
        verify: bool = True,
        strict: bool = True,
        search=None,
        speculation: int | None = None,
        tracer=None,
    ):
        if machine.clusters != 1:
            raise SchedulingError(
                "Mirs targets unified (single-cluster) machines; "
                "use MirsC for clustered configurations"
            )
        super().__init__(
            machine, params=params, verify=verify, strict=strict,
            search=search, speculation=speculation, tracer=tracer,
        )
