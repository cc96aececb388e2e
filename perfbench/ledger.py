"""The layer ledger: per-layer call counts and self time, from outside.

Every layer's public entry points are wrapped by patching the name
where callers look it up: a class attribute for methods, and every
``repro.*`` module binding of the same function object
for module-level functions.  Nothing under ``src/`` is instrumented;
:meth:`LayerLedger.uninstall` puts every original back.

Each wrapped call is a span, timed twice: an *inner* interval around
the original call only, and an *outer* one around the whole wrapper.
A nesting stack charges each span's outer interval to its parent as
child time, so a span's *self* time is its inner interval minus its
children's outer ones: the program's own time, without the tracer's.
The difference between outer and inner (stack, clock reads, counting,
tracer calls) goes to the ``obs`` layer, together with the part of each
wrapper call that no clock read can see, calibrated per call on a no-op
(:func:`calibrate`).  The self times of all layers, ``obs`` included,
add up exactly to the summed outer intervals of the outermost spans;
whatever the traced wall holds outside them is ``unattributed_s``.

Hot leaf calls (MRT probes, pressure events, slot windows) are only
aggregated in place.  Coarse boundaries (one schedule, one attempt, one
solver call, one emission, certification or simulation) are also
recorded as spans, each with its id and its parent's, into a
:class:`repro.obs.RecordingTracer`, and written out at the end with
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import statistics
import sys
import time

#: Layer names, as the per-layer metrics report them.
LAYERS = (
    "frontend",
    "graph",
    "order",
    "core",
    "core.verify",
    "cluster",
    "schedule.mrt",
    "schedule.slots",
    "schedule.pressure",
    "schedule.colouring",
    "schedule.regalloc",
    "spill",
    "codegen",
    "analysis",
    "sim",
    "smt",
    "obs",
)


@dataclasses.dataclass(frozen=True)
class Entry:
    """One wrapped entry point."""

    module: str
    #: ``"function"`` or ``"Class.method"``.
    target: str
    layer: str
    #: Span name; defaults to ``<layer>.<function or method>``.
    span: str | None = None
    #: Also record each call as a span in the tracer.
    record: bool = False

    @property
    def name(self) -> str:
        return self.span or f"{self.layer}.{self.target.split('.')[-1]}"


ENTRIES = (
    # frontend: the source side of the three-link differential.
    Entry("repro.frontend.differential", "run_source_differential",
          "frontend", record=True),
    Entry("repro.frontend.reference", "SourceInterpreter.run", "frontend",
          span="frontend.source_run", record=True),
    # graph
    Entry("repro.graph.mii", "compute_mii", "graph", record=True),
    Entry("repro.graph.ddg", "DependenceGraph.clone", "graph"),
    # order
    Entry("repro.order.hrms", "hrms_order", "order", record=True),
    # core: the scheduler, one attempt, the speculative race.
    Entry("repro.core.mirsc", "MirsC.schedule", "core", span="schedule",
          record=True),
    Entry("repro.core.attempts", "AttemptEngine.run", "core",
          span="attempt", record=True),
    Entry("repro.core.attempts", "SpeculativeSearchDriver.search", "core",
          span="core.race.search", record=True),
    Entry("repro.core.attempts", "PoolAttemptRunner.wait", "core",
          span="core.race.wait", record=True),
    Entry("repro.core.verify", "verify_schedule", "core.verify",
          record=True),
    Entry("repro.core.verify", "instances_assignable", "core.verify"),
    # cluster
    Entry("repro.cluster.selection", "select_cluster", "cluster"),
    Entry("repro.cluster.moves", "next_needed_move", "cluster"),
    Entry("repro.cluster.moves", "add_move", "cluster"),
    Entry("repro.cluster.moves", "add_invariant_move", "cluster"),
    Entry("repro.cluster.balance", "balance_register_pressure", "cluster"),
    # schedule.mrt
    Entry("repro.schedule.mrt", "ModuloReservationTable.can_place",
          "schedule.mrt"),
    Entry("repro.schedule.mrt", "ModuloReservationTable.place",
          "schedule.mrt"),
    Entry("repro.schedule.mrt", "ModuloReservationTable.remove",
          "schedule.mrt"),
    Entry("repro.schedule.mrt", "ModuloReservationTable.feasible_at_ii",
          "schedule.mrt"),
    Entry("repro.schedule.mrt", "ModuloReservationTable.blocking_nodes",
          "schedule.mrt"),
    # schedule.slots
    Entry("repro.schedule.slots", "dependence_window", "schedule.slots"),
    Entry("repro.schedule.slots", "find_free_slot", "schedule.slots"),
    Entry("repro.schedule.slots", "forced_cycle", "schedule.slots"),
    Entry("repro.schedule.slots", "violates_dependences", "schedule.slots"),
    # schedule.pressure: construction, the five events, the queries.
    Entry("repro.schedule.pressure", "PressureTracker.__init__",
          "schedule.pressure", span="schedule.pressure.attach"),
    *(
        Entry("repro.schedule.pressure", f"PressureTracker.{method}",
              "schedule.pressure")
        for method in (
            "on_place", "on_eject", "on_edge_added", "on_edge_removed",
            "on_node_removed", "max_live", "max_live_all", "critical_row",
            "pressure", "lifetimes", "segments", "segments_in_cluster",
            "lifetime_bounds", "lifetime_length", "invariant_registers",
            "variant_rows", "total_max_live",
        )
    ),
    # schedule.colouring
    Entry("repro.schedule.colouring", "IncrementalArcColouring.__init__",
          "schedule.colouring", span="schedule.colouring.attach"),
    *(
        Entry("repro.schedule.colouring",
              f"IncrementalArcColouring.{method}", "schedule.colouring")
        for method in (
            "on_lifetime_changed", "cluster_colouring",
            "variant_registers", "registers_used", "registers_used_all",
        )
    ),
    # schedule.regalloc
    Entry("repro.schedule.regalloc", "allocate_registers",
          "schedule.regalloc"),
    # spill
    Entry("repro.spill.heuristics", "check_and_insert_spill", "spill"),
    # codegen / analysis / sim
    Entry("repro.codegen.emitter", "generate_code", "codegen", record=True),
    Entry("repro.analysis.certifier", "certify_code", "analysis",
          record=True),
    Entry("repro.sim.differential", "run_differential", "sim",
          record=True),
    Entry("repro.sim.vliw", "VliwSimulator.run", "sim",
          span="sim.vliw_run", record=True),
    Entry("repro.sim.reference", "ReferenceInterpreter.run", "sim",
          span="sim.reference_run", record=True),
    # smt
    Entry("repro.smt.scheduler", "SmtScheduler.schedule", "smt",
          span="smt.schedule", record=True),
    Entry("repro.smt.native", "solve_fixed_ii", "smt", record=True),
)

#: Pressure-tracker methods that are events (the rest are queries).
PRESSURE_EVENTS = frozenset(
    f"schedule.pressure.{name}"
    for name in (
        "on_place", "on_eject", "on_edge_added", "on_edge_removed",
        "on_node_removed",
    )
)
#: MRT probe whose answers give ``schedule.mrt.fit_ratio``.
MRT_PROBE = "schedule.mrt.can_place"
#: Span arguments of recorded spans, from their call's arguments and
#: result (attempt spans carry ``ii``/``kind`` like the scheduler's own,
#: so ``repro trace summary`` renders their timeline).
DESCRIBE = {
    "schedule": lambda args, out: {"loop": out.loop, "ii": out.ii},
    "attempt": lambda args, out: {
        "ii": args[2], "kind": out[1].kind.value,
    },
    "smt.schedule": lambda args, out: {"loop": out.loop, "ii": out.ii},
    "smt.solve_fixed_ii": lambda args, out: {
        "ii": args[0].ii, "verdict": out.status, "steps": out.steps,
    },
}
#: Loops of wrapped no-op calls, and calls per loop, in :func:`calibrate`.
CALIBRATION_LOOPS = 7
CALIBRATION_CALLS = 5000
#: Spans whose calls each add one inter-cluster move.
MOVE_ADDERS = frozenset(("cluster.add_move", "cluster.add_invariant_move"))


class LayerLedger:
    """Wraps :data:`ENTRIES`, aggregates them, records coarse spans.

    Args:
        tracer: a :class:`repro.obs.RecordingTracer` receiving the
            recorded spans and, at :meth:`finish`, the aggregates as
            counter events.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        #: span name -> [calls, self seconds, inclusive seconds]
        self.spans: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        #: Counts observed at the boundaries (probe answers, verdicts...).
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []
        #: [wrapped calls, seconds] of the tracing itself.
        self._obs = [0, 0.0]
        #: Per-call wrapper cost outside its clock reads (:func:`calibrate`).
        self.residual_s = 0.0
        self._open_ids: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------

    def _count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _observer(self, name: str):
        """Counts a span contributes, from its arguments and result."""
        count = self._count
        if name == MRT_PROBE:
            def observe(args, out):
                if out:
                    count("schedule.mrt.fits")
        elif name in PRESSURE_EVENTS:
            def observe(args, out):
                count("schedule.pressure.events")
        elif name in MOVE_ADDERS:
            def observe(args, out):
                if out is not None:
                    count("cluster.moves_added")
        elif name == "attempt":
            def observe(args, out):
                count(f"core.outcome.{out[1].kind.value}")
        elif name == "smt.solve_fixed_ii":
            def observe(args, out):
                count(f"smt.verdict.{out.status}")
                count("smt.steps", out.steps)
        elif name == "analysis.certify_code":
            def observe(args, out):
                count("analysis.reads_checked", out.reads_checked)
        elif name == "sim.vliw_run":
            def observe(args, out):
                count(
                    "sim.cycles",
                    out.result.useful_cycles + out.result.stall_cycles,
                )
        else:
            observe = None
        return observe

    def _wrap(self, fn, entry: Entry):
        name = entry.name
        self.layer_of[name] = entry.layer
        cell = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        obs = self._obs
        clock = time.perf_counter
        observe = self._observer(name)
        spill = name == "spill.check_and_insert_spill"
        tracer = self.tracer if entry.record else None
        open_ids = self._open_ids
        describe = DESCRIBE.get(name)

        def book(entered, inner, children):
            """Charge one finished call: its self time to its span, its
            outer interval to its parent, the difference to ``obs``."""
            cell[0] += 1
            cell[1] += inner - children
            cell[2] += inner
            outer = clock() - entered + self.residual_s
            if stack:
                stack[-1][0] += outer
            obs[0] += 1
            obs[1] += outer - inner

        def wrapper(*args, **kwargs):
            entered = clock()
            if spill:
                stats = args[0].stats
                before = stats.spill_stores_added + stats.spill_loads_added
            if tracer is not None:
                span_id = self._next_id
                self._next_id += 1
                token = tracer.begin(
                    name, entry.layer, id=span_id,
                    parent=open_ids[-1] if open_ids else None,
                )
                open_ids.append(span_id)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                inner = clock() - start
                stack.pop()
                if tracer is not None:
                    open_ids.pop()
                    tracer.end(
                        token, self_s=round(inner - frame[0], 9),
                        error=type(exc).__name__,
                    )
                book(entered, inner, frame[0])
                raise
            inner = clock() - start
            stack.pop()
            if tracer is not None:
                open_ids.pop()
                tracer.end(
                    token, self_s=round(inner - frame[0], 9),
                    **(describe(args, out) if describe else {}),
                )
            if observe is not None:
                observe(args, out)
            if spill:
                self._count(
                    "spill.inserted",
                    stats.spill_stores_added + stats.spill_loads_added
                    - before,
                )
            book(entered, inner, frame[0])
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """A benchmark-side span (one loop-machine pair): recorded, and
        the parent of the layer spans inside it, but charged to no
        layer - its self time is part of ``unattributed_s``, its
        recording part of ``obs``."""
        entered = time.perf_counter()
        span_id = self._next_id
        self._next_id += 1
        token = self.tracer.begin(
            name, "bench", id=span_id,
            parent=self._open_ids[-1] if self._open_ids else None, **args,
        )
        self._open_ids.append(span_id)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            inner = time.perf_counter() - start
            self._stack.pop()
            self._open_ids.pop()
            self.tracer.end(token, self_s=round(inner - frame[0], 9))
            self._obs[1] += time.perf_counter() - entered - inner

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point where its callers look it up."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for entry in ENTRIES:
            owner = importlib.import_module(entry.module)
            if "." in entry.target:
                cls_name, attr = entry.target.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, entry))
                continue
            original = getattr(owner, entry.target)
            wrapper = self._wrap(original, entry)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back (in reverse patch order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer calls and self seconds."""
        totals = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
        }
        for name, (calls, self_s, _) in self.spans.items():
            layer = totals[self.layer_of[name]]
            layer["calls"] += calls
            layer["self_s"] += self_s
        totals["obs"]["calls"], totals["obs"]["self_s"] = self._obs
        return totals

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def finish(self) -> None:
        """Publish the aggregates into the tracer as counter events."""
        for layer, totals in self.layer_totals().items():
            self.tracer.counter(f"ledger.{layer}.calls", totals["calls"])
            self.tracer.counter(
                f"ledger.{layer}.self_s", round(totals["self_s"], 6)
            )
        for key, value in sorted(self.counts.items()):
            self.tracer.counter(f"ledger.{key}", value)



def calibrate() -> float:
    """Seconds per wrapped call that fall outside the wrapper's own
    outer interval: the call into the wrapper, and the code before its
    first and after its last clock read.  Measured on a wrapped no-op
    as a loop's time minus its outer intervals minus the bare loop's
    time; the median of :data:`CALIBRATION_LOOPS` loops."""
    from repro.obs import RecordingTracer

    ledger = LayerLedger(RecordingTracer())
    noop = ledger._wrap(lambda: None, Entry(__name__, "noop", "obs"))
    clock = time.perf_counter
    estimates = []
    for _ in range(CALIBRATION_LOOPS):
        frame = [0.0]
        ledger._stack.append(frame)
        started = clock()
        for _ in range(CALIBRATION_CALLS):
            noop()
        wrapped = clock() - started
        ledger._stack.pop()
        started = clock()
        for _ in range(CALIBRATION_CALLS):
            pass
        bare = clock() - started
        estimates.append((wrapped - frame[0] - bare) / CALIBRATION_CALLS)
    return max(0.0, statistics.median(estimates))
