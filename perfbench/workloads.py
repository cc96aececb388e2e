"""The benchmark's workloads: their inputs, one loop-machine pair's
pipeline, and the per-pair rows the checks and metrics are built from.

A *pair* is one loop on one machine.  Each workload's pass sends its
pairs one after another (a closed loop with one client: the next pair
starts only when the previous one has finished) through the whole
pipeline: schedule, emit, statically certify, and simulate at the
loop's declared trip count against the reference interpreter.  Corpus
kernels also pass the three-link source differential, which shares
that simulation as its second link.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro import LoopBuilder, MirsC, parse_config
from repro.analysis import certifier
from repro.codegen import emitter
from repro.core.params import MirsParams, SmtParams
from repro.exec.cache import ResultCache
from repro.exec.hashing import result_fingerprint
from repro.frontend import differential as source_differential
from repro.frontend.corpus import load_corpus
from repro.sim import differential
from repro.smt.problem import relaxation_covers, span_within_horizon
from repro.smt.scheduler import SmtScheduler
from repro.workloads.perfect import DEFAULT_SEED, cached_suite
from repro.workloads.stress import STRESS_SEED, stress_suite

#: The paper's two reference machines: unified and 4-cluster.
MACHINES = ("1-(GP8M4-REG64)", "4-(GP2M1-REG32)")
UNIFIED = MACHINES[0]
#: Workbench size (the 16-loop subset every gate in the repo uses).
WORKBENCH_LOOPS = 16
#: Exact backend: default parameters, native engine pinned so an
#: optional z3 install cannot change the workload.
EXACT_PARAMS = MirsParams(smt=SmtParams(engine="native"))
#: Speculation width of the ``race`` workload.
RACE_WIDTH = min(2, os.cpu_count() or 1)

WHY = {
    "pipeline": (
        "16 workbench loops plus 12 parsed corpus kernels on both "
        "reference machines: the whole source-to-simulation pipeline, "
        "with cluster moves and REG32 spills"
    ),
    "exact": (
        "exact backend over the 28-loop optimality table on the unified "
        "machine: the only workload that runs the smt solver"
    ),
    "race": (
        "stress0-stress1 under geometric search with speculation through "
        "the shared attempt pool: the only workload racing attempts in "
        "worker processes"
    ),
    "stress": (
        "stress0-stress3 under geometric search: scheduling-bound, "
        "MRT/pressure/spill heavy; stress2 never converges by design"
    ),
}
WORKLOADS = tuple(WHY)


@dataclasses.dataclass(frozen=True)
class Pair:
    """One loop on one machine."""

    loop: str
    machine_name: str
    machine: object
    graph: object
    #: The lowered corpus kernel, for the source differential.
    lowered: object = None


@dataclasses.dataclass
class Row:
    """What one pair produced (one row of the per-loop results)."""

    loop: str
    machine: str
    nodes: int
    converged: bool = False
    ii: int | None = None
    mii: int | None = None
    attempts: int = 0
    spills: int = 0
    moves: int = 0
    sim_cycles: int = 0
    code_instrs: int = 0
    seconds: float = 0.0
    #: Host speed right after the pair, relative to the reference speed
    #: (see ``speed.py``); ``seconds * speed`` is the normalized time.
    speed: float | None = None
    #: Exact workload: heuristic II, solver verdict, steps, proof.
    heuristic_ii: int | None = None
    verdict: str | None = None
    steps: int = 0
    proven_lower: int | None = None
    optimal: bool = False
    #: Speculative-search ledger (race workload).
    search: dict | None = None
    #: Why the pair failed (empty when it did not).
    failures: list = dataclasses.field(default_factory=list)
    #: A produced output was wrong or could not be checked.
    wrong: bool = False
    fingerprint: str = ""

    @property
    def key(self) -> tuple[str, str]:
        return (self.loop, self.machine)

    def counts(self, *, simulated: bool = True) -> tuple:
        """Everything that must repeat exactly between two executions."""
        return (
            self.converged, self.ii, self.mii, self.spills, self.moves,
            self.code_instrs, self.heuristic_ii, self.verdict, self.steps,
            self.proven_lower, self.fingerprint,
            self.sim_cycles if simulated else None,
        )

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["seconds"] = round(self.seconds, 6)
        return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def build_pairs(
    workload: str,
    workbench_seed: int = DEFAULT_SEED,
    stress_seed: int = STRESS_SEED,
) -> list[Pair]:
    """Generate or parse a workload's inputs (set-up, never timed)."""
    unified = parse_config(UNIFIED)
    if workload in ("stress", "race"):
        count = 4 if workload == "stress" else 2
        return [
            Pair(graph.name, UNIFIED, unified, graph)
            for graph in stress_suite(count, stress_seed)
        ]
    workbench = [
        (loop.graph.name, loop.graph, None)
        for loop in cached_suite(WORKBENCH_LOOPS, workbench_seed)
    ]
    corpus = [(kernel.name, kernel.graph, kernel) for kernel in load_corpus()]
    names = MACHINES if workload == "pipeline" else (UNIFIED,)
    return [
        Pair(name, machine_name, parse_config(machine_name), graph, lowered)
        for machine_name in names
        for name, graph, lowered in workbench + corpus
    ]


def warm_race_pool() -> None:
    """Start the shared speculative attempt pool on a small loop, so the
    worker start-up cost lands in set-up rather than the first pass."""
    b = LoopBuilder("warmup", trip_count=16)
    x = b.load(array=0)
    b.store(b.add(b.mul(x, b.invariant("a")), b.load(array=1)), array=1)
    MirsC(
        parse_config(UNIFIED), strict=False, search="geometric",
        speculation=RACE_WIDTH,
    ).schedule(b.build())


# ----------------------------------------------------------------------
# One pair
# ----------------------------------------------------------------------


def run_pair(
    workload: str,
    pair: Pair,
    *,
    reference: bool = False,
    simulate: bool = True,
) -> Row:
    """Carry one pair through its workload's pipeline.

    ``reference`` selects the check execution's mode: identical to the
    primary one except that ``race`` runs the serial search, whose
    results the race must reproduce.  ``simulate=False`` stops after
    emission (the counts, without the certifier and the simulator).  Exceptions are caught here, at the boundary of one
    pair, and recorded as the pair's failure.
    """
    row = Row(pair.loop, pair.machine_name, len(pair.graph))
    started = time.perf_counter()
    try:
        if workload == "exact":
            _exact(pair, row, simulate)
        else:
            search = None if workload == "pipeline" else "geometric"
            width = RACE_WIDTH if workload == "race" and not reference else 1
            result = MirsC(
                pair.machine, strict=False, search=search, speculation=width
            ).schedule(pair.graph)
            _schedule_fields(row, result)
            if result.stats.search is not None:
                row.search = result.stats.search.as_dict()
            if not result.converged:
                row.failures.append("not converged")
            else:
                _emit_certify_simulate(pair, result, row, simulate)
    except Exception as exc:  # the pair's failure, recorded; the pass goes on
        row.failures.append(f"exception {type(exc).__name__}: {exc}")
        row.wrong = True
    row.seconds = time.perf_counter() - started
    return row


def _schedule_fields(row: Row, result) -> None:
    row.converged = result.converged
    row.ii = result.ii if result.converged else None
    row.mii = result.mii
    row.attempts = len(result.stats.search_trace)
    row.spills = result.spill_operations
    row.moves = result.move_operations
    row.fingerprint = result_fingerprint(result)


def _emit_certify_simulate(pair: Pair, result, row: Row, simulate: bool):
    code = emitter.generate_code(result)
    row.code_instrs = len(code.all_instructions())
    if not simulate:
        return
    report = certifier.certify_code(code, result)
    if not report.ok:
        row.failures.append(
            f"certifier: {len(report.violations)} violation(s)"
        )
        row.wrong = True
    trip_count = result.trip_count
    # Link 2 of the source differential is this same differential; the
    # memo hands it the report computed here, so the work is unchanged
    # and the simulated cycles are read off the report.
    memo = _Memo() if pair.lowered is not None else False
    check = differential.run_differential(result, trip_count, cache=memo)
    row.sim_cycles = (
        check.simulation.useful_cycles + check.simulation.stall_cycles
    )
    if pair.lowered is not None:
        check = source_differential.run_source_differential(
            pair.lowered, result, trip_count, cache=memo
        )
    if not check.match:
        row.failures.append("differential mismatch")
        row.wrong = True


class _Memo(ResultCache):
    """An in-memory result cache scoped to one pair."""

    def __init__(self):
        self.entries = {}

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, result):
        self.entries[key] = result


def _exact(pair: Pair, row: Row, simulate: bool) -> None:
    """Heuristic II for the gate, then the exact backend's verdict."""
    heuristic = MirsC(pair.machine, strict=False, speculation=1).schedule(
        pair.graph
    )
    exact = SmtScheduler(pair.machine, EXACT_PARAMS, strict=False).schedule(
        pair.graph
    )
    _schedule_fields(row, exact)
    row.fingerprint += result_fingerprint(heuristic)
    oracle = exact.oracle or {}
    certificates = oracle.get("certificates", [])
    row.heuristic_ii = heuristic.ii if heuristic.converged else None
    row.verdict = oracle.get("status")
    row.steps = sum(c["steps"] for c in certificates)
    row.attempts = sum(1 for c in certificates if c["verdict"] != "mii")
    row.proven_lower = oracle.get("proven_lower_ii")
    row.optimal = bool(oracle.get("proven_optimal"))
    if not heuristic.converged:
        row.failures.append("heuristic not converged")
    elif _below_lower_bound(heuristic, row.proven_lower, certificates):
        row.failures.append(
            f"heuristic II {heuristic.ii} below proven lower bound "
            f"{row.proven_lower}"
        )
        row.wrong = True
    if exact.converged:
        _emit_certify_simulate(pair, exact, row, simulate)


def _below_lower_bound(heuristic, lower, certificates) -> bool:
    """The optimality table's soundness gate for one loop."""
    covered, _ = relaxation_covers(heuristic)
    if not covered or lower is None or heuristic.ii >= lower:
        return False
    horizon = next(
        (
            c.get("horizon")
            for c in certificates
            if c.get("ii") == heuristic.ii and c.get("verdict") == "unsat"
        ),
        None,
    )
    return horizon is None or span_within_horizon(heuristic, horizon)
