"""Layer-ledger benchmark of the MIRS-C reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 5 --trace 0

One run carries one workload's loop-machine pairs through schedule,
emit, certify and simulate, one pair at a time (a closed loop with one
client), and prints a report followed, as its last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0``: passes with tracing off, repeated until ``--seconds``
  have been measured (at least one).  The last line carries the gated
  end-to-end metrics (:data:`GATED_END_TO_END`); the report above it
  prints every end-to-end metric.  Timings are also given normalized
  by the host-speed probe of ``speed.py``.
* ``--trace 1``: one pass with every layer's entry points wrapped from
  outside (``ledger.py``); the metrics are the per-layer ones.  The
  spans go to ``perfbench/results/<workload>-seed<n>.trace.jsonl``.

Then every pair that produced a schedule is scheduled and emitted again
with tracing off and must repeat every count (II, spills, moves,
emitted instructions, verdict, solver steps, result fingerprint).
After a traced pass every pair is repeated, undecided exact loops too,
and the repeat also certifies and simulates, so the simulated cycles
must repeat too and its timings price the tracing.
For ``race`` this check execution is the serial search, which the race
must reproduce.

``--seed`` fixes the order in which each pass sends its pairs.  The
loop sets come from ``--workbench-seed`` and ``--stress-seed``
(defaults 2001 and 7001; ``evidence.json`` names the held-out pair).
Per-loop rows, every metric and every check are written to
``perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 11
#: ``loop_ms.p90`` needs at least this many samples.
P90_MIN_SAMPLES = 100
#: The end-to-end metrics on the last line (BENCHMARK.json's list).
GATED_END_TO_END = (
    "setup_s", "loops_per_s.norm", "loop_ms.mid.norm", "peak_rss_mb",
)
#: Share of the per-pair latencies cut off at each end for
#: ``loop_ms.mid.norm`` (the mean of the p30-p70 band).
MID_TRIM = 0.3
#: Workloads whose pairs work in other processes, which a slice in
#: this one does not pause: their speed is sampled around pairs only.
WORKER_WORKLOADS = ("race",)
#: Pass-order seeds are derived per pass from ``--seed``.
PASS_SEED_STRIDE = 1_000_003
#: Per-layer counts taken as observed at the wrapped boundaries.
LEDGER_COUNTS = (
    "schedule.pressure.events", "spill.inserted", "cluster.moves_added",
    "analysis.reads_checked", "smt.steps",
    *(f"core.outcome.{kind}" for kind in (
        "scheduled", "budget", "traffic", "registers", "round-cap",
    )),
    *(f"smt.verdict.{verdict}" for verdict in ("sat", "unsat", "unknown")),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workbench-seed", type=int, default=None)
    parser.add_argument("--stress-seed", type=int, default=None)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Import the program from this checkout's ``src`` with every
    ``REPRO_*`` knob cleared and the on-disk result cache off."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path.insert(0, str(src))


def input_seeds(args) -> dict:
    from repro.workloads.perfect import DEFAULT_SEED
    from repro.workloads.stress import STRESS_SEED

    return {
        "workbench_seed": (
            DEFAULT_SEED if args.workbench_seed is None
            else args.workbench_seed
        ),
        "stress_seed": (
            STRESS_SEED if args.stress_seed is None else args.stress_seed
        ),
    }


def set_up(args):
    """Everything before the first pass: imports, inputs, race pool."""
    import workloads

    pairs = workloads.build_pairs(args.workload, **input_seeds(args))
    if args.workload == "race":
        workloads.warm_race_pool()
    return pairs


def time_setup(args) -> float:
    """Seconds from a fresh process's start until it is ready to pass."""
    argv = ["--workload", args.workload]
    for flag in ("workbench_seed", "stress_seed"):
        if getattr(args, flag) is not None:
            argv += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv, "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - started
    finally:
        probe.stdout.close()
        code = probe.wait()
    if ready != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


def time_setups(args) -> list[tuple[float, float]]:
    """(seconds, host speed) of :data:`SETUP_PROBES` fresh processes'
    set-up; a probe's speed is the mean of the speed slices around it."""
    from speed import speed_factor

    samples = []
    _, before = speed_factor(0.0)
    for _ in range(SETUP_PROBES):
        elapsed = time_setup(args)
        _, after = speed_factor(elapsed)
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


# ----------------------------------------------------------------------
# Passes and checks
# ----------------------------------------------------------------------


def run_pass(workload, pairs, seed, ledger=None, normalize=False, **mode):
    """One pass over ``pairs`` in the seed's order; (rows, wall).

    With ``normalize``, a host-speed slice precedes the pass and follows
    each pair, and untraced pairs are also sampled while they run (see
    ``speed.py``); a pair's speed is the mean of its slices, and the
    wall and the pair's seconds leave the slices out.  A traced pair is
    not sampled inside: the ledger would charge the slices to a layer;
    nor is a pair of :data:`WORKER_WORKLOADS`."""
    import workloads
    from speed import sampled, speed_factor

    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    rows = [None] * len(pairs)
    before = speed_factor(0.0)[1] if normalize else None
    started = time.perf_counter()
    slices = 0.0
    for index in order:
        pair = pairs[index]
        inside = []
        if ledger is not None:
            with ledger.span("pair", loop=pair.loop,
                             machine=pair.machine_name):
                row = workloads.run_pair(workload, pair, **mode)
        elif normalize and workload not in WORKER_WORKLOADS:
            with sampled() as inside:
                row = workloads.run_pair(workload, pair, **mode)
        else:
            row = workloads.run_pair(workload, pair, **mode)
        if normalize:
            row.seconds -= sum(seconds for seconds, _ in inside)
            spent, after = speed_factor(row.seconds)
            slices += spent + sum(seconds for seconds, _ in inside)
            row.speed = statistics.mean(
                [before, after, *(rate for _, rate in inside)]
            )
            before = after
        rows[index] = row
    return rows, time.perf_counter() - started - slices


def measure(args, pairs):
    """The timed passes, or the one traced pass; (passes, ledger)."""
    seed = args.seed * PASS_SEED_STRIDE
    if args.trace:
        from ledger import LayerLedger, calibrate

        from repro.obs import RecordingTracer

        ledger = LayerLedger(RecordingTracer())
        ledger.residual_s = calibrate()
        ledger.install()
        try:
            passes = [
                run_pass(args.workload, pairs, seed, ledger, normalize=True)
            ]
        finally:
            ledger.uninstall()
        ledger.finish()
        return passes, ledger

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(
            run_pass(args.workload, pairs, seed + len(passes), normalize=True)
        )
    return passes, None


def differing(primary, rows, *, simulated) -> list[str]:
    """Pairs whose counts in ``rows`` differ from the primary pass's."""
    by_key = {row.key: row for row in primary}
    return [
        f"{row.loop} on {row.machine}: counts differ"
        for row in rows
        if by_key[row.key].counts(simulated=simulated)
        != row.counts(simulated=simulated)
    ]


def check(args, pairs, passes) -> tuple[dict, dict]:
    """Check executions and output verdicts; (check rows, failed checks).

    Every pair that produced a schedule runs again with tracing off.
    After a traced pass every pair runs again, undecided exact loops
    included, so every traced count (solver verdicts and steps too) is
    compared with an untraced one; this repeat also simulates, so its
    timings price the tracing.  The race is also run through the serial
    search it must reproduce."""
    primary = passes[0][0]
    checks: dict[str, list[str]] = {}
    for index, (rows, _) in enumerate(passes[1:], start=1):
        problems = differing(primary, rows, simulated=True)
        if problems:
            checks[f"pass {index} repeats pass 0"] = problems

    executions = []  # (label, reference mode, simulate)
    if args.trace:
        executions.append(("repeat", False, True))
    if args.workload == "race":
        executions.append(("serial", True, False))
    elif not args.trace:
        executions.append(("repeat", False, False))
    repeated = pairs if args.trace else [
        pair for pair, row in zip(pairs, primary) if row.converged
    ]
    check_rows = {}
    seed = args.seed * PASS_SEED_STRIDE - 1
    for label, reference, simulate in executions:
        rows, _ = run_pass(
            args.workload, repeated, seed - len(check_rows),
            normalize=bool(args.trace), reference=reference,
            simulate=simulate,
        )
        check_rows[label] = rows
        problems = differing(primary, rows, simulated=simulate)
        if problems:
            checks[f"{label} execution repeats the counts"] = problems

    wrong = [
        f"{row.loop} on {row.machine}: {'; '.join(row.failures)}"
        for rows in [rows for rows, _ in passes] + list(check_rows.values())
        for row in rows
        if row.wrong
    ]
    if wrong:
        checks["outputs verified"] = wrong
    return check_rows, checks


def totals(rows) -> dict:
    """The workload counts of one pass."""
    converged = [row for row in rows if row.converged]
    return {
        "sum_ii": sum(row.ii for row in converged),
        "sim_cycles": sum(row.sim_cycles for row in rows),
        "code_instrs": sum(row.code_instrs for row in rows),
        "spill_ops": sum(row.spills for row in converged),
        "move_ops": sum(row.moves for row in converged),
    }


def middle_mean(values) -> float:
    """Mean of the values between the :data:`MID_TRIM` and
    ``1 - MID_TRIM`` quantiles: the typical pair's latency, averaged
    over a band of pairs, where a median rests on one or two pairs."""
    ordered = sorted(values)
    cut = int(len(ordered) * MID_TRIM)
    return statistics.mean(ordered[cut:len(ordered) - cut])


def spread(values) -> dict:
    """Median, quartiles and every value of one timing."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(workload, passes, setups) -> tuple[dict, dict]:
    """Every end-to-end metric of a run, and the spread of its timings."""
    rows = passes[0][0]
    every = [row for pass_rows, _ in passes for row in pass_rows]
    walls = [wall for _, wall in passes]
    normalized_walls = [
        sum(row.seconds * row.speed for row in pass_rows)
        for pass_rows, _ in passes
    ]
    setup_samples = [seconds for seconds, _ in setups]
    setup_normalized = [seconds * speed for seconds, speed in setups]
    samples = [row.seconds * 1000 for row in every]
    normalized = [row.seconds * row.speed * 1000 for row in every]
    attempted = len(rows)
    metrics = {
        "setup_s": (statistics.median(setup_normalized), "s"),
        "setup_s.wall": (statistics.median(setup_samples), "s"),
        "loops_per_s.norm": (
            attempted / statistics.median(normalized_walls), "1/s"
        ),
        "loop_ms.mid.norm": (middle_mean(normalized), "ms"),
        "loop_ms.p50.norm": (statistics.median(normalized), "ms"),
        "loops_per_s": (attempted / statistics.median(walls), "1/s"),
        "loop_ms.p50": (statistics.median(samples), "ms"),
        "fail_rate": (
            sum(1 for row in rows if row.failures) / attempted, "ratio"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    if len(samples) >= P90_MIN_SAMPLES:
        metrics["loop_ms.p90"] = (
            statistics.quantiles(samples, n=10)[-1], "ms"
        )
    for name, value in totals(rows).items():
        metrics[name] = (value, "count")
    if workload == "exact":
        metrics["decided_share"] = (
            sum(1 for row in rows if row.optimal) / attempted, "ratio"
        )
    return metrics, {
        "samples": len(samples),
        "pass_wall_s": spread(walls),
        "pass_wall_s.norm": spread(normalized_walls),
        "loop_ms": spread(samples),
        "loop_ms.norm": spread(normalized),
        "setup_s": spread(setup_normalized),
        "setup_s.wall": spread(setup_samples),
    }


def per_layer(ledger, rows, traced_wall, overhead) -> dict:
    """The per-layer metrics of one traced pass."""

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    layers = ledger.layer_totals()
    metrics = {}
    for layer, totals_ in layers.items():
        metrics[f"{layer}.calls"] = (totals_["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals_["self_s"], "s")
    for key in LEDGER_COUNTS:
        metrics[key] = (ledger.counts.get(key, 0), "count")
    metrics["schedule.mrt.fit_ratio"] = (
        ratio(ledger.counts.get("schedule.mrt.fits", 0),
              ledger.calls("schedule.mrt.can_place")),
        "ratio",
    )
    metrics["spill.kept_ratio"] = (
        ratio(sum(row.spills for row in rows if row.converged),
              ledger.counts.get("spill.inserted", 0)),
        "ratio",
    )
    attempts = ledger.calls("attempt")
    metrics["core.attempts"] = (attempts, "count")
    metrics["core.accept_ratio"] = (
        ratio(sum(1 for row in rows if row.converged), attempts), "ratio"
    )
    metrics["sim.cycles_per_s"] = (
        ratio(ledger.counts.get("sim.cycles", 0), layers["sim"]["self_s"]),
        "1/s",
    )
    metrics["smt.steps_per_s"] = (
        ratio(ledger.counts.get("smt.steps", 0), layers["smt"]["self_s"]),
        "1/s",
    )
    race = {"launched": 0, "executed_attempts": 0, "cancelled": 0,
            "serial_attempts": 0}
    for row in rows:
        for key in race:
            race[key] += (row.search or {}).get(key, 0)
    metrics["core.race.launched"] = (race["launched"], "count")
    metrics["core.race.executed"] = (race["executed_attempts"], "count")
    metrics["core.race.cancelled"] = (race["cancelled"], "count")
    metrics["core.race.useful_ratio"] = (
        ratio(race["serial_attempts"], race["executed_attempts"]), "ratio"
    )
    metrics["core.race.wait_s"] = (ledger.inclusive_s("core.race.wait"), "s")
    attributed = sum(layer["self_s"] for layer in layers.values())
    metrics["unattributed_s"] = (traced_wall - attributed, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["obs.share"] = (layers["obs"]["self_s"] / traced_wall, "ratio")
    metrics["obs.overhead_ratio"] = (overhead, "ratio")
    return metrics


def traced_metrics(args, ledger, passes, check_rows, report, checks):
    """Per-layer metrics, plus the trace file, written and validated."""
    from repro.obs.export import validate_trace_file, write_jsonl

    primary, wall = passes[0]
    untraced = sum(row.seconds * row.speed for row in check_rows["repeat"])
    traced = sum(row.seconds * row.speed for row in primary)
    metrics = per_layer(ledger, primary, wall, traced / untraced - 1)
    path = RESULTS / f"{args.workload}-seed{args.seed}.trace.jsonl"
    write_jsonl(ledger.tracer, path)
    problems = validate_trace_file(path)
    if problems:
        checks["trace file validates"] = problems[:10]
    report["trace_file"] = str(path.relative_to(ROOT))
    report["unattributed_share"] = metrics["unattributed_s"][0] / wall
    report["wrapper_residual_s"] = ledger.residual_s
    return metrics


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


ROW_HEADER = (
    f"{'loop':<18} {'machine':<16} {'ops':>4} {'II':>4} {'MII':>4} "
    f"{'att':>4} {'spill':>5} {'move':>5} {'cycles':>8} {'instrs':>6} "
    f"{'ms':>9}  verdict/steps"
)


def render_row(row) -> str:
    verdict = "" if row.verdict is None else (
        f"{row.verdict}/{row.steps} heur II={row.heuristic_ii}"
    )
    if row.failures:
        verdict = (verdict + " FAIL: " + "; ".join(row.failures)).strip()
    ii, mii = ("-" if value is None else value for value in (row.ii, row.mii))
    return (
        f"{row.loop:<18} {row.machine:<16} {row.nodes:>4} {ii:>4} "
        f"{mii:>4} {row.attempts:>4} {row.spills:>5} {row.moves:>5} "
        f"{row.sim_cycles:>8} {row.code_instrs:>6} "
        f"{row.seconds * 1000:>9.1f}  {verdict}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have: {', '.join(workloads.WORKLOADS)})"
        )
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else time_setups(args)
    pairs = set_up(args)
    passes, ledger = measure(args, pairs)
    check_rows, checks = check(args, pairs, passes)
    primary = passes[0][0]
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "inputs": input_seeds(args),
        "trace": args.trace,
        "passes": len(passes),
        "pairs": len(pairs),
        "rows": [row.as_dict() for row in primary],
        "check_rows": {
            label: [row.as_dict() for row in rows]
            for label, rows in check_rows.items()
        },
        "totals": [totals(rows) for rows, _ in passes],
    }
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics = traced_metrics(
            args, ledger, passes, check_rows, report, checks
        )
    else:
        metrics, report["spread"] = end_to_end(
            args.workload, passes, setups
        )
    report["metrics"] = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in metrics.items()
    }
    report["checks"] = checks
    report["correct"] = correct = not checks
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}: {report['why']}")
    print(f"inputs {report['inputs']}, order seed {args.seed}, "
          f"{len(pairs)} pairs, {len(passes)} pass(es)")
    print(ROW_HEADER)
    for row in primary:
        print(render_row(row))
    print("metrics:")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {unit}")
    if not args.trace and "loop_ms.p90" not in metrics:
        print(f"  {'loop_ms.p90':<32} {'n/a':>14} ms "
              f"({report['spread']['samples']} samples < {P90_MIN_SAMPLES})")
    for title, problems in checks.items():
        print(f"CHECK FAILED: {title}")
        for problem in problems[:20]:
            print(f"  {problem}")
    print(f"results: {out_path.relative_to(ROOT)}")

    reported = metrics if args.trace else {
        key: metrics[key] for key in GATED_END_TO_END
    }
    print(json.dumps({
        "correct": correct,
        "attempted": len(primary),
        "failed": sum(1 for row in primary if row.failures),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
