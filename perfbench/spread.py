"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each workload of ``BENCHMARK.json``
(tracing off, the declared ``run_seconds``), then reports for every
end-to-end metric the median, the quartiles, every value, and the
quartile distance as a share of the median next to the metric's bound::

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 5 --workloads exact

The summary is written to ``perfbench/results/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, spread


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        sys.exit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    last["run_s"] = time.perf_counter() - started
    results = HERE / "results" / f"{workload}-seed{seed}-trace0.json"
    last["all_metrics"] = json.loads(results.read_text())["metrics"]
    return last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary: dict = {"seeds": list(seeds), "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {results[-1]['metrics']}", flush=True)
        entry: dict = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
            "run_s": [r["run_s"] for r in results],
        }
        timings = [
            name for name, metric in results[0]["all_metrics"].items()
            if metric["unit"] in ("s", "ms", "1/s", "MB")
        ]
        for name in timings:
            stats = spread(r["all_metrics"][name]["value"] for r in results)
            stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
        summary["workloads"][workload] = entry

    print(f"{'workload':<10} {'metric':<18} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}")
    for workload, entry in summary["workloads"].items():
        for name, stats in entry["metrics"].items():
            bound = stats["bound"]
            if bound is None:
                print(f"{workload:<10} {name:<18} {stats['median']:>12.5g} "
                      f"{stats['spread']:>8.2%}      (not gated)")
                continue
            flag = "" if stats["spread"] < bound / 3 else "  WIDE"
            print(f"{workload:<10} {name:<18} {stats['median']:>12.5g} "
                  f"{stats['spread']:>8.2%} {bound / 3:>8.2%}{flag}")
        print(f"{workload:<10} {'one run, s':<18} "
              f"{statistics.median(entry['run_s']):>12.5g}   "
              f"(max {max(entry['run_s']):.1f})")
        if not entry["correct"] or entry["failed"]:
            print(f"{workload}: correct={entry['correct']} "
                  f"failed={entry['failed']}")
    out = HERE / "results" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"written: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
