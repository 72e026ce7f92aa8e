"""Steadiness check: repeat each workload and report the spread.

Usage (from the repository root)::

    python3 e2ebench/steady.py                      # 10 seeds x every workload
    python3 e2ebench/steady.py --workloads serve_ingest --seeds 5
    python3 e2ebench/steady.py --trace-overhead     # also one traced run each

For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), min, max and the spread — the
interquartile distance as a share of the median — next to the metric's
bound from ``BENCHMARK.json``.  A spread at or above a third of the
bound is flagged (``setup_s`` is exempt: its spread is not gated, only
its median).  ``--trace-overhead`` adds one ``--trace 1`` run per
workload and prints each traced figure against the untraced median.
Each run is its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL: list[float] = []  # wall seconds of each run of the current workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    WALL.append(time.perf_counter() - t0)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-overhead", action="store_true")
    parser.add_argument(
        "--values", action="store_true", help="also print each run's value"
    )
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        WALL.clear()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, _ = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: answers FAILED the checks")
                steady = False
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n== {workload}: {args.seeds} seeds, (failed, attempted) {sorted(shares)}")
        print(
            f"wall seconds per run: min {min(WALL):.1f}, "
            f"median {statistics.median(WALL):.1f}, max {max(WALL):.1f}"
        )
        print(
            f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
            f"{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}"
        )
        medians = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            medians[name] = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = ""
            if name != "setup_s" and not spread < bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(
                f"{name:<28}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{min(vals):>12.5g}{max(vals):>12.5g}{spread:>9.3f}{bound:>7.2f}{flag}"
            )
            if args.values:
                print("    " + " ".join(f"{v:.5g}" for v in vals))
        if args.trace_overhead:
            _, lines = run_once(workload, args.first_seed, args.seconds, 1)
            traced = json.loads(
                next(l for l in lines if l.startswith("traced-e2e "))[11:]
            )
            print(f"-- {workload}: traced / untraced median")
            for name in ("build_s", "exact_1nn_p50_ms", "exact_10nn_qps",
                         "ingest_p50_ms", "serve_exact_p50_ms"):
                print(f"   {name:<26}{traced[name] / medians[name]:>8.3f}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
