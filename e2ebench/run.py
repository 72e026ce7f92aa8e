"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload randomwalk128 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
layers' functions (see ``layertrace.py``), prints every per-layer metric and
writes the spans to ``e2ebench/out/``.  Wall times other than
``setup_s`` are reported at a reference host speed (``ref_`` units; see
``workloads.HostPace``); the figures as measured are printed above the
result.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
Exits non-zero, without a result, when the program's sources are absent.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: (unit, better) of every end-to-end metric, in report order.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "build_s": ("ref_s", "lower"),
    "build_sim_io_s": ("sim_s", "lower"),
    "index_bytes_per_raw_byte": ("ratio", "lower"),
    "exact_1nn_p50_ms": ("ref_ms", "lower"),
    "exact_1nn_p90_ms": ("ref_ms", "lower"),
    "exact_10nn_qps": ("queries/ref_s", "higher"),
    "exact_sim_io_ms_per_query": ("sim_ms", "lower"),
    "approx_dist_ratio": ("ratio", "lower"),
    "ingest_rows_per_s": ("rows/ref_s", "higher"),
    "ingest_p50_ms": ("ref_ms", "lower"),
    "serve_exact_p50_ms": ("ref_ms", "lower"),
    "serve_qps": ("queries/ref_s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small",
        action="store_true",
        help="seconds-scale input sizes (the self-test)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import layertrace as tracing
    import workloads

    table = workloads.SMALL if args.small else workloads.WORKLOADS
    if args.workload not in table:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(table)}",
            file=sys.stderr,
        )
        return 2
    sizes = table[args.workload].scaled(args.seconds)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = workloads.Ledger()
    extra: dict = {}
    e2e = workloads.run_workload(sizes, args.seed, ops, extra)

    for kind in workloads.KINDS:
        print(
            f"ops {kind:<18} attempted {ops.attempted[kind]:>6}  "
            f"failed {ops.failed[kind]:>4}"
        )
    pace = extra["pace"]
    print(
        f"host pace: kernel median {1000 * statistics.median(pace.samples):.2f} ms "
        f"over {len(pace.samples)} samples, factor {pace.factor:.4f}, "
        f"threads {pace.max_threads}"
    )
    for name in workloads.SCALED_TIMES + workloads.SCALED_RATES:
        print(f"as measured {name:<26} {extra['raw'][name]:>14.6g}")
    for phase, seconds in extra["phase_s"].items():
        print(f"phase {phase:<18} {seconds:8.2f} s")
    for message in ops.raised[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    for error in ops.errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if tracer is None:
        metrics = {
            name: {"value": float(e2e[name]), "unit": unit}
            for name, (unit, _) in E2E_METRICS.items()
        }
    else:
        layers = tracing.ledger(tracer, extra)
        metrics = {
            name: {"value": float(layers[name]), "unit": unit}
            for name, (unit, _) in tracing.LAYER_METRICS.items()
        }
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.json")
        # The traced run's own end-to-end figures, for the overhead.
        print("traced-e2e " + json.dumps({k: float(v) for k, v in e2e.items()}))
    for name, metric in metrics.items():
        print(f"metric {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    result = {
        "correct": not ops.errors,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
