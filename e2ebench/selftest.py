"""Small-scale self-test of the benchmark (about half a minute).

Usage (from the repository root)::

    python3 e2ebench/selftest.py

It shows that

1. the answer checks reject deliberately wrong answers (wrong id, wrong
   distance, out-of-range id, an approximate answer closer than the
   exact one, a self-query that misses itself), both on hand-made
   answers and end to end, on a workload run whose index is sabotaged;
2. every workload, at seconds-scale sizes, prints a well-formed result
   line with every end-to-end metric (``--trace 0``) and every per-layer
   metric (``--trace 1``), checks out correct, and fails no operation;
   the layers a workload goes through report non-zero work;
3. without the program's sources the command exits non-zero and prints
   no result;
4. ``BENCHMARK.json`` lists exactly the metrics the runs print, with
   their units and directions.

Exits 0 when everything holds; prints each failed expectation otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402  (first: it pins BLAS threads)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402

#: Layers each workload must show work in (by metric prefix).
ACTIVE = {
    "randomwalk128": (
        "summarize.", "sort.s", "bulk_load.", "lower_bound.", "walk.",
        "fetch.s", "refine.", "topk.", "approx.", "raw_append.",
    ),
    "seismic256": (
        "summarize.", "sort.", "bulk_load.", "lower_bound.", "walk.",
        "fetch.s", "refine.", "topk.", "approx.", "raw_append.",
    ),
    "serve_ingest": (
        "summarize.", "lower_bound.", "walk.", "fetch.s", "refine.", "topk.",
        "lsm.", "wal.", "raw_append.", "service.",
    ),
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL  {message}")


def test_checks_reject_wrong_answers() -> None:
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((500, 32)).astype(np.float32)
    oracle = checks.BruteForce(rows)
    query = rng.standard_normal(32)
    ids, dist = oracle.knn(query, 3, len(rows))
    ids, dist = ids[0], dist[0]

    ok = checks.check_exact(ids, dist, query, ids, dist, oracle, 500, "right")
    expect(ok == [], f"a right k-NN answer is accepted: {ok}")
    far = np.argsort(oracle.distances(query, np.arange(500)))[-1]
    wrong_id = [ids[0], ids[1], far]
    wrong_d = oracle.distances(query, wrong_id)
    expect(
        checks.check_exact(wrong_id, wrong_d, query, ids, dist, oracle, 500, "id") != [],
        "a k-NN answer with a wrong id is rejected",
    )
    expect(
        checks.check_exact(ids, dist * 1.01, query, ids, dist, oracle, 500, "d") != [],
        "a k-NN answer with wrong distances is rejected",
    )
    expect(
        checks.check_exact([0, 1, 500], dist, query, ids, dist, oracle, 500, "r") != [],
        "an out-of-range id is rejected",
    )
    expect(
        checks.check_exact(ids[:2], dist[:2], query, ids, dist, oracle, 500, "n") != [],
        "a short k-NN answer is rejected",
    )

    second = int(ids[1])
    true2 = float(oracle.distances(query, [second])[0])
    expect(
        checks.check_approx(second, true2, query, dist[0], oracle, 500, "a") == [],
        "a right approximate answer is accepted",
    )
    expect(
        checks.check_approx(second, dist[0] * 0.5, query, dist[0], oracle, 500, "a")
        != [],
        "an approximate distance that is not the id's true distance is rejected",
    )
    expect(
        checks.check_approx(second, true2, query, true2 * 1.5, oracle, 500, "a")
        != [],
        "an approximate answer closer than the exact one is rejected",
    )
    expect(
        checks.check_approx(-1, 0.0, query, dist[0], oracle, 500, "a") != [],
        "an approximate answer naming no row is rejected",
    )
    expect(
        checks.check_self(7, 0.0, rows[7], oracle, 500, "s") == [],
        "a self-query at distance 0 is accepted",
    )
    expect(
        checks.check_self(8, 0.0, rows[7], oracle, 500, "s") != [],
        "a self-query answered by another row is rejected",
    )


def test_sabotaged_index_is_caught() -> None:
    """End to end: an exact search that answers the runner-up fails."""
    import repro
    import workloads

    original = repro.CoconutTree.exact_search

    def off_by_one(self, query, *args, **kwargs):
        result = original(self, query, *args, **kwargs)
        result.answer_idx = (result.answer_idx + 1) % self.raw.n_series
        return result

    repro.CoconutTree.exact_search = off_by_one
    try:
        ops = workloads.Ledger()
        workloads.run_workload(workloads.SMALL["randomwalk128"], 3, ops, {})
    finally:
        repro.CoconutTree.exact_search = original
    expect(
        len(ops.errors) > 0,
        "a workload run over a sabotaged exact search is not correct",
    )


def run_cli(workload: str, trace: int, cwd: Path = ROOT):
    command = [
        sys.executable, "e2ebench/run.py", "--workload", workload,
        "--seed", "5", "--seconds", "20", "--trace", str(trace), "--small",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True)


def test_workloads_report_everything() -> None:
    for workload, prefixes in ACTIVE.items():
        for trace, expected in (
            (0, bench.E2E_METRICS),
            (1, layertrace.LAYER_METRICS),
        ):
            done = run_cli(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{label} exits 0: {done.stderr[-400:]}")
            if done.returncode:
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label} result keys {sorted(result)}",
            )
            expect(result["correct"] is True, f"{label} answers check out")
            expect(result["failed"] == 0, f"{label} fails no operation")
            expect(result["attempted"] > 0, f"{label} attempts operations")
            metrics = result["metrics"]
            expect(
                set(metrics) == set(expected),
                f"{label} metric names: missing "
                f"{sorted(set(expected) - set(metrics))}",
            )
            for name, (unit, _) in expected.items():
                metric = metrics.get(name, {})
                expect(metric.get("unit") == unit, f"{label} {name} unit")
                value = metric.get("value")
                if trace == 0:
                    expect(
                        isinstance(value, float) and value > 0,
                        f"{label} {name} = {value} is positive",
                    )
                elif name.startswith(prefixes):
                    expect(bool(value), f"{label} {name} = {value} shows work")


def test_spec_matches_metrics() -> None:
    """BENCHMARK.json names each metric the runs print, unit and direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (
        ("end_to_end", bench.E2E_METRICS),
        ("per_layer", layertrace.LAYER_METRICS),
    ):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(listed == dict(table), f"BENCHMARK.json {key} matches the code")


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        done = run_cli("randomwalk128", 0, cwd=bare)
    expect(done.returncode != 0, "without sources the command exits non-zero")
    expect(
        not done.stdout.strip(), "without sources the command prints no result"
    )


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    os.chdir(ROOT)
    test_checks_reject_wrong_answers()
    test_spec_matches_metrics()
    test_refuses_without_sources()
    test_workloads_report_everything()
    test_sabotaged_index_is_caught()
    print("selftest ok" if not failures else f"selftest: {len(failures)} failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
