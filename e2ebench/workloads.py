"""The three workloads: what each runs, times and checks.

Every workload is one process, one thread: the index workloads call
``CoconutTree`` directly with ``workers=1`` (the serial engines), and
``serve_ingest`` pumps ``CoconutService`` inline with ``serve_pending()``
(no server or feeder thread).  All inputs come from ``--seed``.

A run builds two instances of the workload's index: ``queried`` answers
the read-only phases and is never written after its build; ``loaded``
takes the write+read loop.  Each of them is one set-up — generate the
inputs, write the raw file, build (``build`` / ``bootstrap``), then use
every query entry point once, so a lazy first use (the summary-column
load) lands in ``setup_s`` and not in a query timing.  The measured
phases are then cut into ``slices`` rounds, and every round runs one
slice of each phase, so every metric samples the whole run rather than
one stretch of it (this host's speed drifts by ~10% over seconds):

* builds from scratch, spread over the rounds (the middle round adds a
  third set-up);
* exact 1-NN on ``queried``, one query at a time (a closed-loop client);
* exact 10-NN on ``queried``, in batches of 16;
* approximate 1-NN batches of 16 on ``queried``, cycled over a fixed set;
* the write+read loop on ``loaded``: ingest a batch, and after every
  ``query_every``-th ingest a few exact 10-NN and approximate queries —
  through ``insert_batch`` /
  ``query_batch`` (paper Fig. 10a) on the index workloads, through
  ``ingest`` / ``submit`` / ``serve_pending`` on ``serve_ingest``.

Before each phase of each round, ``HostPace`` times a fixed kernel; its
median rescales the run's wall times (all but ``setup_s``) to a
reference host speed.  Last come untimed self-queries of sampled
indexed and ingested rows.
Operation counts are fixed by the sizes and ``--seconds`` (never by
elapsed time), so every run of a workload attempts the same operations.
Answers are checked against brute force after all timed work.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import (
    CoconutService,
    CoconutTree,
    QueryBatch,
    RawSeriesFile,
    SAXConfig,
    SimulatedDisk,
    make_dataset,
)

import checks

#: Simulated page size (the program's benchmark default).
PAGE_SIZE = 8192

#: ``--seconds`` at which the operation counts below apply as written;
#: other budgets scale the per-phase counts linearly.
BASE_SECONDS = 20


@dataclass(frozen=True)
class Sizes:
    """The make-up of one workload's inputs and operation counts."""

    generator: str  # repro.make_dataset name
    n_series: int
    length: int
    materialized: bool  # CoconutTree-Full (leaves hold the series)
    memory_divisor: int  # memory budget = raw bytes / divisor
    service: bool = False
    slices: int = 10  # rounds the measured phases are interleaved over
    builds: int = 8  # builds from scratch in the measured rounds
    exact_queries: int = 100
    exact_repeats: int = 1  # runs of each exact 1-NN; its latency is the fastest
    knn_batches: int = 5
    batch: int = 16
    k: int = 10
    approx_batches: int = 120
    approx_distinct: int = 16  # distinct approximate batches, cycled
    rounds: int = 20  # write+read loop ingests
    ingest_rows: int = 250
    query_every: int = 2  # the loop queries after every n-th ingest
    round_exact: int = 2
    round_approx: int = 2
    self_queries: int = 8  # per source: indexed rows, ingested rows

    def scaled(self, seconds: float) -> "Sizes":
        def n(count):
            return max(1, int(round(count * seconds / BASE_SECONDS)))

        return replace(
            self,
            exact_queries=n(self.exact_queries),
            builds=n(self.builds),
            knn_batches=n(self.knn_batches),
            approx_batches=n(self.approx_batches),
            rounds=n(self.rounds),
        )

    @property
    def query_rounds(self) -> int:
        return self.rounds // self.query_every


WORKLOADS = {
    # 120 exact queries: pruning varies per query, and p90 needs the tail.
    # Short queries (~35 ms) run twice and keep the faster run, so a
    # stall of the shared host does not land in the tail.
    "randomwalk128": Sizes(
        "randomwalk", 100_000, 128, False, 8, builds=5, exact_queries=120,
        exact_repeats=2,
    ),
    # 25k rows: the build's sort still spills (~9 runs at raw/8), and the
    # seismic generator (~80 us a row) keeps the set-ups affordable.
    "seismic256": Sizes("seismic", 25_000, 256, True, 8, query_every=1),
    # Builds (bootstraps) take ~0.1 s here, so many are cheap.
    "serve_ingest": Sizes(
        "randomwalk", 50_000, 128, False, 512, service=True, builds=16,
        exact_queries=140, knn_batches=8, rounds=80, ingest_rows=500,
        query_every=2, exact_repeats=2,
    ),
}

#: Seconds-scale versions for the self-test (same code paths).
SMALL = {
    name: replace(
        sizes,
        n_series=3_000,
        slices=2,
        builds=2,
        exact_queries=12,
        knn_batches=2,
        approx_batches=6,
        approx_distinct=2,
        rounds=6 if sizes.service else 4,
        ingest_rows=300,
        self_queries=3,
    )
    for name, sizes in WORKLOADS.items()
}


def sax_config(length: int) -> SAXConfig:
    """w = 8 segments at cardinality 256 (the program's bench default)."""
    return SAXConfig(series_length=length, word_length=8, cardinality=256)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    data: np.ndarray  # indexed rows (float32)
    stream: np.ndarray  # rows ingested by the write+read loop
    exact: np.ndarray  # one-at-a-time exact 1-NN queries
    knn: np.ndarray  # exact 10-NN batches
    approx: np.ndarray  # distinct approximate batches
    rounds: np.ndarray  # write+read loop queries
    warm: np.ndarray  # warm-up query (set-up only)
    self_rows: np.ndarray  # row ids queried by themselves (some ingested)


def make_inputs(sizes: Sizes, seed: int) -> Inputs:
    """All inputs of one run, a pure function of (sizes, seed)."""

    def sub(tag: int) -> int:
        return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])

    gen, length = sizes.generator, sizes.length
    n_stream = sizes.rounds * sizes.ingest_rows
    counts = [
        sizes.exact_queries,
        sizes.knn_batches * sizes.batch,
        sizes.approx_distinct * sizes.batch,
        sizes.query_rounds * (sizes.round_exact + sizes.round_approx),
        1,
    ]
    queries = make_dataset(gen, sum(counts), length=length, seed=sub(3))
    parts = np.split(queries.astype(np.float64), np.cumsum(counts)[:-1])
    rng = np.random.default_rng(sub(4))
    return Inputs(
        data=make_dataset(gen, sizes.n_series, length=length, seed=sub(1)),
        stream=make_dataset(gen, n_stream, length=length, seed=sub(2)),
        exact=parts[0],
        knn=parts[1],
        approx=parts[2],
        rounds=parts[3],
        warm=parts[4],
        self_rows=np.concatenate(
            [
                rng.choice(sizes.n_series, sizes.self_queries, replace=False),
                sizes.n_series
                + rng.choice(n_stream, min(n_stream, sizes.self_queries), replace=False),
            ]
        ),
    )


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
KINDS = ("build", "ingest batch", "exact query", "approximate query")


class Ledger:
    """Operations attempted/failed per kind, answers, and answer errors.

    A failed operation (it raised, or its ticket was shed or refused) is
    counted, not checked; ``errors`` holds only wrong answers.  Every
    answer is recorded as ``(mode, k, rows held, query, ids, distances)``
    and checked against brute force after the run.
    """

    def __init__(self):
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.raised: list[str] = []
        self.errors: list[str] = []
        self.answers: list[tuple] = []

    def attempt(self, kind: str, call, n: int = 1):
        """Run one operation (``n`` queries); a raise counts as failed."""
        self.attempted[kind] += n
        try:
            return call()
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.failed[kind] += n
            self.raised.append(f"{kind} raised {type(error).__name__}: {error}")
            return None

    def answer(self, mode, k, n_rows, query, ids, distances) -> None:
        self.answers.append((mode, k, n_rows, query, list(ids), list(distances)))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _io_ms(devices, before) -> float:
    return sum(
        device.cost_model.io_ms(device.stats_since(snap))
        for device, snap in zip(devices, before)
    )


# ----------------------------------------------------------------------
# Targets: one index instance behind a uniform set of operations
# ----------------------------------------------------------------------
class TreeTarget:
    """``CoconutTree`` (secondary) or ``CoconutTree-Full`` on its own disk."""

    def __init__(self, sizes: Sizes, inputs: Inputs, ops: Ledger):
        self.sizes, self.ops = sizes, ops
        self.disk = SimulatedDisk(page_size=PAGE_SIZE)
        self.raw = RawSeriesFile.create(self.disk, inputs.data)
        self.index = CoconutTree(
            self.disk,
            memory_bytes=self.raw.size_bytes // sizes.memory_divisor,
            config=sax_config(sizes.length),
            materialized=sizes.materialized,
        )
        self.n_rows = sizes.n_series

    def build(self):
        return self.index.build(self.raw)

    def warm(self, query) -> None:
        self.exact(query)
        self.knn(query[None, :])
        self.approx(query[None, :])

    def exact(self, query) -> bool:
        result = self.ops.attempt(
            "exact query", lambda: self.index.exact_search(query)
        )
        if result is None:
            return False
        self.ops.answer(
            "exact", 1, self.n_rows, query, [result.answer_idx], [result.distance]
        )
        return True

    def knn(self, queries) -> bool:
        report = self.ops.attempt(
            "exact query",
            lambda: self.index.query_batch(QueryBatch(queries, k=self.sizes.k)),
            n=len(queries),
        )
        if report is None:
            return False
        for query, ids, dists in zip(queries, report.knn_ids, report.knn_distances):
            self.ops.answer("exact", self.sizes.k, self.n_rows, query, ids, dists)
        return True

    def approx(self, queries) -> bool:
        report = self.ops.attempt(
            "approximate query",
            lambda: self.index.query_batch(QueryBatch(queries, mode="approximate")),
            n=len(queries),
        )
        if report is None:
            return False
        for query, ids, dists in zip(queries, report.knn_ids, report.knn_distances):
            self.ops.answer("approximate", 1, self.n_rows, query, ids, dists)
        return True

    def ingest(self, rows) -> bool:
        done = self.ops.attempt("ingest batch", lambda: self.index.insert_batch(rows))
        if done is not None:
            self.n_rows += len(rows)
        return done is not None

    def round_queries(self, exact_q, approx_q):
        """Exact 10-NN + approximate after an ingest: (served, exact latencies)."""
        t0 = time.perf_counter()
        ok = self.knn(exact_q)
        elapsed = time.perf_counter() - t0
        served = len(exact_q) if ok else 0
        served += len(approx_q) if self.approx(approx_q) else 0
        return served, [elapsed] * len(exact_q) if ok else []

    def exact_io_devices(self):
        return [self.disk]

    def storage_ratio(self) -> float:
        return self.index.storage_bytes() / self.raw.size_bytes


class ServiceTarget:
    """``CoconutService`` over a WAL-durable ``CoconutLSM``, pumped inline."""

    def __init__(self, sizes: Sizes, inputs: Inputs, ops: Ledger):
        self.sizes, self.ops = sizes, ops
        self.disk = SimulatedDisk(page_size=PAGE_SIZE)
        self.raw = RawSeriesFile.create(self.disk, inputs.data)
        self.service = CoconutService(
            self.disk,
            self.raw,
            memory_bytes=self.raw.size_bytes // sizes.memory_divisor,
            sax_config=sax_config(sizes.length),
        )
        self.n_rows = sizes.n_series
        self.tickets: list = []  # (query, ticket) of every admitted ticket
        self.submitted = 0
        self.refused = 0
        self.ingested = 0

    def build(self):
        return self.service.bootstrap()

    def warm(self, query) -> None:
        self._serve([(query, "exact", 1), (query, "exact", self.sizes.k),
                     (query, "approximate", 1)])

    def _serve(self, requests) -> list:
        """Submit requests, pump once, settle: the served tickets."""
        admitted = []
        for query, mode, k in requests:
            kind = "exact query" if mode == "exact" else "approximate query"
            self.submitted += 1
            ticket = self.ops.attempt(
                kind, lambda: self.service.submit(query, mode=mode, k=k)
            )
            if ticket is None:
                self.refused += 1
            else:
                admitted.append((query, ticket))
        self.service.serve_pending()
        served = []
        for query, ticket in admitted:
            self.tickets.append((query, ticket))
            if ticket.status != "served":
                kind = "exact query" if ticket.mode == "exact" else "approximate query"
                self.ops.failed[kind] += 1
                self.ops.raised.append(f"ticket {ticket.status}: {ticket.shed_reason}")
                continue
            self.ops.answer(
                ticket.mode, ticket.k, ticket.snapshot_series, query,
                ticket.knn_ids, ticket.knn_distances,
            )
            served.append(ticket)
        return served

    def exact(self, query) -> bool:
        return bool(self._serve([(query, "exact", 1)]))

    def knn(self, queries) -> bool:
        requests = [(q, "exact", self.sizes.k) for q in queries]
        return len(self._serve(requests)) == len(queries)

    def approx(self, queries) -> bool:
        requests = [(q, "approximate", 1) for q in queries]
        return len(self._serve(requests)) == len(queries)

    def ingest(self, rows) -> bool:
        receipt = self.ops.attempt(
            "ingest batch",
            lambda: self.service.ingest(rows, expected_first=self.n_rows),
        )
        if receipt is None:
            return False
        if receipt.first_index != self.n_rows or receipt.deduplicated:
            self.ops.errors.append(f"ingest receipt {receipt} at {self.n_rows}")
        self.n_rows += len(rows)
        self.ingested += 1
        return True

    def round_queries(self, exact_q, approx_q):
        requests = [(q, "exact", self.sizes.k) for q in exact_q]
        requests += [(q, "approximate", 1) for q in approx_q]
        served = self._serve(requests)
        return len(served), [t.latency_s for t in served if t.mode == "exact"]

    def exact_io_devices(self):
        # Served reads go through the snapshot's read-only shard.
        return [self.service.current_snapshot().shard, self.disk]

    def storage_ratio(self) -> float:
        view = self.service.current_snapshot().frozen_view()
        return view.storage_bytes() / self.raw.size_bytes

    def verify_accounting(self) -> list[str]:
        """``stats_snapshot()`` must agree with the tickets and conserve."""
        stats = self.service.stats_snapshot()
        shed = sum(stats["shed"].values())
        rejected = sum(stats["rejected"].values())
        errors = []
        served = stats["served"] + shed + rejected + stats["queue_depth"]
        if stats["submitted"] != served:
            errors.append(f"ticket accounting does not conserve: {stats}")
        failed = sum(t.status != "served" for _, t in self.tickets) + self.refused
        if stats["submitted"] != self.submitted or shed + rejected != failed:
            errors.append(
                f"service counted {stats['submitted']} submitted / "
                f"{shed + rejected} refused; benchmark {self.submitted} / {failed}"
            )
        if stats["ingest_batches"] != self.ingested:
            errors.append(
                f"service counted {stats['ingest_batches']} ingests, "
                f"benchmark acknowledged {self.ingested}"
            )
        return errors


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Median time of ``HostPace``'s kernel on the reference host (README).
REFERENCE_KERNEL_S = 0.021


class HostPace:
    """Times a fixed kernel between the phases, to rescale wall times.

    The shared host runs whole stretches of minutes 15–35% faster or
    slower, and every wall time of a run moves with it by about the same
    factor.  The kernel is a fixed mix of the kinds of work the program
    does (interpreter loops, a sort, bit-plane shifts, float distances
    over a block) on inputs of its own; nothing of the program runs in
    it.  Sampled before every phase of every round, it sees the host as
    the phases do, and ``factor`` = ``REFERENCE_KERNEL_S`` / its median
    rescales the run's wall times to the reference host's speed.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.rows = rng.standard_normal((4_096, 128))
        self.keys = rng.integers(0, 2**62, 100_000, dtype=np.uint64)
        self.samples: list[float] = []
        self.max_threads = 1

    def sample(self) -> None:
        self.max_threads = max(self.max_threads, threading.active_count())
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(20_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        order = np.argsort(self.keys, kind="stable")
        planes = np.zeros_like(self.keys)
        for bit in range(16):
            planes |= ((self.keys >> np.uint64(bit)) & np.uint64(1)) << np.uint64(bit)
        query = self.rows[int(order[0]) % len(self.rows)]
        for block in np.split(self.rows, 8):
            ((block - query) ** 2).sum(axis=1).argmin()
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _slices(count: int, parts: int) -> list[range]:
    edges = np.linspace(0, count, parts + 1).round().astype(int)
    return [range(a, b) for a, b in zip(edges[:-1], edges[1:])]


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    Unlike a median it moves smoothly with the share of a run the host
    spent in a slow stretch, and unlike a mean it ignores a stall.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


#: End-to-end figures rescaled by ``HostPace.factor``: wall times and the
#: rates made from them.  ``setup_s`` stays as measured.
SCALED_TIMES = (
    "build_s", "exact_1nn_p50_ms", "exact_1nn_p90_ms", "ingest_p50_ms",
    "serve_exact_p50_ms",
)
SCALED_RATES = ("exact_10nn_qps", "ingest_rows_per_s", "serve_qps")


def run_workload(sizes: Sizes, seed: int, ops: Ledger, extra: dict) -> dict:
    """Run every phase; returns the end-to-end metrics (checks included)."""
    Target = ServiceTarget if sizes.service else TreeTarget
    setups, builds, build_io = [], [], []
    phases = extra.setdefault("phase_s", {})  # wall seconds per phase

    def clock(phase: str, t0: float) -> None:
        phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - t0

    def set_up(inputs: "Inputs | None"):
        """One build from scratch; a full set-up when ``inputs`` is None."""
        start = time.perf_counter()
        gc.collect()
        t0 = time.perf_counter()
        if inputs is None:
            fresh = make_inputs(sizes, seed)
        target = Target(sizes, inputs or fresh, ops)
        ready = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = ops.attempt("build", target.build)
        builds.append(time.perf_counter() - t0)
        if report is None:
            raise RuntimeError("build failed; nothing to query")
        build_io.append(report.simulated_io_ms / 1000.0)
        if inputs is None:
            t0 = time.perf_counter()
            target.warm(fresh.warm[0])
            setups.append(ready + time.perf_counter() - t0)
            clock("set-up", start)
            return target, fresh
        clock("build", start)
        return target, inputs

    pace = extra["pace"] = HostPace()
    queried, inputs = set_up(None)
    loaded, _ = set_up(None)
    extra["cost_model"] = queried.disk.cost_model

    latencies, sim_io, knn_times = [], [], []
    ingest_times, serve_exact = [], []
    served, serve_time = 0, 0.0
    parts = sizes.slices
    per_round = sizes.round_exact + sizes.round_approx
    for part, (build_n, exact_n, knn_n, approx_n, rounds_n) in enumerate(
        zip(
            _slices(sizes.builds, parts),
            _slices(sizes.exact_queries, parts),
            _slices(sizes.knn_batches, parts),
            _slices(sizes.approx_batches, parts),
            _slices(sizes.rounds, parts),
        )
    ):
        # Builds from scratch spread over the rounds; the middle round
        # adds a full set-up.
        pace.sample()
        if part == parts // 2:
            set_up(None)
        for _ in build_n:
            set_up(inputs)
        gc.collect()

        pace.sample()
        start = time.perf_counter()
        devices = queried.exact_io_devices()
        for i in exact_n:
            fastest = float("inf")
            for _ in range(sizes.exact_repeats):
                before = [device.snapshot() for device in devices]
                t0 = time.perf_counter()
                ok = queried.exact(inputs.exact[i])
                elapsed = time.perf_counter() - t0
                if ok:
                    fastest = min(fastest, elapsed)
                    io = _io_ms(devices, before)
            if fastest < float("inf"):
                latencies.append(fastest)
                sim_io.append(io)
        clock("exact 1-NN", start)

        pace.sample()
        start = time.perf_counter()
        for b in knn_n:
            queries = inputs.knn[b * sizes.batch : (b + 1) * sizes.batch]
            t0 = time.perf_counter()
            if queried.knn(queries):
                knn_times.append(time.perf_counter() - t0)
        clock("exact 10-NN", start)

        pace.sample()
        start = time.perf_counter()
        for b in approx_n:
            j = b % sizes.approx_distinct
            queried.approx(inputs.approx[j * sizes.batch : (j + 1) * sizes.batch])
        clock("approximate", start)

        pace.sample()
        start = time.perf_counter()
        for r in rounds_n:
            rows = inputs.stream[r * sizes.ingest_rows : (r + 1) * sizes.ingest_rows]
            t0 = time.perf_counter()
            loaded.ingest(rows)
            ingest_times.append(time.perf_counter() - t0)
            if (r + 1) % sizes.query_every:
                continue
            q = r // sizes.query_every
            queries = inputs.rounds[q * per_round : (q + 1) * per_round]
            t0 = time.perf_counter()
            n_served, exact_latencies = loaded.round_queries(
                queries[: sizes.round_exact], queries[sizes.round_exact :]
            )
            serve_time += time.perf_counter() - t0
            served += n_served
            serve_exact += exact_latencies
        clock("write+read", start)

    start = time.perf_counter()
    index = loaded if sizes.service else queried
    index_ratio = index.storage_ratio()
    all_rows = np.vstack([inputs.data, inputs.stream])
    for row_id in inputs.self_rows:
        if row_id < loaded.n_rows:
            loaded.exact(all_rows[row_id].astype(np.float64))
    peak_rss = _rss_mb()

    if sizes.service:
        for target in (queried, loaded):
            ops.errors += target.verify_accounting()
            extra.setdefault("tickets", []).extend(
                (t.submitted_s, t.submitted_s + t.latency_s)
                for _, t in target.tickets
                if t.status == "served"
            )
        stats = loaded.service.stats_snapshot()
        extra.update(
            {
                "lsm.flushes": stats["lsm"]["flushes"],
                "lsm.merges": stats["lsm"]["merges"],
                "lsm.runs": stats["lsm"]["runs"],
                "service.batches": stats["batches"],
                "service.served": stats["served"],
            }
        )

    ratios = check_answers(ops, all_rows, sizes.n_series)
    clock("checks", start)
    raw = extra["raw"] = {
        "setup_s": statistics.median(setups),
        "build_s": middle_mean(builds),
        "build_sim_io_s": statistics.median(build_io),
        "index_bytes_per_raw_byte": index_ratio,
        "exact_1nn_p50_ms": 1000.0 * np.percentile(latencies, 50),
        "exact_1nn_p90_ms": 1000.0 * np.percentile(latencies, 90),
        "exact_10nn_qps": sizes.batch * len(knn_times) / sum(knn_times),
        "exact_sim_io_ms_per_query": statistics.median(sim_io),
        "approx_dist_ratio": float(np.mean(ratios)),
        "ingest_rows_per_s": sizes.rounds * sizes.ingest_rows / sum(ingest_times),
        "ingest_p50_ms": 1000.0 * statistics.median(ingest_times),
        "serve_exact_p50_ms": 1000.0 * statistics.median(serve_exact),
        "serve_qps": served / serve_time,
        "peak_rss_mb": peak_rss,
    }
    # Wall times and rates, at the reference host's speed.
    f = pace.factor
    adjusted = {name: raw[name] * f for name in SCALED_TIMES}
    adjusted.update({name: raw[name] / f for name in SCALED_RATES})
    return {**raw, **adjusted}


def check_answers(ops: Ledger, all_rows: np.ndarray, n_base: int) -> list[float]:
    """Check every recorded answer; returns approximate/exact distance ratios.

    Exact answers are checked against brute-force k-NN over the rows the
    index held when it answered; approximate answers against their
    id's recomputed distance and the exact nearest one.  A query that
    is itself a stored row (a self-query) must come back at distance 0.
    Brute force runs once per distinct (query, rows held), at the
    largest k asked there; a smaller k checks against its prefix.
    """
    oracle = checks.BruteForce(all_rows)
    groups: dict = {}  # rows held -> {query bytes: query}, plus the largest k
    for mode, k, n_rows, query, _, _ in ops.answers:
        queries, k_max = groups.get(n_rows, ({}, 0))
        queries.setdefault(query.tobytes(), query)
        groups[n_rows] = (queries, max(k_max, k))
    truth: dict = {}
    for n_rows, (queries, k_max) in groups.items():
        ids, dists = oracle.knn(np.stack(list(queries.values())), k_max, n_rows)
        for j, key in enumerate(queries):
            truth[(key, n_rows)] = (ids[j], dists[j])

    ratios = {}
    for mode, k, n_rows, query, ids, dists in ops.answers:
        t_ids, t_d = truth[(query.tobytes(), n_rows)]
        t_ids, t_d = t_ids[:k], t_d[:k]
        label = f"{mode} k={k} over {n_rows} rows"
        if mode == "exact":
            ops.errors += checks.check_exact(
                ids, dists, query, t_ids, t_d, oracle, n_rows, label
            )
            if t_d[0] == 0.0:  # a stored row queried by itself
                ops.errors += checks.check_self(
                    ids[0], dists[0], query, oracle, n_rows, label
                )
        elif not ids:
            ops.errors.append(f"{label}: no approximate answer")
        else:
            ops.errors += checks.check_approx(
                ids[0], dists[0], query, t_d[0], oracle, n_rows, label
            )
            if n_rows == n_base:
                ratios[query.tobytes()] = dists[0] / t_d[0]
    return list(ratios.values())
