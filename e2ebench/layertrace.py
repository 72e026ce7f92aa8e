"""Traced runs: spans around each layer's public functions, and the ledger.

The benchmark never edits the program to trace it.  :func:`install`
wraps the functions the layers are made of, from outside: a module
function is replaced under every name any ``repro`` module bound it to
(``from .sax import sax_words`` copies the function object into the
importing module, so patching only the defining module would miss most
callers), and a method is replaced on its class.

Each wrapper appends one span ``[name, start, end, parent, io]`` to an
in-memory list; ``parent`` is the index of the span that was open when
the call started, and ``io`` is the :class:`repro.storage.cost.DiskStats`
delta of the device the call read or wrote, where one is known.  The
spans are written to a JSON file when the run ends.  The top-k heap is
only counted, never timed: it is offered ~10^6 times per run, and a
span per offer would cost more than the work it measures.

:func:`ledger` reduces the spans to the per-layer metrics.  A layer's
time counts each of its spans once (a span nested inside a span of the
same layer is not counted again); a layer's *self* time is its spans'
duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "summarize.sax_s": ("s", "lower"),
    "summarize.interleave_s": ("s", "lower"),
    "summarize.deinterleave_s": ("s", "lower"),
    "summarize.calls": ("count", "lower"),
    "sort.s": ("s", "lower"),
    "sort.runs": ("count", "lower"),
    "sort.bytes_spilled": ("bytes", "lower"),
    "bulk_load.self_s": ("s", "lower"),
    "bulk_load.pages_written": ("pages", "lower"),
    "bulk_load.leaves": ("count", "lower"),
    "bulk_load.avg_leaf_fill": ("ratio", "higher"),
    "lower_bound.s": ("s", "lower"),
    "lower_bound.calls": ("count", "lower"),
    "lower_bound.cells": ("count", "lower"),
    "walk.self_s": ("s", "lower"),
    "walk.visited_per_query": ("records", "lower"),
    "walk.pruned_frac": ("ratio", "higher"),
    "fetch.s": ("s", "lower"),
    "fetch.calls": ("count", "lower"),
    "fetch.records": ("records", "lower"),
    "fetch.random_reads": ("pages", "lower"),
    "fetch.sequential_reads": ("pages", "lower"),
    "fetch.sim_io_ms": ("sim_ms", "lower"),
    "refine.s": ("s", "lower"),
    "refine.rows": ("rows", "lower"),
    "topk.offers": ("count", "lower"),
    "approx.s": ("s", "lower"),
    "approx.leaf_reads": ("count", "lower"),
    "approx.records_per_query": ("records", "lower"),
    "lsm.insert_s": ("s", "lower"),
    "lsm.flushes": ("count", "lower"),
    "lsm.merges": ("count", "lower"),
    "lsm.runs": ("count", "lower"),
    "lsm.write_amp": ("ratio", "lower"),
    "wal.append_s": ("s", "lower"),
    "wal.frames": ("count", "lower"),
    "raw_append.s": ("s", "lower"),
    "service.serve_batches": ("count", "lower"),
    "service.queries_per_batch": ("queries", "higher"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.snapshot_s": ("s", "lower"),
}

_NAME, _START, _END, _PARENT, _IO = range(5)


def _stats_device(device):
    """The device whose DiskStats a read through ``device`` charges."""
    while device is not None and not hasattr(device, "snapshot"):
        device = getattr(device, "disk", None)
    return device


class Tracer:
    """In-memory span recorder plus counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.last: dict = {}
        self.clock = time.monotonic

    # -- wrappers --------------------------------------------------------
    def timed(self, name, fn, device_of=None, on_return=None, when=None):
        """``fn`` recording one span per call (optionally filtered)."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(record)
            device = _stats_device(device_of(args)) if device_of else None
            before = device.snapshot() if device is not None else None
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[_END] = clock()
                if device is not None:
                    record[_IO] = device.stats_since(before)
            if on_return is not None:
                result = on_return(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def drained(self, name, iterator, device):
        """Re-yield a lazy stream, one span per ``next`` (the drain time)."""
        spans, stack, clock = self.spans, self.stack, self.clock
        device = _stats_device(device)
        while True:
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            before = device.snapshot() if device is not None else None
            stack.append(len(spans) - 1)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                stack.pop()
                record[_END] = clock()
                if device is not None:
                    record[_IO] = device.stats_since(before)
            yield item

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        names = sorted({span[_NAME] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        rows = [
            [code[s[_NAME]], round(s[_START], 9), round(s[_END], 9), s[_PARENT]]
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": rows,
                    "counts": dict(self.counts),
                },
                handle,
                separators=(",", ":"),
            )


def _patch_function(module_name: str, attr: str, make) -> None:
    """Replace a module function under every name ``repro`` bound it to."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = make(original)
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function; call once, after ``import repro``."""
    import repro  # noqa: F401  (loads every module that binds a target)
    from repro.core.coconut_tree import CoconutTree
    from repro.core.knn import _BoundedMaxHeap
    from repro.core.lsm import CoconutLSM
    from repro.core.wal import WriteAheadLog
    from repro.service.service import CoconutService
    from repro.storage.external_sort import ExternalSorter
    from repro.storage.pager import PagedFile
    from repro.storage.seriesfile import RawSeriesFile

    t = tracer
    sums, last = t.sums, t.last

    # summarize
    for attr, name in (
        ("repro.summaries.sax", "sax_words"),
        ("repro.core.invsax", "interleave_words"),
        ("repro.core.invsax", "deinterleave_keys"),
    ):
        _patch_function(
            attr, name, lambda fn, n=name: t.timed(f"summarize.{n}", fn)
        )

    # sort (the stream it returns is lazy: its drain is timed too)
    def sorting(fn):
        def drain(args, kwargs, stream):
            sorter = args[0]
            t.counts["sort.calls"] += 1
            result = t.drained("sort.drain", iter(stream), sorter.disk)

            def finish():
                yield from result
                sums["sort.runs"] += sorter.report.n_runs

            return finish()

        return t.timed("sort.sort", fn, lambda a: a[0].disk, on_return=drain)

    _patch_method(ExternalSorter, "sort", sorting)
    _patch_method(ExternalSorter, "sort_runs", sorting)
    for name in ("merge_presorted", "merge_stream"):
        _patch_function(
            "repro.storage.merge", name, lambda fn: t.timed("sort.merge", fn)
        )

    # bulk load
    def built(args, kwargs, report):
        last["leaves"] = report.n_leaves
        last["avg_leaf_fill"] = report.avg_leaf_fill
        return report

    for cls in (CoconutTree, CoconutLSM):
        _patch_method(
            cls,
            "build",
            lambda fn: t.timed(
                "bulk_load", fn, lambda a: a[0].disk, on_return=built
            ),
        )

    # lower bound
    def bounded(args, kwargs, result):
        sums["lower_bound.cells"] += len(np.atleast_2d(args[1]))
        return result

    _patch_function(
        "repro.summaries.sax",
        "mindist_paa_to_words",
        lambda fn: t.timed("lower_bound.mindist", fn, on_return=bounded),
    )
    _patch_function(
        "repro.summaries.sax",
        "symbol_bounds",
        lambda fn: t.timed("lower_bound.symbol_bounds", fn),
    )

    # candidate walk
    def walked_one(args, kwargs, outcome):
        sums["walk.queries"] += 1
        sums["walk.visited"] += outcome.visited_records
        sums["walk.cells"] += len(args[1])
        return outcome

    def walked_batch(args, kwargs, visited):
        queries, mindists = args[0], args[2]
        sums["walk.queries"] += len(queries)
        sums["walk.visited"] += float(np.sum(visited))
        sums["walk.cells"] += len(queries) * mindists.shape[1]
        return visited

    _patch_function(
        "repro.core.sims",
        "sims_scan",
        lambda fn: t.timed("walk.sims_scan", fn, on_return=walked_one),
    )
    _patch_function(
        "repro.parallel.batch",
        "walk_candidate_blocks",
        lambda fn: t.timed("walk.blocks", fn, on_return=walked_batch),
    )

    # fetch
    def fetched(args, kwargs, rows):
        sums["fetch.records"] += len(rows)
        return rows

    _patch_method(
        RawSeriesFile,
        "get_many",
        lambda fn: t.timed(
            "fetch.get_many", fn, lambda a: a[0].disk, on_return=fetched
        ),
    )
    _patch_method(
        PagedFile,
        "read_stream",
        lambda fn: t.timed("fetch.read_stream", fn, lambda a: a[0].disk),
    )

    # refine
    def refined(args, kwargs, distances):
        sums["refine.rows"] += len(distances)
        return distances

    _patch_function(
        "repro.series.distance",
        "early_abandon_euclidean_block",
        lambda fn: t.timed("refine", fn, on_return=refined),
    )

    # top-k: counted only
    _patch_method(
        _BoundedMaxHeap, "offer", lambda fn: t.counted("topk.offers", fn)
    )

    # approximate batches
    def approximated(args, kwargs, report):
        sums["approx.queries"] += len(report.results)
        sums["approx.records"] += sum(r.visited_records for r in report.results)
        return report

    def approximate_mode(args, kwargs):
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        return batch.mode == "approximate"

    _patch_method(
        CoconutTree,
        "query_batch",
        lambda fn: t.timed(
            "approx", fn, on_return=approximated, when=approximate_mode
        ),
    )

    # lsm, wal, raw append
    def inserted(args, kwargs, report):
        sums["lsm.raw_bytes"] += np.asarray(args[1]).size * 4
        return report

    _patch_method(
        CoconutLSM,
        "insert_batch",
        lambda fn: t.timed(
            "lsm.insert", fn, lambda a: a[0].disk, on_return=inserted
        ),
    )
    _patch_method(
        WriteAheadLog, "append_batch", lambda fn: t.timed("wal.append", fn)
    )
    for attr in ("append_meta", "append_run", "append_compact"):
        _patch_method(
            WriteAheadLog, attr, lambda fn: t.counted("wal.other_frames", fn)
        )
    _patch_method(
        RawSeriesFile, "append_batch", lambda fn: t.timed("raw_append", fn)
    )

    # service
    for attr in ("serve_pending", "current_snapshot", "submit"):
        _patch_method(
            CoconutService,
            attr,
            lambda fn, a=attr: t.timed(f"service.{a}", fn),
        )
    _patch_function(
        "repro.service.snapshot",
        "serve_snapshot_batch",
        lambda fn: t.timed("service.batch", fn),
    )


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
def _family(name: str) -> str:
    return name.split(".", 1)[0] if not name.startswith("summarize.") else name


def ledger(tracer: Tracer, extra: dict) -> dict:
    """Per-layer metrics from the spans; ``extra`` holds workload counts.

    ``extra`` carries what only the workload knows: the LSM counters
    from ``stats_snapshot()`` and the service's ticket timings (for the
    queue wait).  Keys missing from it read 0 — a layer the workload
    never enters did no work.
    """
    spans = tracer.spans
    sums, counts = tracer.sums, tracer.counts
    names = [s[_NAME] for s in spans]
    families = [_family(n) for n in names]
    durations = np.array([s[_END] - s[_START] for s in spans], dtype=np.float64)
    parents = [s[_PARENT] for s in spans]

    child_time = np.zeros(len(spans))
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]

    def ancestors(i):
        parent = parents[i]
        while parent >= 0:
            yield parent
            parent = parents[parent]

    # A span is "outermost" in its family when no ancestor shares it.
    outermost = [
        all(families[a] != families[i] for a in ancestors(i))
        for i in range(len(spans))
    ]

    def family_time(family):
        return float(
            sum(d for d, f, o in zip(durations, families, outermost) if o and f == family)
        )

    def family_io(family):
        total = None
        for span, f, o in zip(spans, families, outermost):
            if o and f == family and span[_IO] is not None:
                total = span[_IO] if total is None else total + span[_IO]
        return total

    def named(name):
        return [i for i, n in enumerate(names) if n == name]

    out: dict = {}
    out["summarize.sax_s"] = family_time("summarize.sax_words")
    out["summarize.interleave_s"] = family_time("summarize.interleave_words")
    out["summarize.deinterleave_s"] = family_time("summarize.deinterleave_keys")
    out["summarize.calls"] = sum(1 for f in families if f.startswith("summarize."))

    sort_io = family_io("sort")
    n_sorts = counts["sort.calls"]
    out["sort.s"] = family_time("sort")
    out["sort.runs"] = sums["sort.runs"] / n_sorts if n_sorts else 0.0
    out["sort.bytes_spilled"] = (
        sort_io.bytes_written / n_sorts if sort_io is not None and n_sorts else 0
    )

    # Bulk load: build minus its summarize and sort work, per build.
    builds = named("bulk_load")
    excluded = 0.0
    excluded_pages = 0
    for i in range(len(spans)):
        fam = families[i]
        if not (fam == "sort" or fam.startswith("summarize.")):
            continue
        chain = list(ancestors(i))
        if not any(names[a] == "bulk_load" for a in chain):
            continue
        if any(families[a] == fam for a in chain):
            continue  # counted with its outermost same-layer span
        excluded += durations[i]
        if fam == "sort" and spans[i][_IO] is not None:
            excluded_pages += spans[i][_IO].total_writes
    build_time = float(sum(durations[i] for i in builds))
    build_pages = sum(
        spans[i][_IO].total_writes for i in builds if spans[i][_IO] is not None
    )
    out["bulk_load.self_s"] = build_time - excluded
    out["bulk_load.pages_written"] = (
        (build_pages - excluded_pages) / len(builds) if builds else 0
    )
    out["bulk_load.leaves"] = tracer.last.get("leaves", 0)
    out["bulk_load.avg_leaf_fill"] = tracer.last.get("avg_leaf_fill", 0.0)

    out["lower_bound.s"] = family_time("lower_bound")
    out["lower_bound.calls"] = len(named("lower_bound.mindist"))
    out["lower_bound.cells"] = sums["lower_bound.cells"]

    walk = [i for i, f in enumerate(families) if f == "walk"]
    out["walk.self_s"] = float(sum(durations[i] - child_time[i] for i in walk))
    queries = sums["walk.queries"]
    out["walk.visited_per_query"] = sums["walk.visited"] / queries if queries else 0.0
    out["walk.pruned_frac"] = (
        1.0 - sums["walk.visited"] / sums["walk.cells"] if sums["walk.cells"] else 0.0
    )

    fetch_io = family_io("fetch")
    out["fetch.s"] = family_time("fetch")
    out["fetch.calls"] = sum(1 for f in families if f == "fetch")
    out["fetch.records"] = sums["fetch.records"]
    out["fetch.random_reads"] = fetch_io.random_reads if fetch_io else 0
    out["fetch.sequential_reads"] = fetch_io.sequential_reads if fetch_io else 0
    out["fetch.sim_io_ms"] = extra["cost_model"].io_ms(fetch_io) if fetch_io else 0.0

    out["refine.s"] = family_time("refine")
    out["refine.rows"] = sums["refine.rows"]
    out["topk.offers"] = counts["topk.offers"]

    approx = set(named("approx"))
    out["approx.s"] = family_time("approx")
    out["approx.leaf_reads"] = sum(
        1
        for i in named("fetch.read_stream")
        if any(a in approx for a in ancestors(i))
    )
    n_approx = sums["approx.queries"]
    out["approx.records_per_query"] = (
        sums["approx.records"] / n_approx if n_approx else 0.0
    )

    lsm_io = family_io("lsm")
    out["lsm.insert_s"] = family_time("lsm")
    out["lsm.flushes"] = extra.get("lsm.flushes", 0)
    out["lsm.merges"] = extra.get("lsm.merges", 0)
    out["lsm.runs"] = extra.get("lsm.runs", 0)
    out["lsm.write_amp"] = (
        lsm_io.bytes_written / sums["lsm.raw_bytes"]
        if lsm_io is not None and sums["lsm.raw_bytes"]
        else 0.0
    )
    out["wal.append_s"] = family_time("wal")
    out["wal.frames"] = len(named("wal.append")) + counts["wal.other_frames"]
    out["raw_append.s"] = family_time("raw_append")

    out["service.serve_batches"] = extra.get("service.batches", 0)
    out["service.queries_per_batch"] = (
        extra.get("service.served", 0) / extra["service.batches"]
        if extra.get("service.batches")
        else 0.0
    )
    out["service.queue_wait_ms"] = _queue_wait_ms(
        [spans[i] for i in named("service.batch")], extra.get("tickets", [])
    )
    out["service.snapshot_s"] = float(
        sum(durations[i] for i in named("service.current_snapshot"))
    )
    return {name: out[name] for name in LAYER_METRICS}


def _queue_wait_ms(batch_spans, tickets) -> float:
    """Mean time a served ticket waited before its batch started, in ms.

    ``tickets`` are ``(submitted_s, served_s)`` pairs on the service
    clock (``time.monotonic``, the tracer's clock too).  A ticket was
    served by the last batch that ended at or before its served time.
    """
    if not batch_spans or not tickets:
        return 0.0
    ends = np.array([s[_END] for s in batch_spans])
    starts = np.array([s[_START] for s in batch_spans])
    waits = []
    for submitted, served in tickets:
        j = int(np.searchsorted(ends, served, side="right")) - 1
        if j >= 0:
            waits.append(max(0.0, starts[j] - submitted))
    return 1000.0 * float(np.mean(waits)) if waits else 0.0
