"""Answer checks against brute force computed apart from the program.

Nothing here calls into ``repro``: distances are float64 numpy over the
float32 rows the index holds (the raw file stores float32, so these are
exactly the values the program reads back).  Each check returns a list
of error strings; an empty list means the answer is right.

* Exact k-NN: ids in range and distinct, the reported distances equal
  each id's recomputed distance, and position by position equal the
  brute-force k smallest distances.  Ids may differ from brute force
  only where distances tie within the tolerance.
* Approximate 1-NN: an in-range id whose recomputed distance equals
  the reported one and is at least the exact nearest distance.
* Self-query: a stored row queried by itself comes back at distance 0.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance on distances (the program sums squares in another
#: order than numpy does here; the difference is ~1e-15).
RTOL = 1e-9

#: Rows per chunk of the brute-force scan (bounds its memory).
CHUNK_ROWS = 16_384

#: Extra candidates kept per query by the matrix-product pre-filter
#: before the exact recomputation (its error is ~1e-12, far below the
#: gap this margin covers).
MARGIN = 16


class BruteForce:
    """Exact float64 k-NN over a prefix of a growing float32 row array."""

    def __init__(self, rows: np.ndarray):
        self.rows = np.asarray(rows, dtype=np.float32)
        self.norms = np.einsum(
            "ij,ij->i", self.rows.astype(np.float64), self.rows.astype(np.float64)
        )

    def distances(self, query: np.ndarray, ids) -> np.ndarray:
        """True distances from ``query`` to rows ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        diff = self.rows[ids].astype(np.float64) - np.asarray(query, np.float64)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def knn(self, queries: np.ndarray, k: int, n_rows: int):
        """(ids, distances) of each query's k nearest among rows[:n_rows]."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        keep = min(n_rows, k + MARGIN)
        cand_ids = []
        cand_d2 = []
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(n_rows, start + CHUNK_ROWS)
            block = self.rows[start:stop].astype(np.float64)
            d2 = self.norms[start:stop, None] - 2.0 * (block @ queries.T)
            take = min(keep, stop - start)
            part = np.argpartition(d2, take - 1, axis=0)[:take]
            cand_ids.append(part + start)
            cand_d2.append(np.take_along_axis(d2, part, axis=0))
        ids = np.concatenate(cand_ids)
        d2 = np.concatenate(cand_d2)
        best = np.argpartition(d2, keep - 1, axis=0)[:keep]
        ids = np.take_along_axis(ids, best, axis=0).T  # (Q, keep)
        out_ids = np.empty((len(queries), min(k, n_rows)), dtype=np.int64)
        out_d = np.empty(out_ids.shape)
        for qi, query in enumerate(queries):
            exact = self.distances(query, ids[qi])
            order = np.lexsort((ids[qi], exact))[: out_ids.shape[1]]
            out_ids[qi] = ids[qi][order]
            out_d[qi] = exact[order]
        return out_ids, out_d


def _close(a, b) -> np.ndarray:
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    return np.abs(a - b) <= RTOL * np.maximum(1.0, np.abs(b))


def check_exact(ids, distances, query, truth_ids, truth_d, oracle, n_rows, label):
    """One exact k-NN answer against the brute-force (ids, distances)."""
    ids = np.asarray(ids, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    k = len(truth_ids)
    if len(ids) != k or len(distances) != k:
        return [f"{label}: {len(ids)} answers, expected {k}"]
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= n_rows:
        return [f"{label}: id out of range [0, {n_rows}): {ids.tolist()}"]
    if len(set(ids.tolist())) != k:
        return [f"{label}: duplicate ids {ids.tolist()}"]
    errors = []
    true = oracle.distances(query, ids)
    if not _close(distances, true).all():
        errors.append(f"{label}: reported {distances} != recomputed {true}")
    if np.any(np.diff(distances) < 0):
        errors.append(f"{label}: distances not ascending {distances}")
    if not _close(true, truth_d).all():
        errors.append(
            f"{label}: ids {ids.tolist()} at {true} vs brute force "
            f"{list(truth_ids)} at {truth_d}"
        )
    return errors


def check_approx(answer_id, distance, query, exact_d, oracle, n_rows, label):
    """One approximate 1-NN answer: in range, true distance, >= exact."""
    if not 0 <= answer_id < n_rows:
        return [f"{label}: approximate id {answer_id} out of [0, {n_rows})"]
    true = float(oracle.distances(query, [answer_id])[0])
    errors = []
    if not _close(distance, true):
        errors.append(f"{label}: reported {distance} != recomputed {true}")
    if true < exact_d * (1.0 - RTOL) - RTOL:
        errors.append(f"{label}: approximate {true} below exact {exact_d}")
    return errors


def check_self(answer_id, distance, row, oracle, n_rows, label):
    """A stored row queried by itself must come back at distance 0."""
    if not 0 <= answer_id < n_rows:
        return [f"{label}: id {answer_id} out of [0, {n_rows})"]
    true = float(oracle.distances(row, [answer_id])[0])
    if distance > RTOL or true > RTOL:
        return [f"{label}: self-query at distance {distance} (true {true})"]
    return []
