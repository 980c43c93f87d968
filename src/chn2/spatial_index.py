"""Nearest-neighbor index over grouped points with exact tie-breaking.

One k-d tree supplies candidates: scipy's periodic tree (`boxsize`) over the
coordinates shifted to the window's lower corner for the torus metric, a
plain tree otherwise. The final comparison always recomputes squared
distances from the original coordinates, so results are bit-identical to a
brute-force linear scan under the package's total order (squared distance,
then entry id). `successor_map` answers all rows at once with one k-nearest
query, k two wider than the largest group, and array passes, tied rows included.
Both of its tree queries visit the rows in the tree's leaf order, so consecutive
rows walk the same nodes; its two answers go back to entry order in one scatter
at the end. `nearest_foreign_ties` is the linear scan for one query.
`fan_out` alone decides the threads of every tree query and `map_blocks` call.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

from .geometry import GeometryError, Metric, TORUS, Window, axis_gaps, sq_dist_many


def query_workers() -> int:
    """Threads of a job that `fan_out` spreads: CHN2_THREADS, or min(8, CPU
    count) when it is unset, capped by the CPUs this process may run on,
    since each worker is one OS thread."""
    env = os.environ.get("CHN2_THREADS")
    try:
        count = int(env) if env else min(8, os.cpu_count() or 1)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"CHN2_THREADS must be an integer >= 1, got {env!r}")
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return min(count, len(affinity(0)) if affinity else os.cpu_count() or 1)


# Points per block of `map_blocks`, and the most a job covers on the calling
# thread (`fan_out`): 1M-point builds were fastest with that query threshold.
# A block holds at least one item, so items of more than half of it go one by
# one, and peak memory depends on the item size, not the item count. Measured
# on a 2-core x86-64 VM:
# - Poisson baseline (2 threads, median of 9 runs): 100 seeds of 2,000 points
#   took 659, 559 and 505 ms at 2^11, 2^12 and 2^13, and 19 seeds of 1,000
#   points 70, 67 and 55 ms; at 2^14, 424 and 69 ms, the 19 seeds then
#   splitting 16 + 3 between the two threads.
# - Chain Monte Carlo (chains-mc, `bench/run.py`, 8 s runs, medians of 6
#   alternating rounds): run_s 0.125, 0.107 and 0.107 s at 2^11, 2^12 and
#   2^13 on one thread, and 0.127, 0.109 and 0.102 s on two while the second
#   core was mostly unavailable, against 0.121 s with no pool at 2^11; peak
#   RSS 94.8, 95.5 and 96.8 MB on one thread, 95.7, 96.9 and 99.8 MB on two,
#   against 93.7 MB. With both cores free, two threads read 0.073-0.081,
#   0.063-0.077 and 0.059-0.070 s at 2^12, 2^13 and 2^14, against
#   0.119-0.122 s with no pool; 2^14 and 2^15 took 105.6 and 116.7 MB.
_BLOCK_POINTS = 1 << 13


def fan_out(points) -> int:
    """Threads for a job over `points` points: `query_workers()` on the main
    thread past _BLOCK_POINTS points, else 1 (a pool's thread is one of many)."""
    workers = query_workers()  # refuses a bad CHN2_THREADS at any size
    main = threading.current_thread() is threading.main_thread()
    return workers if main and points > _BLOCK_POINTS else 1


def map_blocks(fn, items, points_per_item) -> list:
    """`fn` of each block of `items`, in block order.

    A block is a contiguous slice of about _BLOCK_POINTS points, at least one
    item, given `points_per_item` points per item. The blocks go to a pool of
    `fan_out` threads for all the items' points, at most one a block, or stay
    on the calling thread when that is one, so a lone block's own tree queries
    may fan out; results come back in block order, whatever the count. At
    most 2 blocks a thread are submitted ahead of the result being read, so
    memory stays flat and a block's error surfaces after a few more blocks."""
    size = max(1, int(_BLOCK_POINTS / max(1.0, points_per_item)))
    blocks = (items[i:i + size] for i in range(0, len(items), size))
    workers = min(fan_out(len(items) * max(1.0, points_per_item)), -(-len(items) // size))
    if workers <= 1:
        return list(map(fn, blocks))
    results, ahead = [], collections.deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for block in blocks:
            if len(ahead) == 2 * workers:
                results.append(ahead.popleft().result())
            ahead.append(pool.submit(fn, block))
        results.extend(future.result() for future in ahead)
    return results


def tree_cut(dist, scale: float):
    """The radius at which a k-d tree query over coordinates of magnitude at
    most `scale` (>= 1) finds every entry within `dist`: wide enough to
    absorb the tree's rounding (on the torus, the shift to the lower corner
    and the wrap by the box side), far below any genuine distance gap."""
    return dist * (1.0 + 1e-9) + 16 * np.finfo(float).eps * scale


def torus_offsets(coords, window: Window) -> np.ndarray:
    """Each point's offset from the window's lower corner: the torus metric
    on that window measures only points whose offsets lie in [0, side]."""
    if np.shape(coords)[1:] != window.lo.shape:
        raise GeometryError(f"the torus window is {window.dim}-D, the points are not")
    data = coords - window.lo
    if np.any(data < 0) or np.any(data > window.side_lengths):
        raise GeometryError("the torus window must contain every point")
    return data


class NnIndex:
    """Immutable nearest-neighbor structure over (point, group) entries.

    A tree query of r rows runs on `fan_out(r)` threads, decided on the
    thread that queries. Group ids, one per point and unchecked, are
    nonnegative and best kept below the entry count: `successor_map` sizes
    its groups with one `np.bincount` table over 0..largest id.
    """

    def __init__(self, coords, groups, metric: Metric = Metric()):
        self.coords = coords = np.atleast_2d(np.asarray(coords, dtype=float))
        self.groups = np.asarray(groups, dtype=np.int64)
        self.metric = metric
        self.n = coords.shape[0]
        scale = [1.0, float(np.max(np.abs(coords)))]
        if self.metric.kind == TORUS:
            side = self.metric.window.side_lengths
            data = torus_offsets(coords, self.metric.window)
            # The upper face is the lower one on the torus; the tree wants [0, L).
            data[data == side] = 0.0
            tree_data, boxsize = data, side
            scale += [float(np.max(data)), float(np.max(side))]
        else:
            tree_data, boxsize = coords, None
        # The tree only gathers candidates and the exact recheck ranks them,
        # so its shape is free: sliding-midpoint splits build fastest.
        self._tree = cKDTree(tree_data, boxsize=boxsize, balanced_tree=False, compact_nodes=False)
        self._scale = max(scale)

    def _query(self, points, k: int):
        """The k nearest tree entries of each point, as (points, k) arrays."""
        k = min(k, self.n)
        dists, ids = self._tree.query(points, k=k, workers=fan_out(len(points)))
        return dists.reshape(-1, k), ids.reshape(-1, k)

    def nearest_foreign_ties(self, query, own_group: int):
        """All entries outside own_group at the exact minimum squared
        distance, by linear scan.

        Returns (sq_distance, ids) with ids sorted ascending.
        """
        ids = np.flatnonzero(self.groups != own_group)
        if ids.size == 0:
            raise LookupError("no entry outside the excluded group")
        sq = sq_dist_many(self.coords[ids], np.asarray(query, dtype=float), self.metric)
        best = sq.min()
        return float(best), ids[sq == best]

    def successor_map(self):
        """For every indexed point, the id of its nearest foreign entry.

        One tree query, with k two more than the largest group, gives every
        row two foreign candidates (if the index has them) and settles each
        row whose leading foreign candidate cannot tie or be beaten within
        slack. The remaining (ambiguous) rows take one batched exact pass: a
        ball query per row at the leader's cut gathers every candidate, whose
        exact squared distances are ranked by (squared distance, entry id).
        Rows stay in the tree's leaf order throughout, and the answers are
        scattered to entry order once. Returns (ids, sq_distances).

        GeometryError refuses squared distances that overflow, or that
        underflow to 0 between distinct points; LookupError, a row with no
        foreign entry.
        """
        rows = np.arange(self.n)
        largest = np.bincount(self.groups).max()
        leaf = self._tree.indices  # entry ids in the order the tree's leaves hold them
        dists, cand = self._query(self._tree.data[leaf], largest + 2)
        if cand.max() == self.n:  # the tree's mark for a neighbour at inf
            raise GeometryError("squared distances between these points overflow")
        foreign = self.groups[cand] != self.groups[leaf, None]
        first = np.argmax(foreign, axis=1)
        if not foreign[rows, first].all():
            raise LookupError("no entry outside the excluded group")
        best = cand[rows, first]
        take = self.coords.take
        best_sq = sq_dist_many(take(best, axis=0), take(leaf, axis=0), self.metric)
        cut = tree_cut(dists[rows, first], self._scale)
        foreign[rows, first] = False
        second = np.argmax(foreign, axis=1)
        # Ambiguous if another candidate (seen or beyond the k-th) could tie
        # or beat the leader within slack.
        ambiguous = foreign[rows, second] & (dists[rows, second] <= cut)
        if cand.shape[1] < self.n:
            ambiguous |= dists[:, -1] <= cut
        amb = np.flatnonzero(ambiguous)
        if amb.size:
            # Every foreign entry within each ambiguous row's cut, ranked by
            # (row, exact squared distance, entry id); each row's first wins.
            hits = self._tree.query_ball_point(
                self._tree.data[leaf[amb]], r=cut[amb], workers=fan_out(amb.size)
            )
            row = np.repeat(amb, np.fromiter(map(len, hits), dtype=np.int64, count=amb.size))
            ids = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=row.size)
            keep = self.groups[ids] != self.groups[leaf[row]]
            row, ids = row[keep], ids[keep]
            sq = sq_dist_many(take(ids, axis=0), take(leaf[row], axis=0), self.metric)
            order = np.lexsort((ids, sq, row))
            row, ids, sq = row[order], ids[order], sq[order]
            win = np.flatnonzero(np.diff(row, prepend=-1))
            best[row[win]] = ids[win]
            best_sq[row[win]] = sq[win]
        out, out_sq = np.empty_like(best), np.empty_like(best_sq)
        out[leaf], out_sq[leaf] = best, best_sq
        tied = np.flatnonzero(out_sq == 0)
        if axis_gaps(take(tied, axis=0), take(out[tied], axis=0), self.metric).any():
            raise GeometryError("squared distances between these points underflow to 0")
        return out, out_sq
