"""Nearest-neighbor index over grouped points with exact tie-breaking.

A k-d tree supplies candidates; the final comparison always recomputes
squared distances from the original coordinates, so query results are
bit-identical to a brute-force linear scan under the package's total order
(squared distance, then entry id). Torus queries are served by indexing the
3^d shifted copies of the data and re-evaluating candidates with the exact
wrapped metric. `successor_map` answers all rows at once with array passes,
tied rows included; `nearest_foreign_ties` answers one query and serves
indexes of at most 64 entries.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Metric, TORUS, sq_dist_many

_BRUTE_FORCE_MAX = 64
# Candidate gathering slack: wide enough to absorb the rounding incurred by
# shifted torus copies, far below any genuine distance gap.
_REL_SLACK = 1e-9


class IndexBuildError(ValueError):
    pass


class NoForeignNeighborError(LookupError):
    """Raised when every indexed entry belongs to the excluded group."""


class NnIndex:
    """Immutable nearest-neighbor structure over (point, group) entries."""

    def __init__(self, coords, groups, metric: Metric | None = None):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.shape[0] == 0:
            raise IndexBuildError("cannot build an index over an empty point set")
        self.coords = coords
        self.groups = np.asarray(groups, dtype=np.int64)
        if self.groups.shape != (coords.shape[0],):
            raise IndexBuildError("need exactly one group id per point")
        self.metric = metric or Metric.euclidean()
        self.n, self.dim = coords.shape
        self._abs_slack = 16 * np.finfo(float).eps * max(
            1.0, float(np.max(np.abs(coords)))
        )
        self._brute = self.n <= _BRUTE_FORCE_MAX
        if self._brute:
            self._tree = None
            self._aug_to_orig = None
        elif self.metric.kind == TORUS:
            period = self.metric.window.side_lengths
            shifts = np.array(
                list(itertools.product((-1.0, 0.0, 1.0), repeat=self.dim))
            )
            blocks = [coords + s * period for s in shifts]
            self._aug_to_orig = np.tile(np.arange(self.n), len(shifts))
            self._tree = cKDTree(np.vstack(blocks))
        else:
            self._aug_to_orig = np.arange(self.n)
            self._tree = cKDTree(coords)

    def __len__(self) -> int:
        return self.n

    def _cut(self, dist: float) -> float:
        return dist * (1.0 + _REL_SLACK) + self._abs_slack

    def _exact_sq(self, query, ids) -> np.ndarray:
        return sq_dist_many(self.coords[ids], np.asarray(query, float), self.metric)

    def nearest_foreign_ties(self, query, own_group: int):
        """All entries outside own_group at the exact minimum squared distance.

        Returns (sq_distance, ids) with ids sorted ascending.
        """
        query = np.asarray(query, dtype=float)
        if self._brute:
            ids = np.flatnonzero(self.groups != own_group)
            if ids.size == 0:
                raise NoForeignNeighborError("no entry outside the excluded group")
            sq = self._exact_sq(query, ids)
            best = sq.min()
            return float(best), np.sort(ids[sq == best])

        k = min(8, self._tree.n)
        while True:
            dists, aug_idx = self._tree.query(query, k=k)
            dists = np.atleast_1d(dists)
            aug_idx = np.atleast_1d(aug_idx)
            orig = self._aug_to_orig[aug_idx]
            foreign = self.groups[orig] != own_group
            if foreign.any():
                approx_best = float(dists[foreign][0])
                exhausted = k >= self._tree.n
                if exhausted or float(dists[-1]) > self._cut(approx_best):
                    hits = self._tree.query_ball_point(query, r=self._cut(approx_best))
                    ids = np.unique(self._aug_to_orig[np.asarray(hits, dtype=np.int64)])
                    ids = ids[self.groups[ids] != own_group]
                    sq = self._exact_sq(query, ids)
                    best = sq.min()
                    return float(best), np.sort(ids[sq == best])
            elif k >= self._tree.n:
                raise NoForeignNeighborError("no entry outside the excluded group")
            k = min(2 * k, self._tree.n)

    def successor_map(self):
        """For every indexed point, the id of its nearest foreign entry.

        One k = 4 tree query settles every row whose leading foreign candidate
        cannot tie or be beaten within slack. The remaining (ambiguous) rows
        take one batched exact pass: rows with no foreign candidate yet widen
        k by doubling, then a single ball query per row at the leader's cut
        gathers every candidate, whose exact squared distances are ranked by
        (squared distance, entry id). Returns (ids, sq_distances).
        """
        out = np.full(self.n, -1, dtype=np.int64)
        out_sq = np.full(self.n, np.inf)
        if self._brute:
            for i in range(self.n):
                sq, ids = self.nearest_foreign_ties(self.coords[i], self.groups[i])
                out[i] = ids[0]
                out_sq[i] = sq
            return out, out_sq

        k = min(4, self._tree.n)
        dists, aug_idx = self._tree.query(self.coords, k=k)
        orig = self._aug_to_orig[aug_idx]
        rows = np.arange(self.n)
        foreign = self.groups[orig] != self.groups[:, None]
        first = np.argmax(foreign, axis=1)
        found = foreign[rows, first]
        cut = self._cut(dists[rows, first])
        foreign[rows, first] = False
        second = np.argmax(foreign, axis=1)
        # Ambiguous if no candidate is foreign, or if another candidate (seen
        # or beyond the k-th) could tie or beat the leader within slack.
        ambiguous = ~found | (foreign[rows, second] & (dists[rows, second] <= cut))
        if k < self._tree.n:
            ambiguous |= dists[:, -1] <= cut
        sure = np.flatnonzero(~ambiguous)
        out[sure] = orig[sure, first[sure]]
        out_sq[sure] = sq_dist_many(self.coords[out[sure]], self.coords[sure], self.metric)
        amb = np.flatnonzero(ambiguous)
        if amb.size == 0:
            return out, out_sq

        # Rows without a foreign candidate: double k until the leader shows.
        # The leader's tree distance, hence its cut, does not depend on k.
        pending = np.flatnonzero(~found)
        k = 8
        while pending.size:
            dists, aug_idx = self._tree.query(self.coords[pending], k=k)
            foreign = self.groups[self._aug_to_orig[aug_idx]] != self.groups[pending, None]
            first = np.argmax(foreign, axis=1)
            hit = foreign[np.arange(pending.size), first]
            cut[pending[hit]] = self._cut(dists[hit, first[hit]])
            pending = pending[~hit]
            if pending.size and k >= self._tree.n:
                raise NoForeignNeighborError("no entry outside the excluded group")
            k = min(2 * k, self._tree.n)

        # Every foreign entry within each ambiguous row's cut, ranked by
        # (row, exact squared distance, entry id); each row's first wins.
        hits = self._tree.query_ball_point(self.coords[amb], r=cut[amb])
        row = np.repeat(amb, np.fromiter(map(len, hits), dtype=np.int64, count=amb.size))
        ids = self._aug_to_orig[
            np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64, count=row.size)
        ]
        keep = self.groups[ids] != self.groups[row]
        row, ids = row[keep], ids[keep]
        sq = sq_dist_many(self.coords[ids], self.coords[row], self.metric)
        order = np.lexsort((ids, sq, row))
        row, ids, sq = row[order], ids[order], sq[order]
        win = np.flatnonzero(np.diff(row, prepend=-1))
        out[row[win]] = ids[win]
        out_sq[row[win]] = sq[win]
        return out, out_sq
