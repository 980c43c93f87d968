"""The clustroid hierarchy engine.

Level 0 sends every point to its nearest neighbor, which organizes the
sample into components that each carry exactly one mutual-nearest-neighbor
2-cycle. The two cycle vertices act as the component's representative pair.
Each subsequent level links pairs to their nearest foreign pair under the
single-linkage pseudo-distance and relinks only the witnessing exit point,
so the successor map stays total while components coarsen strictly until a
single pair remains.

Every level is arrays: a `LevelGraph` holds its pairs as an (m, 2) array
and the step from the units below it, the points for level 0 (whose step
is the successor map) and level k - 1's pairs for a level k >= 1, with
`parent` taking each unit on to its pair. Level 0's map and the exit
columns are the whole hierarchy: `advance_level` derives and checks the
rest from them, for the build and the loader alike. The hierarchy file
(version 4) stores just those next to the sample, whose points are one flat
list (see `Sample.from_json`); the loader reads no other version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import TORUS, Metric, sq_dist_many
from .pointprocess import _MALFORMED, Sample, load_json
from .spatial_index import NnIndex, torus_offsets

SINGLE_PAIR = "single_pair"
DEGENERATE = "degenerate"


class HierarchyError(ValueError):
    """A level or a hierarchy file breaks the one-2-cycle-per-component
    structure, or a build cannot proceed."""


def functional_structure(succ):
    """Components and cycles of a total successor map, with no assumption
    on cycle lengths.

    Returns (component_id, cycles, head_of) where cycles[c] is the tuple of
    cycle vertices of component c (components ordered by smallest cycle
    vertex) and head_of[x] is the first cycle vertex on the path from x.
    """
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    # With no stop vertex every path ends on its cycle, which succ permutes
    # onto itself: the reached vertices are the cycle vertices.
    cyclic = np.zeros(n, dtype=bool)
    cyclic[_reach(succ, cyclic)] = True

    # Ascending, each cycle is first met at its smallest vertex; rank -1 is unseen.
    cycles, rank = [], np.full(n, -1, dtype=np.int64)
    for v in np.flatnonzero(cyclic):
        if rank[v] < 0:
            cyc = [int(v)]
            while succ[cyc[-1]] != v:
                cyc.append(int(succ[cyc[-1]]))
            rank[cyc] = len(cycles)
            cycles.append(tuple(cyc))
    head_of = _reach(succ, cyclic)
    return rank[head_of], cycles, head_of


def _reach(succ, stop):
    """reach[x] is the first vertex on x's path where `stop` holds, if the
    path meets one at all, else a vertex of the cycle the path ends on.

    Pointer doubling with the stop vertices as fixed points covers any path
    of at most n steps. It stops once reach[reach] equals reach, as no later
    round could change it.
    """
    ids = np.arange(succ.size)
    reach = np.where(stop, ids, succ)
    for _ in range((succ.size - 1).bit_length()):
        doubled = reach[reach]
        if np.array_equal(doubled, reach):
            break
        reach = doubled
    return reach


def _reach_two_cycles(succ):
    """(mutual, reach): mutual[x] says x lies on a 2-cycle, and reach[x] is
    the first such vertex on x's path (see `_reach`)."""
    mutual = succ[succ] == np.arange(succ.size)
    return mutual, _reach(succ, mutual)


@dataclass(frozen=True)
class LevelGraph:
    """One level of the hierarchy: a total successor map and its 2-cycles,
    one (low head, high head) row per pair in ascending order of low head.

    Each level holds the step from the units below it, one row per unit:
    the image `exit_target` of the unit's exit and `parent`, the pair of
    this level that the unit's component joins. Level 0's units are the
    points, each its own exit (`exit` and `merge_sq` are `None`), so its
    `exit_target` is the map. A level k >= 1 holds level k - 1 as `below`,
    whose pairs i are its units: `exit[i]` is the head of pair i nearest to
    another pair in single linkage, at squared distance `merge_sq[i]`.
    `pair_of` composes the `parent` columns from the points up, and
    `successor` replays levels 1, ..., k onto one copy of level 0's map.
    """

    level: int
    pairs: np.ndarray
    exit_target: np.ndarray
    parent: np.ndarray
    exit: np.ndarray | None = None
    merge_sq: np.ndarray | None = None
    below: LevelGraph | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_successors(cls, level, successor):
        successor = np.asarray(successor, dtype=np.int64)
        n = successor.size
        if successor.ndim != 1 or n == 0 or np.any(successor < 0) or np.any(successor >= n):
            raise HierarchyError(f"level {level}: successor map must be total")
        ids = np.arange(n)
        if np.any(successor == ids):
            raise HierarchyError(f"level {level}: self-loops are not allowed")
        mutual, reach = _reach_two_cycles(successor)
        if not mutual[reach].all():
            _, cycles, _ = functional_structure(successor)
            cyc = next(c for c in cycles if len(c) != 2)
            raise HierarchyError(
                f"level {level}: component cycle {cyc} has length {len(cyc)}, expected 2"
            )
        low = np.flatnonzero(mutual & (ids < successor))
        pair = ids  # ids is read no more: it becomes the heads' pair table
        pair[low] = pair[successor[low]] = np.arange(low.size)
        return cls(level, np.column_stack([low, successor[low]]), successor, pair[reach])

    @property
    def successor(self) -> np.ndarray:
        if self.below is None:
            return self.exit_target
        succ = self.below.successor
        succ = succ.copy() if succ is self.below.exit_target else succ
        succ[self.exit] = self.exit_target
        return succ

    @property
    def n(self) -> int:
        return self.exit_target.size if self.below is None else self.below.n

    @property
    def n_components(self) -> int:
        return len(self.pairs)

    def pair_of(self, ids) -> np.ndarray:
        """The index of the pair whose component holds each given point."""
        return self.parent[ids if self.below is None else self.below.pair_of(ids)]


def level0(sample: Sample, metric: Metric = Metric()) -> LevelGraph:
    """Nearest-neighbor successor map over the sample (needs >= 2 points).
    `NnIndex.successor_map` refuses squared distances that overflow or
    underflow to 0 with GeometryError."""
    if sample.n < 2:
        raise HierarchyError("level 0 needs at least 2 points")
    succ, _ = NnIndex(sample.points, np.arange(sample.n), metric).successor_map()
    return LevelGraph.from_successors(0, succ)


def nn_k_step(pairs, coords, metric: Metric = Metric()):
    """Exit points for one level's (m, 2) pairs.

    Returns the next level's step columns (exit, exit_target): exit[i] ->
    exit_target[i] witnesses the single-linkage distance from pair i to its
    nearest foreign pair (ties by pair index).
    """
    heads = np.asarray(pairs, dtype=np.int64)
    m = len(heads)
    if m < 2:
        raise HierarchyError("need at least 2 pairs to advance a level")
    head_ids = heads.ravel()
    groups = np.repeat(np.arange(m, dtype=np.int64), 2)
    index = NnIndex(coords.take(head_ids, axis=0), groups, metric)
    entry_best, entry_sq = index.successor_map()

    # Lexicographic (squared distance, target pair index) over each pair's two
    # entries; entry order within the index is monotone in pair index, so
    # index-level ties already resolve to the smallest pair.
    sq = entry_sq.reshape(m, 2)
    target = groups[entry_best].reshape(m, 2)
    tie = sq[:, 0] == sq[:, 1]
    first = (sq[:, 0] < sq[:, 1]) | (tie & (target[:, 0] <= target[:, 1]))
    nn_map = np.where(first, target[:, 0], target[:, 1])

    # Both directions of a mutual link must agree on the witnessing points, so
    # the single-linkage argmin is taken once per unordered pair of pairs,
    # over the four cross distances, under the order (squared distance, head
    # of the lower-indexed pair, head of the other). Heads are ascending, so
    # the first minimum of the flattened (x, y) grid is that argmin.
    rows = np.arange(m)
    low = heads[np.minimum(rows, nn_map)]
    high = heads[np.maximum(rows, nn_map)]
    high_xy, low_xy = coords.take(high, axis=0), coords.take(low, axis=0)
    cross = np.column_stack([
        sq_dist_many(high_xy[:, y], low_xy[:, x], metric) for x in (0, 1) for y in (0, 1)
    ])
    best = np.argmin(cross, axis=1)
    x, y = low[rows, best // 2], high[rows, best % 2]
    lower = rows < nn_map
    return np.where(lower, x, y), np.where(lower, y, x)


def advance_level(g: LevelGraph, exit, exit_target, points, metric: Metric):
    """Level k + 1, holding the step from level k = g.level, from the exit
    columns: relink every pair's exit to its exit target, leaving all other
    images fixed. This is the one step, with all its checks, that the build
    and the loader share.

    The check is on the pair map i -> target_pair[i], in O(m). In a valid
    level k the heads are exactly the 2-cycle vertices. If every exit is a
    head of its own pair and every target one of another pair, every vertex
    still reaches its pair's heads; there the other head leads to exit[i],
    and exit[i] to a head of target_pair[i]. So the relinked map has one
    cycle per component of the pair map, through the exits of its pair
    cycle, and that cycle is a 2-cycle iff the pair cycle has length 2 with
    exit_target[i] == exit[target_pair[i]]; level k + 1's pairs are then
    those exit pairs, sorted by lower head, and the one that pair i's path
    in the pair map reaches is its parent, read from the new pairs' ranks.
    Any other input goes to `LevelGraph.from_successors` on the relinked
    map, which words the error; only if it passes is a target not a foreign
    head.
    """
    if np.shape(exit_target) != np.shape(exit):
        raise HierarchyError(f"level {g.level}: exit and exit_target differ in length")
    exit, target = np.asarray(exit), np.asarray(exit_target)
    if not all(np.issubdtype(c.dtype, np.integer) for c in (exit, target)):
        raise HierarchyError(f"level {g.level}: exit columns must hold integer point ids")
    exit, target = exit.astype(np.int64, copy=False), target.astype(np.int64)
    if exit.shape != (g.n_components,) or not np.all(
        (g.pairs[:, 0] == exit) | (g.pairs[:, 1] == exit)
    ):
        raise HierarchyError(f"level {g.level}: an exit is not one of its pair's heads")
    ids = np.arange(g.n_components)
    if target.min() >= 0 and target.max() < g.n:
        target_pair = g.pair_of(target)
        on_head = (g.pairs[target_pair, 0] == target) | (g.pairs[target_pair, 1] == target)
        if np.all(on_head & (target_pair != ids)):
            mutual, reach = _reach_two_cycles(target_pair)
            if mutual[reach].all() and np.array_equal(exit[target_pair[mutual]], target[mutual]):
                rows = np.flatnonzero(mutual & (ids < target_pair))
                a, b = exit[rows], target[rows]
                low, high = np.minimum(a, b), np.maximum(a, b)
                order = np.argsort(low)
                rank = np.empty(g.n_components, dtype=np.int64)
                rank[rows[order]] = np.arange(rows.size)
                merge_sq = sq_dist_many(
                    points.take(target, axis=0), points.take(exit, axis=0), metric
                )
                return LevelGraph(
                    g.level + 1, np.column_stack([low, high])[order], target,
                    rank[np.minimum(reach, target_pair[reach])], exit, merge_sq, g,
                )
    relinked = LevelGraph(g.level + 1, None, target, None, exit, below=g)
    LevelGraph.from_successors(g.level + 1, relinked.successor)
    raise HierarchyError(f"level {g.level}: an exit target is not a foreign head")


@dataclass
class Hierarchy:
    """The level sequence down to a single pair, each level with the step
    that made it; no levels for fewer than 2 points."""

    sample: Sample
    metric: Metric
    levels: list

    @property
    def termination(self) -> str:
        return SINGLE_PAIR if self.levels else DEGENERATE


def build_hierarchy(sample: Sample, metric: Metric = Metric()) -> Hierarchy:
    """Iterate the level construction until a single pair remains.

    `advance_level` refuses a pair map with a self-target or a cycle other
    than a 2-cycle, so every level at least halves the pairs and m_0 level-0
    pairs reach one pair within floor(log2 m_0) levels. Termination is
    `single_pair`, or `degenerate` for samples with fewer than 2 points.
    """
    levels = []
    if sample.n >= 2:
        levels.append(level0(sample, metric))
        while levels[-1].n_components > 1:
            g = levels[-1]
            exits, targets = nn_k_step(g.pairs, sample.points, metric)
            levels.append(advance_level(g, exits, targets, sample.points, metric))
    return Hierarchy(sample, metric, levels)


def _v4_layout(h: Hierarchy, sample) -> dict:
    """Hierarchy JSON version 4, with `sample` in the sample's slot: level
    0's successors and, per level above 0, the [exit, exit_target]
    columns that give it (see `advance_level`)."""
    return {
        "version": 4,
        "sample": sample,
        "metric": h.metric.to_json(),
        "level0": h.levels[0].successor.tolist() if h.levels else [],
        "exits": [[g.exit.tolist(), g.exit_target.tolist()] for g in h.levels[1:]],
    }


def hierarchy_to_json(h: Hierarchy) -> dict:
    """The hierarchy as a version-4 JSON object."""
    return _v4_layout(h, h.sample.to_json())


def _point_ids(values, what: str) -> np.ndarray:
    """A decoded JSON list of point ids as an int64 array. Only ints pass:
    JSON true and false would otherwise read as 1 and 0, and strings or
    floats as their numeric value."""
    if not set(map(type, values)) <= {int}:
        raise HierarchyError(f"{what} is not a list of point ids")
    return np.array(values, dtype=np.int64)


def hierarchy_from_json(obj: dict) -> Hierarchy:
    """Rebuild a hierarchy from a version-4 object: relink level 0 by each
    level's [exit, exit_target] columns through `advance_level`, as the build
    does, down to a single pair.

    HierarchyError refuses a file whose structure is malformed (earlier
    versions, ids that are not points, columns that break the level
    structure, a last level of several pairs) or whose torus window does
    not contain the sample. That each exit is its pair's nearest foreign
    head is not checked: only a rebuild could check it."""
    try:
        version = obj.get("version", 1)
        if type(version) is not int or version != 4:
            raise HierarchyError(
                f"hierarchy version {version!r} is not read (only version 4); "
                "rebuild it with `chn2 cluster`"
            )
        sample = Sample.from_json(obj["sample"])
        metric = Metric.from_json(obj["metric"])
        if metric.kind == TORUS:
            torus_offsets(sample.points, metric.window)
        succ0, exit_columns = obj["level0"], obj["exits"]
        if len(succ0) != (sample.n if sample.n >= 2 else 0):
            raise HierarchyError("level 0 does not fit the sample")
        levels = []
        if len(succ0):
            levels.append(LevelGraph.from_successors(0, _point_ids(succ0, "level 0")))
        elif len(exit_columns):
            raise HierarchyError("exit columns without a level 0")
        for exit_col, target_col in exit_columns:
            g = levels[-1]
            what = f"level {g.level}: an exit column"
            levels.append(advance_level(
                g, _point_ids(exit_col, what), _point_ids(target_col, what),
                sample.points, metric,
            ))
        if levels and levels[-1].n_components > 1:
            raise HierarchyError(
                f"the hierarchy stops at level {levels[-1].level} with "
                f"{levels[-1].n_components} pairs; rebuild it with `chn2 cluster`"
            )
    except HierarchyError:
        raise
    except _MALFORMED as exc:
        raise HierarchyError(
            f"malformed hierarchy object: {type(exc).__name__}: {exc}"
        ) from exc
    return Hierarchy(sample, metric, levels)


def save_hierarchy(h: Hierarchy, path) -> None:
    """Write `hierarchy_to_json(h)` as one line of JSON, with the sample's
    own text (`Sample.json_text`) in its slot. For a sample file written by
    `save_sample` the bytes are those of `json.dumps`."""
    fields = {key: json.dumps(value) for key, value in _v4_layout(h, None).items()}
    fields["sample"] = h.sample.json_text()
    text = ", ".join(f"{json.dumps(key)}: {value}" for key, value in fields.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{" + text + "}\n")


def load_hierarchy(path) -> Hierarchy:
    return load_json(
        path, lambda obj, text: hierarchy_from_json(obj), HierarchyError,
        sample_of=lambda h: h.sample,
    )


def genealogy_newick(h: Hierarchy) -> str:
    """Render the pair genealogy as one Newick tree, rooted at the single
    terminal pair ("" for a degenerate hierarchy).

    Level-0 pairs are the leaves P{i}; level k groups the names of level
    k - 1 under `parent` into (...)L{k}_{j}, each child one unit of branch
    depth below, so leaf depth equals the level of the root.
    """
    if not h.levels:
        return ""
    names = [f"P{i}" for i in range(h.levels[0].n_components)]
    for g in h.levels[1:]:
        kids = [[] for _ in range(g.n_components)]
        for name, j in zip(names, g.parent.tolist()):
            kids[j].append(name + ":1")
        names = [f"({','.join(inner)})L{g.level}_{j}" for j, inner in enumerate(kids)]
    return names[0] + ";\n"
