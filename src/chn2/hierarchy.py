"""The clustroid hierarchy engine.

Level 0 sends every point to its nearest neighbor, which organizes the
sample into components that each carry exactly one mutual-nearest-neighbor
2-cycle. The two cycle vertices act as the component's representative pair.
Each subsequent level links pairs to their nearest foreign pair under the
single-linkage pseudo-distance and relinks only the witnessing exit point,
so the successor map stays total while components coarsen strictly until a
single pair remains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import Metric, sq_dist_many
from .pointprocess import Sample
from .spatial_index import NnIndex

SINGLE_PAIR = "single_pair"
MAX_LEVELS = "max_levels"
DEGENERATE = "degenerate"


class StructureError(RuntimeError):
    """A level graph violated the one-2-cycle-per-component structure."""


class HierarchyError(ValueError):
    pass


def functional_structure(succ):
    """Components and cycles of a total successor map, with no assumption
    on cycle lengths.

    Returns (component_id, cycles, head_of) where cycles[c] is the tuple of
    cycle vertices of component c (components ordered by smallest cycle
    vertex) and head_of[x] is the first cycle vertex on the path from x.
    """
    succ = np.asarray(succ, dtype=np.int64)
    n = succ.size
    indeg = np.bincount(succ, minlength=n)
    alive = np.ones(n, dtype=bool)
    stack = list(np.flatnonzero(indeg == 0))
    while stack:
        v = stack.pop()
        alive[v] = False
        w = succ[v]
        indeg[w] -= 1
        if indeg[w] == 0 and alive[w]:
            stack.append(w)
    cyclic = alive

    cycles = []
    seen = np.zeros(n, dtype=bool)
    for v in np.flatnonzero(cyclic):
        if seen[v]:
            continue
        cyc = []
        w = v
        while not seen[w]:
            seen[w] = True
            cyc.append(int(w))
            w = succ[w]
        cycles.append(tuple(cyc))
    cycles.sort(key=min)

    head_of = np.arange(n, dtype=np.int64)
    pending = ~cyclic[head_of]
    while pending.any():
        head_of[pending] = succ[head_of[pending]]
        pending = ~cyclic[head_of]

    cycle_rank = np.empty(n, dtype=np.int64)
    for rank, cyc in enumerate(cycles):
        cycle_rank[list(cyc)] = rank
    component_id = cycle_rank[head_of]
    return component_id, cycles, head_of


@dataclass(frozen=True)
class LevelGraph:
    """One level of the hierarchy: a total successor map and its 2-cycles."""

    level: int
    successor: np.ndarray
    cycles: tuple

    @classmethod
    def from_successors(cls, level, successor):
        successor = np.asarray(successor, dtype=np.int64)
        n = successor.size
        if successor.ndim != 1 or n == 0 or np.any(successor < 0) or np.any(successor >= n):
            raise StructureError("successor map must be total")
        if np.any(successor == np.arange(n)):
            raise StructureError("self-loops are not allowed")
        # Every vertex must reach a 2-cycle: pointer doubling with the 2-cycle
        # vertices as fixed points covers any path of at most n steps.
        ids = np.arange(n)
        mutual = successor[successor] == ids
        reach = np.where(mutual, ids, successor)
        for _ in range((n - 1).bit_length()):
            reach = reach[reach]
        if not mutual[reach].all():
            _, cycles, _ = functional_structure(successor)
            cyc = next(c for c in cycles if len(c) != 2)
            raise StructureError(
                f"level {level}: component cycle {cyc} has length {len(cyc)}, expected 2"
            )
        low = np.flatnonzero(mutual & (ids < successor))
        cycles = tuple(zip(low.tolist(), successor[low].tolist()))
        return cls(level=level, successor=successor, cycles=cycles)

    @property
    def n(self) -> int:
        return self.successor.size

    @property
    def n_components(self) -> int:
        return len(self.cycles)

    @property
    def heads(self) -> np.ndarray:
        if not self.cycles:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.asarray(self.cycles, dtype=np.int64).ravel())


@dataclass
class Pair:
    """A component's representative pair: the two heads of its 2-cycle.

    The exit fields are filled once the next level is computed: `exit` is
    the head achieving the single-linkage minimum to the nearest foreign
    pair, `exit_target` its image there, and `merge_sq` the squared minimum.
    Relinking every pair's exit to its exit target turns level k into
    level k + 1, so level 0 and the exits are the whole hierarchy.
    """

    index: int
    level: int
    heads: tuple
    exit: int | None = None
    exit_target: int | None = None
    merge_sq: float | None = None
    target_pair: int | None = None

    @property
    def merge_distance(self) -> float | None:
        return None if self.merge_sq is None else float(np.sqrt(self.merge_sq))


def level0(sample: Sample, metric: Metric | None = None) -> LevelGraph:
    """Nearest-neighbor successor map over the sample (needs >= 2 points)."""
    metric = metric or Metric.euclidean()
    n = sample.n
    if n < 2:
        raise HierarchyError("level 0 needs at least 2 points")
    index = NnIndex(sample.points, np.arange(n), metric)
    succ, _ = index.successor_map()
    return LevelGraph.from_successors(0, succ)


def extract_pairs(g: LevelGraph) -> list:
    """One Pair per component, indexed in order of the smallest head id."""
    return [Pair(index=i, level=g.level, heads=cyc) for i, cyc in enumerate(g.cycles)]


@dataclass(frozen=True)
class NnStepResult:
    nn_map: np.ndarray
    exits: list


def nn_k_step(pairs, coords, metric: Metric | None = None) -> NnStepResult:
    """Nearest foreign pair and exit points for one level.

    nn_map[i] is the pair minimizing the single-linkage distance to pair i
    (ties by pair index); exits[i] = (exit id, target id, squared distance).
    """
    metric = metric or Metric.euclidean()
    m = len(pairs)
    if m < 2:
        raise HierarchyError("need at least 2 pairs to advance a level")
    head_ids = np.fromiter(
        (h for p in pairs for h in p.heads), dtype=np.int64, count=2 * m
    )
    groups = np.repeat(np.arange(m, dtype=np.int64), 2)
    index = NnIndex(coords[head_ids], groups, metric)
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
    heads = head_ids.reshape(m, 2)
    low = heads[np.minimum(rows, nn_map)]
    high = heads[np.maximum(rows, nn_map)]
    cross = sq_dist_many(coords[high][:, None, :, :], coords[low][:, :, None, :], metric)
    cross = cross.reshape(m, 4)
    best = np.argmin(cross, axis=1)
    x, y = low[rows, best // 2], high[rows, best % 2]
    lower = rows < nn_map
    exit_ids, target_ids = np.where(lower, x, y), np.where(lower, y, x)
    exits = list(zip(exit_ids.tolist(), target_ids.tolist(), cross[rows, best].tolist()))
    return NnStepResult(nn_map=nn_map, exits=exits)


def _match_pairs(g: LevelGraph, pairs) -> None:
    if [(p.index, p.heads) for p in pairs] != list(enumerate(g.cycles)):
        raise HierarchyError(f"level {g.level}: pairs do not match the level's cycles")


def advance_level(g: LevelGraph, pairs) -> LevelGraph:
    """Relink every pair's exit to its exit target, leaving all other images
    fixed: the one step from level k to level k + 1."""
    _match_pairs(g, pairs)
    if any(p.exit not in p.heads for p in pairs):
        raise HierarchyError(f"level {g.level}: an exit is not one of its pair's heads")
    succ = g.successor.copy()
    succ[[p.exit for p in pairs]] = [p.exit_target for p in pairs]
    return LevelGraph.from_successors(g.level + 1, succ)


@dataclass
class Hierarchy:
    """The full level sequence with pair genealogy up to termination."""

    sample: Sample
    metric: Metric
    levels: list
    pairs_by_level: list
    genealogy: dict
    termination: str

    @property
    def termination_level(self) -> int:
        return len(self.levels) - 1


def build_hierarchy(
    sample: Sample, metric: Metric | None = None, max_levels: int = 64
) -> Hierarchy:
    """Iterate the level construction until a single pair remains.

    Termination is `single_pair` in the regular case; `degenerate` for
    samples with fewer than 2 points; `max_levels` only if the guard binds
    first (it cannot, given halving, unless max_levels is set very low).
    """
    metric = metric or Metric.euclidean()
    if sample.n < 2:
        return Hierarchy(sample, metric, [], [], {}, DEGENERATE)

    coords = sample.points
    g = level0(sample, metric)
    levels = [g]
    pairs_by_level = []
    genealogy = {}
    termination = None
    while True:
        pairs = extract_pairs(g)
        pairs_by_level.append(pairs)
        if len(pairs) == 1:
            termination = SINGLE_PAIR
            break
        if g.level >= max_levels:
            termination = MAX_LEVELS
            break
        step = nn_k_step(pairs, coords, metric)
        for pair, (exit_id, target_id, sq), j in zip(pairs, step.exits, step.nn_map):
            pair.exit = int(exit_id)
            pair.exit_target = int(target_id)
            pair.merge_sq = float(sq)
            pair.target_pair = int(j)
        g = advance_level(g, pairs)
        levels.append(g)

        # Every pair's component joins the component headed by the mutual
        # link of its pair-level cluster; record that as its parent.
        pair_comp, pair_cycles, _ = functional_structure(step.nn_map)
        new_index_of_head = {min(c): idx for idx, c in enumerate(g.cycles)}
        comp_to_new = {}
        for cyc in pair_cycles:
            exit_heads = [pairs[i].exit for i in cyc]
            comp_to_new[pair_comp[cyc[0]]] = new_index_of_head[min(exit_heads)]
        k = pairs[0].level
        for pair in pairs:
            genealogy[(k, pair.index)] = (k + 1, comp_to_new[pair_comp[pair.index]])
    return Hierarchy(sample, metric, levels, pairs_by_level, genealogy, termination)


def cluster_subtrees(g: LevelGraph) -> dict:
    """Forest obtained by deleting the two cycle edges of each component.

    Maps each head to the sorted ids of the vertices whose directed path
    reaches it first; the subtrees partition all ids.
    """
    _, _, head_of = functional_structure(g.successor)
    out = {}
    for head in g.heads:
        out[int(head)] = np.flatnonzero(head_of == head)
    return out


def hierarchy_to_json(h: Hierarchy) -> dict:
    """Hierarchy JSON version 2: level 0's successors and the pairs, whose
    exits give every later level (see `advance_level`)."""
    pairs = []
    for level_pairs in h.pairs_by_level:
        for p in level_pairs:
            pairs.append(
                {
                    "level": p.level,
                    "index": p.index,
                    "heads": list(p.heads),
                    "exit": p.exit,
                    "exit_target": p.exit_target,
                    "merge_distance": p.merge_distance,
                    "target_pair": p.target_pair,
                }
            )
    genealogy = [[list(child), list(parent)] for child, parent in sorted(h.genealogy.items())]
    return {
        "version": 2,
        "sample": h.sample.to_json(),
        "metric": h.metric.to_json(),
        "level0": h.levels[0].successor.tolist() if h.levels else [],
        "pairs": pairs,
        "genealogy": genealogy,
        "termination": h.termination,
    }


def _optional(value, kind):
    return None if value is None else kind(value)


def _pair_from_json(rec: dict) -> Pair:
    """The pair without `merge_sq`, which the loader recomputes from the
    exit and its target rather than squaring the stored distance back."""
    return Pair(
        index=int(rec["index"]),
        level=int(rec["level"]),
        heads=tuple(int(x) for x in rec["heads"]),
        exit=_optional(rec["exit"], int),
        exit_target=_optional(rec["exit_target"], int),
        target_pair=_optional(rec["target_pair"], int),
    )


def hierarchy_from_json(obj: dict) -> Hierarchy:
    """Rebuild a hierarchy from level 0 and its pairs' exits.

    Reads versions 2 and 1. A version-1 object carries level 0 as
    `levels[0].successors`; its other level arrays follow from level 0 and
    the pairs, and are ignored. Each `merge_sq` is recomputed from the
    exit and its target, and its root must be the stored `merge_distance`.
    Every rebuilt level is checked, and any defect raises HierarchyError.
    """
    try:
        version = obj.get("version", 1)
        if version not in (1, 2):
            raise HierarchyError(f"unknown hierarchy version {version!r}")
        sample = Sample.from_json(obj["sample"])
        metric = Metric.from_json(obj["metric"])
        if version == 2:
            succ0 = obj["level0"]
        else:
            succ0 = obj["levels"][0]["successors"] if obj["levels"] else []
        by_level, stored = {}, {}
        for rec in obj["pairs"]:
            p = _pair_from_json(rec)
            by_level.setdefault(p.level, []).append(p)
            stored[p.level, p.index] = _optional(rec["merge_distance"], float)
        if sorted(by_level) != list(range(len(by_level))):
            raise HierarchyError("pair levels are not 0, 1, ..., K")
        pairs_by_level = [
            sorted(by_level[k], key=lambda p: p.index) for k in range(len(by_level))
        ]
        levels = []
        if len(succ0) or pairs_by_level:
            if len(succ0) != sample.n or not pairs_by_level:
                raise HierarchyError("level 0 and the pairs do not fit the sample")
            levels.append(LevelGraph.from_successors(0, succ0))
            for pairs in pairs_by_level[:-1]:
                levels.append(advance_level(levels[-1], pairs))
                sq = sq_dist_many(
                    sample.points[[p.exit_target for p in pairs]],
                    sample.points[[p.exit for p in pairs]],
                    metric,
                )
                for p, s in zip(pairs, sq.tolist()):
                    p.merge_sq = s
            _match_pairs(levels[-1], pairs_by_level[-1])
        all_pairs = [p for level_pairs in pairs_by_level for p in level_pairs]
        if any(p.merge_distance != stored[p.level, p.index] for p in all_pairs):
            raise HierarchyError("a merge_distance is not its exit's distance to its target")
        genealogy = {tuple(child): tuple(parent) for child, parent in obj["genealogy"]}
        termination = obj["termination"]
        if termination not in (SINGLE_PAIR, MAX_LEVELS, DEGENERATE):
            raise HierarchyError(f"unknown termination {termination!r}")
    except HierarchyError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, StructureError) as exc:
        raise HierarchyError(
            f"malformed hierarchy object: {type(exc).__name__}: {exc}"
        ) from exc
    return Hierarchy(sample, metric, levels, pairs_by_level, genealogy, termination)


def save_hierarchy(h: Hierarchy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(hierarchy_to_json(h)) + "\n")


def load_hierarchy(path) -> Hierarchy:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HierarchyError(f"{path}: not valid JSON: {exc}") from exc
    return hierarchy_from_json(obj)


def genealogy_newick(h: Hierarchy) -> str:
    """Render the pair genealogy as Newick, one tree per terminal pair.

    Level-0 pairs are the leaves; every merge adds one unit of branch depth,
    so leaf depth equals the level at which its lineage reaches the root.
    """
    children = {}
    for child, parent in h.genealogy.items():
        children.setdefault(parent, []).append(child)

    def render(node):
        level, idx = node
        kids = sorted(children.get(node, []))
        if not kids:
            return f"P{idx}" if level == 0 else f"L{level}_{idx}"
        inner = ",".join(render(c) + ":1" for c in kids)
        return f"({inner})L{level}_{idx}"

    lines = []
    if h.levels:
        top = len(h.levels) - 1
        for p in h.pairs_by_level[top]:
            lines.append(render((top, p.index)) + ";")
    return "\n".join(lines) + ("\n" if lines else "")
