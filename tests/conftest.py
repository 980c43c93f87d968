"""Shared brute-force oracles, kept independent of the package internals,
and two views of a built hierarchy for comparing against them: its
version-2 JSON and a digest of its arrays. Two oracles are built from package
parts instead: the level step with the whole-map check that the pair-map
check replaced, and the Poisson baseline built seed by seed."""

import dataclasses
import hashlib
import itertools
import math
import statistics
from concurrent.futures import Future

import numpy as np
import pytest

from chn2 import spatial_index
from chn2.geometry import Metric, TORUS, sq_dist_many
from chn2.hierarchy import (
    HierarchyError,
    LevelGraph,
    _reach_two_cycles,
    build_hierarchy,
    genealogy_newick,
)
from chn2.pointprocess import gen_poisson
from chn2.stats import mean_distance_series


def oracle_sq_dist(a, b, metric: Metric) -> float:
    """Reference squared distance, written separately from the library."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    total = 0.0
    for j in range(a.size):
        delta = abs(a[j] - b[j])
        if metric.kind == TORUS:
            period = metric.window.hi[j] - metric.window.lo[j]
            delta = min(delta, period - delta)
        total += delta * delta
    return total


def oracle_nearest_foreign(coords, groups, query, own_group, metric):
    """Linear scan under the order (squared distance, entry id)."""
    best = None
    for i in range(len(coords)):
        if groups[i] == own_group:
            continue
        key = (oracle_sq_dist(query, coords[i], metric), i)
        if best is None or key < best:
            best = key
    return best  # None if no foreign entry


def nearest_foreign(index, query, own_group):
    """(entry id, group id, distance) of the index's closest entry outside
    own_group, ties to the smallest id."""
    sq, ids = index.nearest_foreign_ties(query, own_group)
    i = int(ids[0])
    return i, int(index.groups[i]), float(np.sqrt(sq))


def oracle_single_linkage_sq(coords_a, coords_b, metric):
    return min(
        oracle_sq_dist(x, y, metric)
        for x in np.atleast_2d(coords_a)
        for y in np.atleast_2d(coords_b)
    )


def oracle_sq_matrix(coords, metric: Metric, rows=None) -> np.ndarray:
    """Squared distances from coords[rows] (every row by default) to all
    points, summed coordinate by coordinate in the same order as
    oracle_sq_dist, so each entry is bitwise equal to it."""
    coords = np.atleast_2d(np.asarray(coords, float))
    left = coords if rows is None else coords[rows]
    total = np.zeros((len(left), len(coords)))
    for j in range(coords.shape[1]):
        delta = np.abs(left[:, None, j] - coords[None, :, j])
        if metric.kind == TORUS:
            period = metric.window.hi[j] - metric.window.lo[j]
            delta = np.minimum(delta, period - delta)
        total += delta * delta
    return total


def oracle_successor_map(coords, groups, metric: Metric, rows=None, block=256):
    """The nearest foreign entry of each of `rows` (every row by default)
    under (squared distance, entry id), as (ids, sq_distances), from
    oracle_sq_matrix in blocks of rows."""
    groups = np.asarray(groups)
    rows = np.arange(len(groups)) if rows is None else np.asarray(rows)
    ids, sq = np.empty(rows.size, dtype=np.int64), np.empty(rows.size)
    for start in range(0, rows.size, block):
        part = slice(start, start + block)
        d = oracle_sq_matrix(coords, metric, rows[part])
        d[groups[rows[part], None] == groups[None, :]] = np.inf
        ids[part] = np.argmin(d, axis=1)  # the first minimum: the smallest id
        sq[part] = d[np.arange(len(d)), ids[part]]
    return ids, sq


def _oracle_two_cycles(succ):
    """(cycles, cycle_of): the 2-cycles of a total map as ascending tuples in
    order of their smaller vertex, and for each vertex the index of the cycle
    its path ends in. Fails if some path ends in a longer cycle."""
    n = len(succ)
    ends = []
    for v in range(n):
        w, steps = v, 0
        while succ[succ[w]] != w:
            w, steps = succ[w], steps + 1
            assert steps <= n, f"the path from {v} ends in a cycle longer than 2"
        ends.append(min(w, succ[w]))
    lows = sorted(set(ends))
    rank = {low: i for i, low in enumerate(lows)}
    return [(low, succ[low]) for low in lows], [rank[e] for e in ends]


def oracle_hierarchy_json(sample, metric: Metric) -> dict:
    """The hierarchy JSON (version 2) of a sample of at least 2 points, built
    by O(n^2) scans per level under the package's total order: level 0 sends
    each point to the argmin of (squared distance, id); each pair links to
    the pair of least single-linkage distance, ties to the lower pair index;
    the witness of two linked pairs is the least (squared distance, head of
    the lower pair, head of the other), and the exit is the linking pair's
    end of it. A pair's parent is the next-level pair its component reaches.
    """
    sq = oracle_sq_matrix(sample.points, metric).tolist()
    n = sample.n
    succ = [
        min((j for j in range(n) if j != i), key=lambda j: (sq[i][j], j)) for i in range(n)
    ]
    out = {
        "version": 2,
        "sample": sample_json_v2(sample),
        "metric": metric.to_json(),
        "level0": succ,
        "pairs": [],
        "genealogy": [],
        "termination": "single_pair",
    }
    cycles, _ = _oracle_two_cycles(succ)
    level = 0
    while len(cycles) > 1:
        m = len(cycles)
        link = [[min(sq[x][y] for x in cycles[i] for y in cycles[j]) for j in range(m)]
                for i in range(m)]
        nn = [min((j for j in range(m) if j != i), key=lambda j: (link[i][j], j))
              for i in range(m)]
        nxt = list(succ)
        records = []
        for i in range(m):
            low, high = min(i, nn[i]), max(i, nn[i])
            d, x, y = min((sq[x][y], x, y) for x in cycles[low] for y in cycles[high])
            exit_pt, target = (x, y) if i == low else (y, x)
            nxt[exit_pt] = target
            records.append({
                "level": level, "index": i, "heads": list(cycles[i]), "exit": exit_pt,
                "exit_target": target, "merge_distance": float(np.sqrt(d)),
                "target_pair": nn[i],
            })
        new_cycles, cycle_of = _oracle_two_cycles(nxt)
        out["pairs"] += records
        out["genealogy"] += [[[level, i], [level + 1, cycle_of[cycles[i][0]]]] for i in range(m)]
        succ, cycles, level = nxt, new_cycles, level + 1
    out["pairs"].append({
        "level": level, "index": 0, "heads": list(cycles[0]), "exit": None,
        "exit_target": None, "merge_distance": None, "target_pair": None,
    })
    return out


def oracle_target_pairs(g, exit_target) -> np.ndarray:
    """The index of the level-g pair that holds each exit target (-1 for a
    vertex that is no head), read from a dictionary over g's pairs rather
    than from `LevelGraph.pair_of`."""
    pair_of_head = {x: i for i, heads in enumerate(g.pairs.tolist()) for x in heads}
    return np.array([pair_of_head.get(x, -1) for x in np.asarray(exit_target).tolist()],
                    dtype=np.int64)


def vertex_next_level(g, exit, exit_target, points, metric: Metric):
    """`next_level` as it was before level k + 1 was checked on the pair
    map: relink the exits, then check the whole n-vertex successor map with
    `LevelGraph.from_successors`, with the same errors in the same order.
    Its target pairs come from `oracle_target_pairs`, and must equal the
    ones derived from the exit targets by `pair_of`; its parents are read
    from the new level's `pair_of` rather than from the new pairs' ranks."""
    if np.shape(exit_target) != np.shape(exit):
        raise HierarchyError(f"level {g.level}: exit and exit_target differ in length")
    exit = np.asarray(exit, dtype=np.int64)
    if exit.shape != (g.n_components,) or not (g.pairs == exit[:, None]).any(axis=1).all():
        raise HierarchyError(f"level {g.level}: an exit is not one of its pair's heads")
    succ = g.successor.copy()
    succ[exit] = exit_target
    nxt = LevelGraph.from_successors(g.level + 1, succ)
    target_pair = oracle_target_pairs(g, exit_target)
    is_head = g.successor[g.successor[exit_target]] == exit_target
    if not is_head.all() or np.any(target_pair == np.arange(g.n_components)):
        raise HierarchyError(f"level {g.level}: an exit target is not a foreign head")
    assert np.array_equal(target_pair, g.pair_of(exit_target))
    merge_sq = sq_dist_many(points[exit_target], points[exit], metric)
    _, reach = _reach_two_cycles(target_pair)
    parent = nxt.pair_of(exit[reach])
    return dataclasses.replace(
        nxt, exit=exit, exit_target=exit_target, merge_sq=merge_sq, parent=parent
    )


def oracle_baseline_series(window, expected_count, seeds, metric: Metric) -> tuple:
    """The `seed_series` of a Poisson baseline with every seed built on its
    own, which blocked builds must reproduce bit for bit."""
    lam = expected_count / window.volume
    samples = (gen_poisson(lam, window, window.dim, s) for s in seeds)
    return tuple(tuple(mean_distance_series(build_hierarchy(s, metric))) for s in samples)


def oracle_monte_carlo_p_value(target, seed_series) -> float:
    """The detector's Monte Carlo p-value computed level by level over
    Python lists: each sample's largest |x_k - mean_k| / sd_k, with mean_k
    by `statistics.fmean` and sd_k by the exactly summed `statistics.stdev`
    over the other samples (0 where the deviation is 0, inf where only sd_k
    is), then the target's rank among the m + 1 statistics."""
    samples = [target, *seed_series]
    depth = min(map(len, samples))
    logs = [[math.log(v) for v in s[:depth]] for s in samples]
    stat = []
    for i, own in enumerate(logs):
        worst = 0.0
        for k, x in enumerate(own):
            others = [s[k] for j, s in enumerate(logs) if j != i]
            dev = abs(x - statistics.fmean(others))
            if dev > 0:
                sd = statistics.stdev(others)
                worst = max(worst, dev / sd if sd > 0 else math.inf)
        stat.append(worst)
    return (1 + sum(s >= stat[0] for s in stat[1:])) / len(stat)


def _merge_json(h) -> dict:
    """The pairs, genealogy and termination fields of hierarchy JSON v2, as
    the version-2 writer wrote them."""
    pairs, genealogy = [], []
    for k, g in enumerate(h.levels):
        if k + 1 < len(h.levels):
            nxt = h.levels[k + 1]
            columns = zip(
                nxt.exit.tolist(), nxt.exit_target.tolist(),
                np.sqrt(nxt.merge_sq).tolist(), g.pair_of(nxt.exit_target).tolist(),
            )
            genealogy += [[[k, i], [k + 1, j]] for i, j in enumerate(nxt.parent.tolist())]
        else:
            columns = [(None, None, None, None)] * g.n_components
        pairs += [
            {
                "level": k, "index": i, "heads": heads, "exit": x, "exit_target": y,
                "merge_distance": d, "target_pair": t,
            }
            for i, (heads, (x, y, d, t)) in enumerate(zip(g.pairs.tolist(), columns))
        ]
    return {"pairs": pairs, "genealogy": genealogy, "termination": h.termination}


def sample_json_v2(sample) -> dict:
    """The sample object as version-2 hierarchy files hold it: `points` is
    a list of [x, y, ...] rows, not today's flat list."""
    return {**sample.to_json(), "points": sample.points.tolist()}


def hierarchy_json_v2(h) -> dict:
    """The version-2 view of a built hierarchy: level 0 and every pair's
    record, the genealogy and the termination, as `oracle_hierarchy_json`
    writes them."""
    return {
        "version": 2,
        "sample": sample_json_v2(h.sample),
        "metric": h.metric.to_json(),
        "level0": h.levels[0].successor.tolist() if h.levels else [],
        **_merge_json(h),
    }


def oracle_cluster_subtrees(g) -> dict:
    """The forest left by deleting the two cycle edges of each component of
    the level graph g: each head, ascending, mapped to the ascending ids
    whose path reaches it first, found by walking every path."""
    succ = g.successor.tolist()
    trees = {head: [] for head in sorted(v for v in range(len(succ)) if succ[succ[v]] == v)}
    for v in range(len(succ)):
        w = v
        while succ[succ[w]] != w:
            w = succ[w]
        trees[w].append(v)
    return {head: np.array(ids, dtype=np.int64) for head, ids in trees.items()}


def hierarchy_array_digest(h) -> str:
    """sha256 over a hierarchy's arrays: every level's successor map and
    pairs, then per level k below the top its pair map and the step columns
    that level k + 1 holds (dtype, shape and bytes alike), then the
    termination and the Newick genealogy. It depends on no file layout, so a
    built and a loaded hierarchy agree on it exactly when they are equal bit
    for bit. The pair map, `levels[k].pair_of(exit_target)`, comes first,
    in the order the recorded digests hash it, and must equal
    `oracle_target_pairs`."""
    arrays = [a for g in h.levels for a in (g.successor, g.pairs)]
    for g, nxt in zip(h.levels, h.levels[1:]):
        target_pair = g.pair_of(nxt.exit_target)
        assert np.array_equal(target_pair, oracle_target_pairs(g, nxt.exit_target))
        arrays += [target_pair, nxt.exit, nxt.exit_target, nxt.merge_sq, nxt.parent]
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(f"{a.dtype.str}{a.shape}".encode())
        sha.update(np.ascontiguousarray(a).tobytes())
    sha.update(h.termination.encode())
    sha.update(genealogy_newick(h).encode())
    return sha.hexdigest()


def oracle_descent_violations(g, coords, metric: Metric, within=None):
    """Consecutive edge-length triples along simple paths of the level graph
    g that fail d_i < max(d_{i-1}, d_{i-2}).

    A triple lies on a simple path exactly when its four vertices are
    distinct (out-degree is 1). `within` optionally restricts starting
    vertices. Returns a list of (x, s(x), s2(x), s3(x), d0, d1, d2).
    """
    succ = g.successor
    x0 = np.arange(g.n) if within is None else np.asarray(within, dtype=np.int64)
    x1 = succ[x0]
    x2 = succ[x1]
    x3 = succ[x2]
    distinct = (
        (x0 != x1) & (x0 != x2) & (x0 != x3)
        & (x1 != x2) & (x1 != x3) & (x2 != x3)
    )
    d0, d1, d2 = (
        np.array([oracle_sq_dist(coords[a], coords[b], metric) for a, b in zip(u, v)])
        for u, v in ((x0, x1), (x1, x2), (x2, x3))
    )
    bad = distinct & (d2 >= np.maximum(d0, d1))
    return [
        (
            int(x0[i]), int(x1[i]), int(x2[i]), int(x3[i]),
            float(np.sqrt(d0[i])), float(np.sqrt(d1[i])), float(np.sqrt(d2[i])),
        )
        for i in np.flatnonzero(bad)
    ]


def oracle_second_order_descending(lengths) -> bool:
    """True iff d_i < max(d_{i-1}, d_{i-2}) for every i >= 2."""
    ds = list(lengths)
    return all(ds[i] < max(ds[i - 1], ds[i - 2]) for i in range(2, len(ds)))


def oracle_chain_lengths(points, ids) -> tuple:
    """Step lengths of the chain through the rows `ids` of `points`, which
    may not repeat a vertex."""
    pts = np.atleast_2d(np.asarray(points, float))
    ids = [int(i) for i in ids]
    if len(set(ids)) != len(ids):
        raise ValueError("chain vertices may not repeat")
    return tuple(float(np.linalg.norm(pts[b] - pts[a])) for a, b in zip(ids, ids[1:]))


def oracle_count_chains(points, n, R, origin=0):
    """Unpruned enumeration over all vertex sequences of length n."""
    pts = np.atleast_2d(np.asarray(points, float))
    m = pts.shape[0]
    if n == 0:
        return 1
    others = [i for i in range(m) if i != origin]
    count = 0
    for seq in itertools.permutations(others, n):
        d = oracle_chain_lengths(pts, [origin, *seq])
        if d[0] >= R:
            continue
        if n >= 2 and d[1] >= R:
            continue
        if oracle_second_order_descending(d):
            count += 1
    return count


def oracle_count_chains_dfs(points, n, R, origin=0):
    """Depth-first chain count over the dense distance matrix, with the
    path's vertices kept in a Python set, so any number of points works.
    Unlike `oracle_count_chains` it scales to Monte Carlo samples."""
    pts = np.atleast_2d(np.asarray(points, float))
    m = pts.shape[0]
    if n == 0:
        return 1
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    neighbors = [np.flatnonzero((dist[i] < R) & (np.arange(m) != i)) for i in range(m)]
    count = 0
    # (vertex, depth, last step, the step before, vertices on the path)
    stack = [(origin, 0, 0.0, 0.0, {origin})]
    while stack:
        v, depth, d1, d2, visited = stack.pop()
        for w in neighbors[v].tolist():
            if w in visited:
                continue
            step = dist[v, w]
            if depth >= 2 and not step < max(d1, d2):
                continue
            if depth + 1 == n:
                count += 1
            else:
                stack.append((w, depth + 1, step, d1, visited | {w}))
    return count


# Master seeds and spawn indices at which the package's seed derivation is
# pinned to numpy's: one-word and many-word seeds, word boundaries, and the
# indices around a chain block's end. SECOND_WORD_INDICES need a second
# spawn-key word.
PINNED_SEEDS = [0, 1, 101, 2**32 - 1, 2**32, 2**64 - 1, 2**140 + 7]
PINNED_INDICES = [0, 1, 39, 40, 2**16, 2**32 - 1]
SECOND_WORD_INDICES = [2**32, 2**40 + 3, 2**64 - 1]


def oracle_child_seed(seed, index) -> int:
    """Child seed `index` of `seed` from numpy's own SeedSequence."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


# Expected points per group of chain Monte Carlo trials, which fixes the
# trials' streams.
CHAIN_GROUP_POINTS = 1 << 12


def _oracle_trial_mean(cfg) -> float:
    """Mean point count of a chain trial, lam w_d (n R)^d."""
    w_d = math.pi ** (cfg.d / 2) / math.gamma(cfg.d / 2 + 1)
    return cfg.lam * (w_d * (cfg.n * cfg.R) ** cfg.d)


def oracle_chain_group_size(cfg) -> int:
    """Trials per group of a chain Monte Carlo config: 4096 expected points'
    worth of trials, at least one."""
    return max(1, int(CHAIN_GROUP_POINTS / max(1.0, _oracle_trial_mean(cfg))))


def oracle_group_points(cfg, g):
    """The trials of group g of a chain Monte Carlo config, origin first.
    The group's generator draws its Poisson counts on the ball of radius
    n*R, then normal directions and uniform radii for all of its points;
    each trial's are then normalised and scaled on their own. The generator
    is seeded through numpy's own SeedSequence, not the package's seed
    derivation."""
    rng = np.random.default_rng(oracle_child_seed(cfg.seed, g))
    size = oracle_chain_group_size(cfg)
    counts = rng.poisson(_oracle_trial_mean(cfg), min(size, cfg.trials - g * size))
    x = rng.standard_normal((int(counts.sum()), cfg.d))
    u = rng.random((int(counts.sum()), 1))
    trials, end = [], 0
    for k in counts.tolist():
        xt, ut = x[end:end + k], u[end:end + k]
        end += k
        norms = np.linalg.norm(xt, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        r = cfg.n * cfg.R * ut ** (1.0 / cfg.d)
        trials.append(np.vstack([np.zeros((1, cfg.d)), xt / norms * r]))
    return trials


def oracle_trial_points(cfg, t):
    """Trial t of a chain Monte Carlo config: its group drawn alone, trial t
    sliced out."""
    size = oracle_chain_group_size(cfg)
    return oracle_group_points(cfg, t // size)[t % size]


def oracle_expected_chains_weighted(n, d, trials, seed):
    """Sequential importance-sampling estimate of the exact expected chain
    count at lam = R = 1: draw each next point uniformly in its admissible
    ball and weight by the product of admissible volumes. Independent of
    both the chain counter and the point-process sampler.
    """
    rng = np.random.default_rng(seed)
    w_d = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    weights = np.empty(trials)
    for t in range(trials):
        weight = 1.0
        steps = []
        for i in range(n):
            r = 1.0 if i < 2 else max(steps[-1], steps[-2])
            steps.append(r * rng.random() ** (1.0 / d))
            weight *= w_d * r**d
        weights[t] = weight
    return float(weights.mean()), float(weights.std(ddof=1) / np.sqrt(trials))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def tree_calls(monkeypatch):
    """A list of (query kind, rows, workers), one per k-d tree query that
    the package makes while the test runs."""
    calls = []

    class SpyTree(spatial_index.cKDTree):
        def query(self, x, *args, workers=1, **kwargs):
            calls.append(("query", len(x), workers))
            return super().query(x, *args, workers=workers, **kwargs)

        def query_ball_point(self, x, *args, workers=1, **kwargs):
            calls.append(("ball", len(x), workers))
            return super().query_ball_point(x, *args, workers=workers, **kwargs)

    monkeypatch.setattr(spatial_index, "cKDTree", SpyTree)
    return calls


@pytest.fixture
def pool_sizes(monkeypatch):
    """A list of the thread counts that `map_blocks` asks for while the
    test runs, one per call. A recorder stands in for the pool and maps on
    the calling thread, so no thread is started."""
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(spatial_index, "ThreadPoolExecutor", Recorder)
    return asked
