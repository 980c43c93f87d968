import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chn2.geometry import GeometryError, Metric, Window
from chn2.pointprocess import gen_binomial
from chn2.spatial_index import (
    _BLOCK_POINTS,
    NnIndex,
    fan_out,
    map_blocks,
    query_workers,
)
from conftest import nearest_foreign, oracle_nearest_foreign, oracle_successor_map


def test_single_point_index():
    idx = NnIndex(np.array([[1.0, 2.0]]), np.array([0]))
    assert idx.n == 1
    with pytest.raises(LookupError):
        nearest_foreign(idx, [1.0, 2.0], own_group=0)
    with pytest.raises(LookupError):
        idx.successor_map()


def test_empty_build_errors():
    with pytest.raises(GeometryError):
        NnIndex([[11.0, 0.0]], [0], Metric.torus(Window([0.0, 0.0], [10.0, 10.0])))


def test_successor_map_refuses_unrepresentable_squared_distances():
    # Points 1e-170 apart have a squared distance of 1e-340, which
    # underflows to 0, whether they are single points or the nearest foreign
    # entries of two groups; coincident points keep an exact 0.
    for coords, groups in (([[0.0], [1e-170]], [0, 1]),
                           ([[0.0], [0.0], [1e-170], [1e-170]], [0, 0, 1, 1])):
        with pytest.raises(GeometryError, match="underflow"):
            NnIndex(coords, groups).successor_map()
    with pytest.raises(GeometryError, match="overflow"):
        NnIndex([[0.0, 0.0], [1e200, 1e-200]], [0, 1]).successor_map()
    succ, sq = NnIndex([[0.0], [0.0]], [0, 1]).successor_map()
    assert succ.tolist() == [1, 0] and sq.tolist() == [0.0, 0.0]


def test_query_own_coordinates_hits_self():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    idx = NnIndex(coords, np.arange(3))
    for i in range(3):
        entry, group, dist = nearest_foreign(idx, coords[i], own_group=-1)
        assert (entry, group, dist) == (i, i, 0.0)


def test_two_groups_1d():
    idx = NnIndex(np.array([[0.0], [5.0]]), np.array([0, 1]))
    entry, group, dist = nearest_foreign(idx, [0.0], own_group=0)
    assert (entry, group, dist) == (1, 1, 5.0)


def test_all_groups_excluded_errors():
    idx = NnIndex(np.array([[0.0], [5.0]]), np.array([7, 7]))
    with pytest.raises(LookupError):
        nearest_foreign(idx, [1.0], own_group=7)


def test_exact_tie_break_smallest_id():
    # 1 is equidistant from 0 and 2; the smaller id must win.
    coords = np.array([[0.0], [1.0], [2.0]])
    idx = NnIndex(coords, np.arange(3))
    entry, _, _ = nearest_foreign(idx, [1.0], own_group=1)
    assert entry == 0
    succ, _ = idx.successor_map()
    assert succ.tolist() == [1, 0, 1]


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_oracle_equivalence_random_queries(kind, rng):
    w = Window([0.0, 0.0], [1.0, 1.0])
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(w)
    coords = rng.uniform(0, 1, size=(1000, 2))
    groups = np.arange(1000)
    idx = NnIndex(coords, groups, metric)
    for _ in range(100):
        q = rng.uniform(0, 1, size=2)
        got_entry, _, got_d = nearest_foreign(idx, q, own_group=-1)
        want_sq, want_entry = oracle_nearest_foreign(coords, groups, q, -1, metric)
        assert got_entry == want_entry
        assert got_d**2 == pytest.approx(want_sq, rel=0, abs=1e-12)


def test_oracle_equivalence_grouped(rng):
    coords = rng.uniform(0, 10, size=(200, 3))
    groups = rng.integers(0, 50, size=200)
    metric = Metric.euclidean()
    idx = NnIndex(coords, groups, metric)
    for i in range(200):
        got_entry, got_group, _ = nearest_foreign(idx, coords[i], own_group=groups[i])
        _, want_entry = oracle_nearest_foreign(coords, groups, coords[i], groups[i], metric)
        assert got_entry == want_entry
        assert got_group == groups[want_entry]


def test_successor_map_matches_oracle(rng):
    # d = 9 sums more squares than numpy's pairwise summation leaves in
    # order; the last case has groups of 1 to 9 entries.
    sizes = rng.permutation(np.repeat(np.arange(1, 10), 4))
    uneven = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
    for n, d, groups in [
        (30, 1, None), (300, 2, None), (150, 3, None), (100, 9, None),
        (uneven.size, 2, uneven),
    ]:
        coords = rng.uniform(0, 1, size=(n, d))
        groups = np.arange(n) if groups is None else groups
        metric = Metric.euclidean()
        succ, sqd = NnIndex(coords, groups, metric).successor_map()
        for i in range(n):
            want_sq, want = oracle_nearest_foreign(coords, groups, coords[i], groups[i], metric)
            assert succ[i] == want
            assert sqd[i] == want_sq

    # A torus window far wider than the points: the periodic tree rounds at
    # the scale of the box side (2,000), not of the coordinates (0.01), and
    # near-ties on a 1e-4 grid with 1e-13 jitter fall inside that rounding.
    w = Window([-1000.0, -1000.0], [1000.0, 1000.0])
    metric = Metric.torus(w)
    grid = np.stack(np.meshgrid(np.arange(101), np.arange(101)), axis=-1).reshape(-1, 2)
    coords = 1e-4 * grid[rng.choice(len(grid), size=3000, replace=False)]
    coords += rng.uniform(-1e-13, 1e-13, size=coords.shape)
    groups = np.arange(3000)
    succ, sqd = NnIndex(coords, groups, metric).successor_map()
    want, want_sq = oracle_successor_map(coords, groups, metric)
    assert np.array_equal(succ, want)
    assert np.array_equal(sqd, want_sq)


def test_threaded_tie_heavy_successor_map_matches_brute_force(monkeypatch, tree_calls):
    # The benchmark's quantised-torus construction: 20,000 binomial points
    # on [0, 220]^2 floored to the integer grid, duplicates dropped, ids
    # shuffled. At seed 7 that leaves 16,262 points, and the level-0 ball
    # query over the exact-tie rows alone is wide enough for two threads.
    window = Window([0.0, 0.0], [220.0, 220.0])
    grid = np.unique(np.floor(gen_binomial(20_000, window, 2, 7).points), axis=0)
    coords = grid[np.random.default_rng(7).permutation(len(grid))]
    groups, metric = np.arange(len(coords)), Metric.torus(window)
    answers = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("CHN2_THREADS", threads)
        tree_calls.clear()
        answers[threads] = NnIndex(coords, groups, metric).successor_map()
        balls = [(rows, w) for kind, rows, w in tree_calls if kind == "ball"]
        assert len(balls) == 1 and balls[0][0] > _BLOCK_POINTS
        assert balls[0][1] == query_workers()
    (ids, sq), (ids1, sq1) = answers["2"], answers["1"]
    assert np.array_equal(ids, ids1) and np.array_equal(sq, sq1)
    rows = np.linspace(0, len(coords) - 1, 2000).astype(np.int64)
    want, want_sq = oracle_successor_map(coords, groups, metric, rows)
    assert np.array_equal(ids[rows], want)
    assert np.array_equal(sq[rows], want_sq)


def test_torus_successors_wrap(rng):
    w = Window([0.0], [10.0])
    coords = np.array([[0.5], [9.5], [4.0]])
    idx = NnIndex(coords, np.arange(3), Metric.torus(w))
    succ, sqd = idx.successor_map()
    assert succ.tolist() == [1, 0, 0]  # 0.5 and 9.5 are distance 1 apart
    assert sqd[0] == 1.0
    assert sqd[2] == 3.5**2  # 4.0 reaches 0.5 across the interior

    # A point on the upper face (x = hi) is the point x = lo of the torus.
    coords = np.array([[0.5], [9.5], [4.0], [10.0]])
    succ, sqd = NnIndex(coords, np.arange(4), Metric.torus(w)).successor_map()
    assert succ.tolist() == [3, 3, 0, 0]  # 10.0 ties 0.5 and 9.5; 0 wins
    assert sqd.tolist() == [0.25, 0.25, 3.5**2, 0.25]


def test_grid_ties_match_oracle_everywhere():
    # Integer grids tie constantly; demand bitwise agreement with the scan
    # under (squared distance, entry id). On the 11 x 11 torus the last row
    # and column lie on the upper faces, at distance 0 from the first ones.
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
    coords = np.column_stack([xs.ravel(), ys.ravel()])  # 144 points
    groups = (np.arange(144) // 4).astype(np.int64)
    w = Window([0.0, 0.0], [12.0, 12.0])
    faces = Window([0.0, 0.0], [11.0, 11.0])
    for metric in (Metric.euclidean(), Metric.torus(w), Metric.torus(faces)):
        idx = NnIndex(coords, groups, metric)
        succ, sqd = idx.successor_map()
        for i in range(144):
            want_sq, want = oracle_nearest_foreign(
                coords, groups, coords[i], groups[i], metric
            )
            assert succ[i] == want, (i, metric.kind)
            assert sqd[i] == want_sq


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_successor_map_matches_per_row_ties(kind, rng):
    # A coarse integer grid repeats coordinates across groups (distance-0
    # ties) and, on the torus, pairs points across the wrap. Groups of six,
    # stacked on one coordinate or spread over a tiny cluster, leave rows
    # with no foreign entry among the tree's first four candidates.
    w = Window([0.0, 0.0], [8.0, 8.0])
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(w)
    coords = np.vstack([
        rng.integers(0, 8, size=(300, 2)).astype(float),
        np.repeat([[0.0, 0.0], [7.5, 3.0]], 6, axis=0),
        [3.5, 3.5] + 0.01 * np.arange(6)[:, None] * [1.0, 0.3],
        rng.uniform(0, 8, size=(100, 2)),
    ])
    groups = np.concatenate([
        rng.integers(0, 120, size=300), np.repeat([500, 501, 502], 6),
        np.arange(600, 700),
    ])
    idx = NnIndex(coords, groups, metric)
    succ, sqd = idx.successor_map()
    for i in range(len(coords)):
        want_sq, want_ids = idx.nearest_foreign_ties(coords[i], groups[i])
        assert succ[i] == want_ids[0], i
        assert sqd[i] == want_sq, i


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_successor_map_widens_k_for_clustered_groups(kind, rng, monkeypatch):
    # A group of 40 within 0.001 of one spot and a group of 30 stacked on one
    # coordinate, off the grid: a k = 4 query would show their rows only
    # their own group, so the one k-nearest query takes k = 42, the largest
    # group plus two. Six entries, five in one group: k is the index size.
    calls = []
    query = NnIndex._query

    def counted(self, points, k):
        calls.append(k)
        return query(self, points, k)

    monkeypatch.setattr(NnIndex, "_query", counted)
    w = Window([0.0, 0.0], [10.0, 10.0])
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(w)
    clustered = np.vstack([
        rng.integers(0, 10, size=(200, 2)).astype(float),
        [3.3, 6.6] + rng.uniform(0, 0.001, size=(40, 2)),
        np.repeat([[7.5, 2.5]], 30, axis=0),
    ])
    six = np.column_stack([[1.0, 1.2, 1.4, 1.6, 1.8, 2.5], np.ones(6)])
    cases = [
        (clustered, np.concatenate([np.arange(200), np.full(40, 900), np.full(30, 901)])),
        (six, np.array([0, 0, 0, 0, 0, 1])),
    ]
    for coords, groups in cases:
        idx = NnIndex(coords, groups, metric)
        calls.clear()
        succ, sqd = idx.successor_map()
        assert calls == [np.bincount(groups).max() + 2]
        for i in range(len(coords)):
            want_sq, want_ids = idx.nearest_foreign_ties(coords[i], groups[i])
            assert succ[i] == want_ids[0], i
            assert sqd[i] == want_sq, i
    assert succ.tolist() == [5, 5, 5, 5, 5, 4]


def test_successor_map_one_group_tree_backed_raises():
    for n in (1, 3, 100):
        coords = np.random.default_rng(5).uniform(0, 1, size=(n, 2))
        idx = NnIndex(coords, np.zeros(n, dtype=np.int64))
        with pytest.raises(LookupError):
            idx.successor_map()


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_successor_map_tree_path_needs_no_per_row_query(kind, rng, monkeypatch):
    # Every row of a lattice ties; the index must settle them all in its
    # batched pass, without one nearest_foreign_ties call.
    def per_row(*args, **kwargs):
        raise AssertionError("per-row fallback called")

    monkeypatch.setattr(NnIndex, "nearest_foreign_ties", per_row)
    xs, ys = np.meshgrid(np.arange(30.0), np.arange(30.0))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    groups = rng.permutation(900) // 2
    w = Window([0.0, 0.0], [30.0, 30.0])
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(w)
    succ, sqd = NnIndex(coords, groups, metric).successor_map()
    for i in range(900):
        want_sq, want = oracle_nearest_foreign(coords, groups, coords[i], groups[i], metric)
        assert succ[i] == want, i
        assert sqd[i] == want_sq, i


def test_queries_do_not_mutate(rng):
    coords = rng.uniform(0, 1, size=(500, 2))
    idx = NnIndex(coords, np.arange(500))
    first = nearest_foreign(idx, coords[0], own_group=0)
    for _ in range(5):
        assert nearest_foreign(idx, coords[0], own_group=0) == first
    assert np.array_equal(idx.coords, coords)


def test_query_workers_capped_by_usable_cpus(monkeypatch):
    # scipy starts one thread per worker; only the helper's value is checked.
    monkeypatch.setenv("CHN2_THREADS", "100000")
    assert 1 <= query_workers() <= len(os.sched_getaffinity(0))
    monkeypatch.setenv("CHN2_THREADS", "1")
    assert query_workers() == 1


@pytest.mark.parametrize("points_per_item, size", [
    (0.5, _BLOCK_POINTS),  # an item counts as at least one point
    (100, _BLOCK_POINTS // 100),
    (10**6, 1),
    (math.inf, 1),
])
def test_map_blocks_cuts_contiguous_blocks(points_per_item, size, pool_sizes, monkeypatch):
    monkeypatch.setenv("CHN2_THREADS", "2")
    items = list(range(2 * _BLOCK_POINTS + 5))
    blocks = map_blocks(list, items, points_per_item)
    # joined in order, the blocks are the items, so each is a contiguous slice
    assert [x for b in blocks for x in b] == items
    assert all(len(b) == size for b in blocks[:-1]) and 1 <= len(blocks[-1]) <= size
    assert pool_sizes == ([2] if query_workers() == 2 else [])  # [] with one usable CPU


def test_map_blocks_keeps_few_blocks_in_flight(monkeypatch):
    # A real pool of 2: results come back in block order, and a failing first
    # block surfaces after at most 2 blocks a thread were cut and submitted,
    # where handing the pool every block cut all 1,000 first.
    monkeypatch.setenv("CHN2_THREADS", "2")

    class Items(list):
        cuts = 0

        def __getitem__(self, key):
            Items.cuts += isinstance(key, slice)
            return super().__getitem__(key)

    items = Items(range(1000))
    assert map_blocks(lambda block: block[0], items, _BLOCK_POINTS) == list(items)
    assert Items.cuts == 1000
    Items.cuts, calls = 0, []

    def fn(block):
        calls.append(block[0])
        if block[0] == 0:
            raise RuntimeError("block 0")
        return block[0]

    with pytest.raises(RuntimeError, match="block 0"):
        map_blocks(fn, items, _BLOCK_POINTS)
    assert 1 <= len(calls) <= Items.cuts <= 2 * query_workers() + 1


def test_fan_out_spreads_only_main_thread_jobs_past_a_block(monkeypatch):
    monkeypatch.setenv("CHN2_THREADS", "2")
    sizes = (_BLOCK_POINTS, _BLOCK_POINTS + 1)
    assert [fan_out(n) for n in sizes] == [1, query_workers()]
    with ThreadPoolExecutor(max_workers=1) as pool:
        assert pool.submit(lambda: [fan_out(n) for n in sizes]).result() == [1, 1]


def test_map_blocks_maps_one_block_or_a_worker_thread_call_in_place(monkeypatch, pool_sizes):
    # Same blocks, same order, whether they go to a pool or stay in place.
    # One block stays in place even past _BLOCK_POINTS points.
    monkeypatch.setenv("CHN2_THREADS", "2")
    few, many = list(range(10)), list(range(2 * _BLOCK_POINTS + 5))
    assert map_blocks(list, few, 1) == [few]
    assert map_blocks(list, [7], 2 * _BLOCK_POINTS) == [[7]]
    with ThreadPoolExecutor(max_workers=1) as pool:
        off_main = pool.submit(map_blocks, list, many, 1).result()
    assert pool_sizes == []
    assert map_blocks(list, many, 1) == off_main and len(off_main) == 3
    assert pool_sizes == ([2] if query_workers() == 2 else [])  # [] with one usable CPU
