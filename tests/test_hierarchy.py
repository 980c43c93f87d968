import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chn2 import hierarchy, spatial_index
from chn2.geometry import Metric, Window
from chn2.hierarchy import (
    DEGENERATE,
    SINGLE_PAIR,
    HierarchyError,
    LevelGraph,
    advance_level,
    build_hierarchy,
    functional_structure,
    genealogy_newick,
    hierarchy_from_json,
    hierarchy_to_json,
    level0,
    load_hierarchy,
    nn_k_step,
    save_hierarchy,
)
from chn2.pointprocess import Sample, gen_binomial, load_sample, save_sample
from conftest import (
    PINNED_SEEDS,
    hierarchy_array_digest,
    hierarchy_json_v2,
    oracle_cluster_subtrees,
    oracle_descent_violations,
    oracle_hierarchy_json,
    vertex_next_level,
)

WIDE = Window([-1000.0], [1000.0])
DATA = Path(__file__).parent / "data"


def line_sample(coords):
    pts = np.asarray(coords, float).reshape(-1, 1)
    return Sample(pts, WIDE, 1, {"kind": "manual"}, 0)


def plane_sample(coords, lo=-1000.0, hi=1000.0):
    pts = np.asarray(coords, float)
    return Sample(pts, Window([lo, lo], [hi, hi]), 2, {"kind": "manual"}, 0)


def mutual_links(nn_map):
    return [(i, int(j)) for i, j in enumerate(nn_map) if nn_map[j] == i and i < j]


def first_step(s):
    """Level 1 of sample s, under the Euclidean metric, which holds the step
    from level 0, and level 0's pair map: the pair that holds each exit
    target."""
    g = level0(s)
    exits, targets = nn_k_step(g.pairs, s.points, Metric.euclidean())
    nxt = advance_level(g, exits, targets, s.points, Metric.euclidean())
    return nxt, g.pair_of(nxt.exit_target)


def step_exits(nxt):
    """(exit, exit target, squared distance) per pair of the step a level
    holds."""
    return list(zip(nxt.exit.tolist(), nxt.exit_target.tolist(), nxt.merge_sq.tolist()))


def test_level0_four_points():
    g = level0(line_sample([0, 1, 3, 7]))
    assert g.successor.tolist() == [1, 0, 1, 2]
    assert g.n_components == 1
    assert g.pairs.tolist() == [[0, 1]]
    assert [lv.exit for lv in build_hierarchy(line_sample([0, 1, 3, 7])).levels] == [None]


def test_level0_two_components():
    g = level0(line_sample([0, 1, 5, 6, 20]))
    assert g.pairs.tolist() == [[0, 1], [2, 3]]
    assert functional_structure(g.successor)[0].tolist() == [0, 0, 1, 1, 1]


def test_level0_two_points():
    g = level0(line_sample([2, 9]))
    assert g.pairs.tolist() == [[0, 1]]


def test_level0_needs_two_points():
    with pytest.raises(HierarchyError):
        level0(line_sample([4]))


def test_level_pairs_match_components():
    g = level0(line_sample([0, 1, 5, 6, 20]))
    assert g.pairs.tolist() == [[0, 1], [2, 3]]
    assert g.pairs.dtype == np.int64
    assert len(g.pairs) == g.n_components


def test_nn_step_two_pairs():
    s = line_sample([0, 1, 5, 6, 20])
    step, target_pair = first_step(s)
    assert target_pair.tolist() == [1, 0]
    assert mutual_links(target_pair) == [(0, 1)]
    # exits: point 1 (coord 1) <-> point 2 (coord 5), distance 4
    assert step_exits(step)[0] == (1, 2, 16.0)
    assert step_exits(step)[1] == (2, 1, 16.0)


def test_nn_step_eight_point_example():
    s = line_sample([0, 1, 10, 11, 14, 15, 30, 31])
    step, target_pair = first_step(s)
    # pairs: A=(0,1) B=(2,3) C=(4,5) D=(6,7) by ids
    assert target_pair.tolist() == [1, 2, 1, 2]
    assert mutual_links(target_pair) == [(1, 2)]
    exits = step_exits(step)
    assert exits[0] == (1, 2, 81.0)  # coord 1 -> coord 10
    assert exits[1] == (3, 4, 9.0)  # coord 11 -> coord 14
    assert exits[2] == (4, 3, 9.0)
    assert exits[3] == (6, 5, 225.0)  # coord 30 -> coord 15


def test_globally_closest_pair_is_mutual(rng):
    for _ in range(20):
        s = plane_sample(rng.uniform(0, 100, size=(60, 2)), 0, 100)
        g = level0(s)
        if g.n_components < 2:
            continue
        step, nn_map = first_step(s)
        sq = step.merge_sq
        best = min(range(g.n_components), key=lambda i: (sq[i], i))
        j = int(nn_map[best])
        assert nn_map[j] == best


def test_advance_level_five_points():
    s = line_sample([0, 1, 5, 6, 20])
    g = level0(s)
    exits, targets = nn_k_step(g.pairs, s.points, Metric.euclidean())
    g1 = advance_level(g, exits, targets, s.points, Metric.euclidean())
    assert g1.level == 1
    assert g1.successor.tolist() == [1, 2, 1, 2, 3]
    assert g1.pairs.tolist() == [[1, 2]]
    assert g1.n_components == 1
    # only the exits 1 and 2 are relinked; every other image stays
    assert list(zip(exits.tolist(), targets.tolist())) == [(1, 2), (2, 1)]
    changed = np.flatnonzero(g1.successor != g.successor)
    assert changed.tolist() == [1, 2]


def test_advance_level_eight_points():
    s = line_sample([0, 1, 10, 11, 14, 15, 30, 31])
    g = level0(s)
    exits, targets = nn_k_step(g.pairs, s.points, Metric.euclidean())
    g1 = advance_level(g, exits, targets, s.points, Metric.euclidean())
    assert g1.n_components == 1
    assert g1.pairs.tolist() == [[3, 4]]  # coords 11 and 14


def test_component_count_halves(rng):
    for _ in range(10):
        s = plane_sample(rng.uniform(0, 50, size=(120, 2)), 0, 50)
        h = build_hierarchy(s)
        for a, b in zip(h.levels[:-1], h.levels[1:]):
            assert b.n_components <= a.n_components // 2


def test_build_hierarchy_terminations():
    h = build_hierarchy(line_sample([0, 1, 3, 7]))
    assert h.termination == SINGLE_PAIR
    assert len(h.levels) - 1 == 0

    h2 = build_hierarchy(line_sample([0, 1, 5, 6, 20]))
    assert h2.termination == SINGLE_PAIR
    assert len(h2.levels) - 1 == 1
    assert h2.levels[1].pairs.tolist() == [[1, 2]]

    assert build_hierarchy(line_sample([3])).termination == DEGENERATE
    assert build_hierarchy(line_sample([])).termination == DEGENERATE


def test_build_runs_the_loader_checks(monkeypatch):
    # An exit target in the exit's own pair still leaves a valid next level
    # here (1 -> 0 is pair (0, 1)'s own 2-cycle edge), so only the check
    # shared with the loader refuses it.
    def own_partner(pairs, coords, metric=None):
        exits, targets = nn_k_step(pairs, coords, metric)
        assert exits[0] == 1
        return exits, np.concatenate([[0], targets[1:]])

    monkeypatch.setattr(hierarchy, "nn_k_step", own_partner)
    with pytest.raises(HierarchyError, match="not a foreign head"):
        build_hierarchy(line_sample([0, 1, 5, 6, 20]))


def test_exit_target_off_the_heads_is_refused():
    # Point 4 feeds pair (2, 3) but is no head. Relinking pair (0, 1)'s exit
    # to it still gives a valid level, so only the head check refuses it.
    obj = hierarchy_to_json(build_hierarchy(line_sample([0, 1, 10, 11, 12.4, 19.5, 20.5])))
    assert obj["exits"] == [[[1, 3, 5], [2, 5, 3]]]
    obj["exits"][0][1][0] = 4
    with pytest.raises(HierarchyError, match="not a foreign head"):
        hierarchy_from_json(obj)


def test_pair_of_maps_both_heads(rng):
    h = build_hierarchy(plane_sample(rng.uniform(0, 10, size=(200, 2)), 0, 10))
    for g in h.levels:
        rows = np.arange(g.n_components)
        assert np.array_equal(g.pair_of(g.pairs[:, 0]), rows)
        assert np.array_equal(g.pair_of(g.pairs[:, 1]), rows)


def test_genealogy_total_and_consistent(rng):
    s = plane_sample(rng.uniform(0, 30, size=(80, 2)), 0, 30)
    h = build_hierarchy(s)
    genealogy = hierarchy_json_v2(h)["genealogy"]
    assert len(genealogy) == sum(g.n_components for g in h.levels[:-1])
    assert all(parent[0] == child[0] + 1 for child, parent in genealogy)
    for g, next_g in zip(h.levels, h.levels[1:]):
        comp = functional_structure(next_g.successor)[0]
        assert len(next_g.parent) == g.n_components
        for heads, parent in zip(g.pairs, next_g.parent):
            assert parent < next_g.n_components
            # the pair's heads live inside the parent's component
            assert comp[heads[0]] == comp[next_g.pairs[parent][0]]


def test_cluster_subtrees_examples():
    g = level0(line_sample([0, 1, 3, 7]))
    trees = oracle_cluster_subtrees(g)
    assert sorted(trees) == [0, 1]
    assert trees[0].tolist() == [0]
    assert trees[1].tolist() == [1, 2, 3]

    g2 = level0(line_sample([0, 1, 50, 51]))
    trees2 = oracle_cluster_subtrees(g2)
    assert all(ids.tolist() == [head] for head, ids in trees2.items())
    assert len(trees2) == 4


def test_subtrees_partition(rng):
    s = plane_sample(rng.uniform(0, 20, size=(150, 2)), 0, 20)
    h = build_hierarchy(s)
    for g in h.levels:
        trees = oracle_cluster_subtrees(g)
        # the reference: one scan of functional_structure's head_of per head
        head_of = functional_structure(g.successor)[2]
        assert list(trees) == np.sort(g.pairs.ravel()).tolist()
        for head, ids in trees.items():
            assert np.array_equal(ids, np.flatnonzero(head_of == head))
        sizes = sum(ids.size for ids in trees.values())
        assert sizes == s.n
        united = np.sort(np.concatenate([ids for ids in trees.values()]))
        assert np.array_equal(united, np.arange(s.n))


def test_functional_structure_generic_cycle_detection():
    # 3-cycle plus a tail: the structure helper must report it faithfully,
    # and the level-graph constructor must reject it.
    succ = np.array([1, 2, 0, 0])
    comp, cycles, head_of = functional_structure(succ)
    assert cycles == [(0, 1, 2)]
    assert comp.tolist() == [0, 0, 0, 0]
    assert head_of[3] == 0
    with pytest.raises(HierarchyError):
        LevelGraph.from_successors(0, succ)


def random_functional_map(rng, n, cycle_lengths):
    """A total map on n vertices with the given cycles; every other vertex
    points to one placed before it, so it reaches one of the cycles."""
    order = rng.permutation(n)
    succ = np.empty(n, dtype=np.int64)
    start = 0
    for length in cycle_lengths:
        cyc = order[start:start + length]
        succ[cyc] = np.roll(cyc, -1)
        start += length
    for t in range(start, n):
        succ[order[t]] = order[rng.integers(0, t)]
    return succ


def walk_structure_oracle(succ):
    """functional_structure's (component_id, cycles, head_of) by walking
    each vertex's path until a vertex repeats: the first repeated vertex is
    the path's first cycle vertex, and the walk since its first visit is
    the cycle, listed here from its smallest vertex."""
    heads, cycles = [], set()
    for v in range(len(succ)):
        path, seen = [], {}
        w = v
        while w not in seen:
            seen[w] = len(path)
            path.append(w)
            w = int(succ[w])
        cyc = path[seen[w]:]
        start = cyc.index(min(cyc))
        heads.append(w)
        cycles.add(tuple(cyc[start:] + cyc[:start]))
    cycles = sorted(cycles)
    rank = {v: c for c, cyc in enumerate(cycles) for v in cyc}
    return [rank[h] for h in heads], cycles, heads


# Sizes for the maps whose walks take O(n^2) steps: every n up to 33, and
# n next to each power of two up to 256, where one doubling round too few
# falls short of the longest tail.
WALK_SIZES = sorted(set(range(1, 34)) | {2**k + j for k in range(5, 9) for j in (-1, 0, 1, 2)})


def test_functional_structure_matches_walk_oracle(rng):
    # Self-loops, one cycle through all n vertices, and the longest tails
    # into a 1-cycle (n - 1 steps) and into a 2-cycle (n - 2 steps), each
    # also relabelled; then random maps of 1 to 300 vertices with cycles of
    # 1 to 5 vertices.
    maps = []
    for n in WALK_SIZES:
        ring = rng.permutation(n)
        cycle = np.empty(n, dtype=np.int64)
        cycle[ring] = np.roll(ring, -1)
        maps += [np.arange(n), cycle]
        tails = [np.maximum(np.arange(n) - 1, 0)]
        if n >= 2:
            tails.append(np.concatenate([[1, 0], np.arange(1, n - 1)]))
        for tail in tails:
            relabel = rng.permutation(n)
            relabelled = np.empty(n, dtype=np.int64)
            relabelled[relabel] = relabel[tail]
            maps += [tail, relabelled]
    for n in range(1, 301):
        lengths = [int(rng.integers(1, min(5, n) + 1))]
        while rng.random() < 0.7 and sum(lengths) + 5 <= n:
            lengths.append(int(rng.integers(1, 6)))
        maps.append(random_functional_map(rng, n, lengths))
    for succ in maps:
        comp, cycles, head_of = functional_structure(succ)
        want_comp, want_cycles, want_heads = walk_structure_oracle(succ)
        assert cycles == want_cycles
        assert comp.tolist() == want_comp and head_of.tolist() == want_heads


def structure_oracle(level, succ):
    """from_successors' cycles or error message, from functional_structure."""
    _, cycles, _ = functional_structure(succ)
    for cyc in cycles:
        if len(cyc) != 2:
            return f"level {level}: component cycle {cyc} has length {len(cyc)}, expected 2"
    return tuple((min(c), max(c)) for c in cycles)


def test_from_successors_matches_functional_structure(rng, monkeypatch):
    # Valid maps must pass the array check alone; the peel loop only runs to
    # word the error for an invalid one.
    calls = []
    monkeypatch.setattr(
        hierarchy, "functional_structure",
        lambda succ: calls.append(1) or functional_structure(succ),
    )
    maps = []
    for _ in range(300):
        n = int(rng.integers(2, 80))
        lengths = [2] * int(rng.integers(1, n // 2 + 1))
        if rng.random() < 0.5 and n - sum(lengths) >= 4:
            lengths[int(rng.integers(len(lengths)))] = int(rng.integers(3, 5))
        rng.shuffle(lengths)
        maps.append(random_functional_map(rng, n, lengths))
        maps.append((np.arange(n) + rng.integers(1, n, size=n)) % n)
    # Longest tails: a chain of 200 into a 2-cycle, and one into a 3-cycle.
    chain = np.concatenate([[1, 0], np.arange(1, 199)])
    maps += [chain, np.concatenate([[1, 2, 0], np.arange(2, 199)])]
    kinds = set()
    for succ in maps:
        want = structure_oracle(3, succ)
        kinds.add(isinstance(want, str))
        if isinstance(want, str):
            with pytest.raises(HierarchyError) as err:
                LevelGraph.from_successors(3, succ)
            assert str(err.value) == want
        else:
            before = len(calls)
            g = LevelGraph.from_successors(3, succ)
            assert tuple(map(tuple, g.pairs.tolist())) == want
            assert g.pairs.dtype == np.int64 and g.pairs.shape == (len(want), 2)
            assert len(calls) == before
    assert kinds == {True, False}


def full_round_reach(succ):
    """_reach_two_cycles without its early exit: all (n - 1).bit_length()
    doubling rounds."""
    ids = np.arange(succ.size)
    mutual = succ[succ] == ids
    reach = np.where(mutual, ids, succ)
    for _ in range((succ.size - 1).bit_length()):
        reach = reach[reach]
    return mutual, reach


def test_reach_two_cycles_early_exit_matches_full_rounds(rng):
    n = 5000
    tail = np.concatenate([[1, 0], np.arange(1, n - 1)])  # n - 2 steps into (0, 1)
    relabel = rng.permutation(n)
    relabelled = np.empty(n, dtype=np.int64)
    relabelled[relabel] = relabel[tail]
    cases = [tail, relabelled]
    # A 4-cycle is stable after two rounds; a 3-cycle never is.
    for lengths in ([2, 3], [3, 2, 2], [4], [2, 4, 2], [3, 4], [2] * 40):
        for size in (12, 300, 4200):
            cases.append(random_functional_map(rng, size, lengths))
    cases.append(np.concatenate([tail, [n + 1, n + 2, n + 3, n], np.arange(n, n + 4200)]))
    for succ in cases:
        got, want = hierarchy._reach_two_cycles(succ), full_round_reach(succ)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        expected = structure_oracle(1, succ)
        if isinstance(expected, str):
            with pytest.raises(HierarchyError) as err:
                LevelGraph.from_successors(1, succ)
            assert str(err.value) == expected
        else:
            g = LevelGraph.from_successors(1, succ)
            assert tuple(map(tuple, g.pairs.tolist())) == expected


def step_outcome(step, g, exit, exit_target, sample, metric):
    """What a level step gives: its arrays bit for bit, or its error."""
    try:
        nxt = step(g, exit, exit_target, sample.points, metric)
    except Exception as exc:  # the type and the text are compared
        return type(exc), str(exc)
    arrays = [getattr(nxt, f) for f in nxt.__dataclass_fields__ if f != "level"]
    return nxt.level, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def corrupted_exit_columns(rng, g, exit, target):
    """(kind, exit, exit_target) copies of one level's exit columns, each
    with one defect."""
    m, heads = g.n_components, g.pairs.ravel()
    others = np.setdiff1d(np.arange(g.n), heads)
    cases = []
    for _ in range(3):
        i = int(rng.integers(m))
        if others.size:
            x = exit.copy()
            x[i] = rng.choice(others)
            cases.append(("exit not a head", x, target))
            t = target.copy()
            t[i] = rng.choice(others)
            cases.append(("target not a head", exit, t))
        t = target.copy()
        t[i] = g.pairs[i, rng.integers(2)]  # the exit itself, or the other head
        cases.append(("target in its own pair", exit, t))
        t = target.copy()
        t[i] = rng.choice([-1, g.n, g.n + 7])
        cases.append(("target out of range", exit, t))
        if m >= 2:
            a, b = rng.choice(m, size=2, replace=False)
            t = target.copy()
            t[a], t[b] = g.successor[exit[b]], g.successor[exit[a]]
            cases.append(("4-cycle", exit, t))
            t = target.copy()
            t[a], t[b] = g.successor[exit[b]], exit[a]
            cases.append(("3-cycle", exit, t))
        if m >= 3:
            a, b, c = rng.choice(m, size=3, replace=False)
            t = target.copy()
            t[a], t[b], t[c] = exit[b], exit[c], exit[a]
            cases.append(("3-cycle of pairs", exit, t))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_next_level_matches_vertex_level_step(seed):
    # Checking level k + 1 on the pair map gives what the whole-map check
    # gave: the same arrays on valid columns, and on corrupted ones the same
    # error type and text.
    rng = np.random.default_rng(seed)
    side = 10 + seed
    xs, ys = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    cases = [
        plane_sample(rng.uniform(0, 30, size=(300, 2)), 0, 30),
        plane_sample(lattice[rng.random(len(lattice)) < 0.8], 0, side),
    ]
    outcomes = set()
    for s in cases:
        for metric in (Metric.euclidean(), Metric.torus(s.window)):
            h = build_hierarchy(s, metric)
            for g, nxt in zip(h.levels, h.levels[1:]):
                args = (g, nxt.exit, nxt.exit_target, s, metric)
                want = step_outcome(vertex_next_level, *args)
                assert step_outcome(advance_level, *args) == want
                for kind, x, t in corrupted_exit_columns(rng, g, nxt.exit, nxt.exit_target):
                    args = (g, x, t, s, metric)
                    want = step_outcome(vertex_next_level, *args)
                    assert step_outcome(advance_level, *args) == want, kind
                    outcomes.add((kind, want[0]))
                    if want[0] is HierarchyError:
                        assert want[1].startswith("level "), want[1]
    assert {kind for kind, got in outcomes if got is HierarchyError} == {
        "exit not a head", "target not a head", "target in its own pair",
        "target out of range", "4-cycle", "3-cycle", "3-cycle of pairs",
    }


def test_valid_level_step_walks_the_pair_map_once(monkeypatch):
    s = plane_sample(np.random.default_rng(3).uniform(0, 30, size=(200, 2)), 0, 30)
    h = build_hierarchy(s)
    calls = []
    walk = hierarchy._reach_two_cycles
    monkeypatch.setattr(
        hierarchy, "_reach_two_cycles", lambda succ: calls.append(succ.size) or walk(succ)
    )
    g, nxt = h.levels[0], h.levels[1]
    got = advance_level(g, nxt.exit, nxt.exit_target, s.points, Metric.euclidean())
    assert calls == [g.n_components]
    assert np.array_equal(got.pairs, nxt.pairs)
    assert np.array_equal(got.parent, nxt.parent)


def test_structure_rejects_self_loop():
    with pytest.raises(HierarchyError, match="^level 0: self-loops are not allowed$"):
        LevelGraph.from_successors(0, np.array([0, 0]))


def test_structure_rejects_partial_map_naming_the_level():
    for succ in ([1, 2], [1, -1], [], [[1, 0]]):
        with pytest.raises(HierarchyError, match="^level 4: successor map must be total$"):
            LevelGraph.from_successors(4, np.array(succ, dtype=np.int64))


def test_descent_violation_surfaced_not_suppressed():
    # A satellite feeding a tight pair that relinks far away produces a
    # tree-prefix triple that breaks second-order descent at level 1.
    s = line_sample([0, 1, 3, 50, 51, 53])
    h = build_hierarchy(s)
    v = oracle_descent_violations(h.levels[1], s.points, Metric.euclidean())
    assert v, "expected the known tree-prefix counterexample to be reported"
    assert v[0][:4] == (5, 4, 3, 1)


def test_descent_holds_on_head_paths(rng):
    # Restricted to paths through the previous level's heads, every triple
    # descends; this is the invariant the level construction actually grants.
    for seed in range(5):
        s = plane_sample(
            np.random.default_rng(seed).uniform(0, 40, size=(300, 2)), 0, 40
        )
        h = build_hierarchy(s)
        m = Metric.euclidean()
        for k in range(1, len(h.levels)):
            prev_heads = np.sort(h.levels[k - 1].pairs.ravel())
            assert oracle_descent_violations(h.levels[k], s.points, m, within=prev_heads) == []


def test_nn_chain_lengths_nonincreasing_level0(rng):
    s = plane_sample(rng.uniform(0, 10, size=(200, 2)), 0, 10)
    g = level0(s)
    succ = g.successor
    d = np.sqrt(np.sum((s.points - s.points[succ]) ** 2, axis=1))
    x1 = succ
    x2 = succ[x1]
    ok = (x2 != np.arange(s.n))  # step beyond a 2-cycle revisits; skip
    assert np.all(d[x1][ok] <= d[ok])


def test_scale_and_translation_invariance(rng):
    s = plane_sample(rng.uniform(0, 10, size=(100, 2)), 0, 10)
    h = build_hierarchy(s)
    for c in (0.5, 3.0):
        scaled = Sample(s.points * c, Window([-1e4, -1e4], [1e4, 1e4]), 2, s.generator, 0)
        hc = build_hierarchy(scaled)
        for g, gc in zip(h.levels, hc.levels):
            assert np.array_equal(g.successor, gc.successor)
            assert np.array_equal(g.pairs, gc.pairs)
        assert [g.parent.tolist() for g in h.levels[1:]] == [
            g.parent.tolist() for g in hc.levels[1:]
        ]
    shifted = Sample(s.points + 37.25, Window([0, 0], [1e3, 1e3]), 2, s.generator, 0)
    hs = build_hierarchy(shifted)
    for g, gs in zip(h.levels, hs.levels):
        assert np.array_equal(g.successor, gs.successor)


def test_hierarchy_determinism(rng):
    s = plane_sample(rng.uniform(0, 10, size=(64, 2)), 0, 10)
    a = hierarchy_to_json(build_hierarchy(s))
    b = hierarchy_to_json(build_hierarchy(s))
    assert a == b


def test_hierarchy_json_roundtrip(tmp_path, rng):
    plane = plane_sample(rng.uniform(0, 10, size=(300, 2)), 0, 10)
    for h in (build_hierarchy(line_sample([0, 1, 5, 6, 20])), build_hierarchy(plane)):
        obj = hierarchy_to_json(h)
        h2 = hierarchy_from_json(obj)
        assert hierarchy_to_json(h2) == obj
        path = tmp_path / "h.json"
        save_hierarchy(h, path)
        h3 = load_hierarchy(path)
        assert hierarchy_to_json(h3) == obj
        assert json.loads(path.read_text()) == obj
        # one [exit, exit_target] pair of columns per level above 0
        assert len(obj["exits"]) == len(h.levels) - 1
        for (exits, targets), g in zip(obj["exits"], h.levels):
            assert len(exits) == len(targets) == g.n_components
        for loaded in (h2, h3):
            assert loaded.termination == SINGLE_PAIR
            assert hierarchy_array_digest(loaded) == hierarchy_array_digest(h)
            built = [g.merge_sq.tolist() for g in h.levels[1:]]
            got = [g.merge_sq.tolist() for g in loaded.levels[1:]]
            assert got == built


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_each_level_holds_the_step_that_made_it(kind, rng):
    # Level 0 holds no step; level k >= 1 is level k - 1 with every exit
    # relinked to its exit target, built and loaded alike.
    s = plane_sample(rng.uniform(0, 30, size=(400, 2)), 0, 30)
    metric = Metric.torus(s.window) if kind == "torus" else Metric.euclidean()
    h = build_hierarchy(s, metric)
    assert len(h.levels) >= 3
    for levels in (h.levels, hierarchy_from_json(hierarchy_to_json(h)).levels):
        g0 = levels[0]
        assert (g0.exit, g0.exit_target, g0.merge_sq, g0.parent) == (None,) * 4
        for g, nxt in zip(levels, levels[1:]):
            relinked = g.successor.copy()
            relinked[nxt.exit] = nxt.exit_target
            assert np.array_equal(nxt.successor, relinked)
            assert all(
                len(a) == g.n_components
                for a in (nxt.exit, nxt.exit_target, nxt.merge_sq, nxt.parent)
            )


@pytest.mark.parametrize("n", [0, 1, 2000])
@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_save_writes_sample_file_text_as_json_dumps(kind, n, tmp_path):
    # save_hierarchy copies the sample file's text; for a file that
    # save_sample wrote, that is byte for byte what json.dumps writes.
    sample = gen_binomial(n, Window([0.0, 0.0], [1.0, 1.0]), 2, seed=n + 1)
    save_sample(sample, tmp_path / "s.json")
    loaded = load_sample(tmp_path / "s.json")
    assert loaded.file_text == (tmp_path / "s.json").read_text().strip()
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(loaded.window)
    h = build_hierarchy(loaded, metric)
    save_hierarchy(h, tmp_path / "h.json")
    assert (tmp_path / "h.json").read_text() == json.dumps(hierarchy_to_json(h)) + "\n"
    assert hierarchy_array_digest(load_hierarchy(tmp_path / "h.json")) == hierarchy_array_digest(h)


def test_hierarchy_of_a_seed_past_64_bits_round_trips(tmp_path):
    # The sample's seed 2^140 + 7 is read back as an int from the hierarchy
    # file too, with every point bit for bit.
    seed = PINNED_SEEDS[-1]
    sample = gen_binomial(300, Window([0.0, 0.0], [1.0, 1.0]), 2, seed=seed)
    h = build_hierarchy(sample, Metric.euclidean())
    save_hierarchy(h, tmp_path / "h.json")
    back = load_hierarchy(tmp_path / "h.json")
    assert type(back.sample.seed) is int and back.sample.seed == seed
    assert back.sample.points.tobytes() == sample.points.tobytes()
    assert hierarchy_array_digest(back) == hierarchy_array_digest(h)


def _spelled_sample_text(points) -> str:
    """A hand-written sample file: indented, integer window bounds and
    every coordinate in exponent notation with 17 significant digits, one
    point's coordinates per line of the flat list."""
    rows = ",\n    ".join(", ".join(f"{x:.16e}" for x in row) for row in points)
    return (
        '{\n  "points": [\n    ' + rows + '\n  ],\n  "dim": 2,\n'
        '  "window": {"lo": [0, 0], "hi": [1, 1]},\n'
        '  "generator": {"kind": "manual"},\n  "seed": 7\n}\n'
    )


def test_sample_file_spelling_survives_save_and_load(tmp_path, rng):
    points = np.vstack([[[0.1, 0.25], [0.5, 1e-3]], rng.uniform(0, 1, size=(300, 2))])
    compact = Sample(points, Window([0.0, 0.0], [1.0, 1.0]), 2, {"kind": "manual"}, 7)
    save_sample(compact, tmp_path / "compact.json")
    (tmp_path / "spelled.json").write_text(_spelled_sample_text(points))
    assert "1.0000000000000001e-01" in (tmp_path / "spelled.json").read_text()
    digests = []
    for name in ("compact", "spelled"):
        loaded = load_sample(tmp_path / f"{name}.json")
        assert np.array_equal(loaded.points, points)
        h = build_hierarchy(loaded)
        save_hierarchy(h, tmp_path / f"h_{name}.json")
        text = (tmp_path / f"h_{name}.json").read_text()
        assert (tmp_path / f"{name}.json").read_text().strip() in text
        back = load_hierarchy(tmp_path / f"h_{name}.json")
        assert hierarchy_to_json(back) == hierarchy_to_json(h)
        digests += [hierarchy_array_digest(h), hierarchy_array_digest(back)]
    assert len(set(digests)) == 1


@pytest.mark.parametrize("where", ["sample", "window"])
def test_sample_file_with_extra_key_keeps_no_text(where, tmp_path, rng):
    sample = plane_sample(rng.uniform(0, 1, size=(50, 2)), 0.0, 1.0)
    obj = sample.to_json()
    (obj if where == "sample" else obj["window"])["note"] = "not part of the sample"
    (tmp_path / "s.json").write_text(json.dumps(obj, indent=2))
    loaded = load_sample(tmp_path / "s.json")
    assert loaded.file_text is None
    h = build_hierarchy(loaded)
    save_hierarchy(h, tmp_path / "h.json")
    assert (tmp_path / "h.json").read_text() == json.dumps(hierarchy_to_json(h)) + "\n"
    assert "note" not in (tmp_path / "h.json").read_text()


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_hierarchy_does_not_depend_on_thread_count(kind, tmp_path, monkeypatch, tree_calls):
    # Inputs large enough that tree queries run on several workers: 20,000
    # uniform points, and about 12,000 grid cells on a torus, most of whose
    # rows tie and go through the ball query.
    rng = np.random.default_rng(12)
    if kind == "euclidean":
        pts, side = rng.uniform(0, 1, size=(20_000, 2)), 1.0
    else:
        side = 120.0
        pts = np.unique(np.floor(rng.uniform(0, side, size=(24_000, 2))), axis=0)
        pts = pts[rng.permutation(len(pts))]
    s = plane_sample(pts, 0.0, side)
    metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(s.window)
    digests, saved = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("CHN2_THREADS", threads)
        tree_calls.clear()
        h = build_hierarchy(s, metric)
        digests.append(hierarchy_array_digest(h))
        save_hierarchy(h, tmp_path / f"h{threads}.json")
        saved.append((tmp_path / f"h{threads}.json").read_bytes())
        wide = {(name, w) for name, rows, w in tree_calls if rows > spatial_index._BLOCK_POINTS}
        want = spatial_index.query_workers()
        assert ("query", want) in wide
        if kind == "torus":
            assert ("ball", want) in wide
        assert all(w == 1 for _, rows, w in tree_calls if rows <= spatial_index._BLOCK_POINTS)
    assert digests[0] == digests[1]
    assert saved[0] == saved[1]


def test_build_on_a_worker_thread_queries_on_one_thread(monkeypatch, tree_calls):
    # A build on a pool's thread is one of several already, so its queries
    # stay on one thread even where a main-thread build would fan out.
    s = plane_sample(np.random.default_rng(12).uniform(0, 1, size=(20_000, 2)), 0.0, 1.0)
    monkeypatch.setenv("CHN2_THREADS", "2")
    with ThreadPoolExecutor(max_workers=1) as pool:
        h = pool.submit(build_hierarchy, s).result()
    assert any(rows > spatial_index._BLOCK_POINTS for _, rows, _ in tree_calls)
    assert {w for *_, w in tree_calls} == {1}
    assert hierarchy_array_digest(h) == hierarchy_array_digest(build_hierarchy(s))


def _recorded_build(name):
    """A fixture written by an earlier writer, and the hierarchy built today
    from its own sample and metric. The loader refuses the file itself,
    naming its version. Earlier writers stored the points as rows, which
    are flattened into today's layout first."""
    stored = json.loads((DATA / name).read_text())
    version = stored.get("version", 1)
    with pytest.raises(
        HierarchyError, match=f"version {version} is not read .*rebuild it with `chn2 cluster`"
    ):
        load_hierarchy(DATA / name)
    flat = [x for row in stored["sample"]["points"] for x in row]
    sample = Sample.from_json({**stored["sample"], "points": flat})
    return stored, build_hierarchy(sample, Metric.from_json(stored["metric"]))


@pytest.mark.parametrize(
    "name", ["hierarchy_v1_line5.json", "hierarchy_v1_torus60.json"]
)
def test_v1_file_loads_as_built(name):
    # Written by the version-1 writer, which stored every level in full.
    v1, h = _recorded_build(name)
    assert len(h.levels) == len(v1["levels"])
    for g, stored in zip(h.levels, v1["levels"]):
        assert g.successor.tolist() == stored["successors"]
        assert g.pairs.tolist() == stored["cycles"]
    assert hierarchy_json_v2(h)["pairs"] == v1["pairs"]


@pytest.mark.parametrize(
    "name", ["hierarchy_v2_line5.json", "hierarchy_v2_torus60.json"]
)
def test_v2_file_loads_as_built(name):
    # Written by the version-2 writer: level 0 plus every pair's record and
    # the genealogy, which the oracles' version-2 view reproduces.
    v2, h = _recorded_build(name)
    assert hierarchy_json_v2(h) == v2


@pytest.mark.parametrize(
    "name", ["hierarchy_v3_line5.json", "hierarchy_v3_torus60.json"]
)
def test_v3_file_loads_as_built(name):
    # Written by the version-3 writer: the columns of today's file, next to
    # a sample whose points are rows. Only the version and that layout moved.
    v3, h = _recorded_build(name)
    assert hierarchy_to_json(h) == dict(v3, version=4, sample=h.sample.to_json())


def _set(path, value):
    def edit(obj):
        *outer, last = path
        for key in outer:
            obj = obj[key]
        obj[last] = value
    return edit


def _both(first, second):
    def edit(obj):
        first(obj)
        second(obj)
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(["version"], 5),
        _set(["exits", 0, 0, 0], "one"),
        _set(["exits", 0, 0, 0], "1"),  # read as point 1, but not an id
        _set(["exits", 0, 0, 0], 1.5),  # likewise
        _set(["exits", 0, 0, 0], 4),  # not a head of the pair (0, 1)
        _set(["exits", 0, 1, 0], 3),  # 1 -> 3 -> 2 -> 1
        _set(["exits", 0, 1, 0], 2**70),  # beyond any int64 id
        _set(["exits", 0, 1, 0], -1),  # not a point
        _set(["exits", 0, 1], [2]),  # exit and exit_target differ in length
        _set(["exits", 0], [[1, 2], [2, 1], [0, 0]]),  # a third column
        _set(["exits"], [[[1, 2], [2, 1]], [[1], [2]]]),  # the single pair has no exit
        _set(["exits"], None),
        _set(["exits"], []),  # the two level-0 pairs left unmerged
        _set(["level0"], [1, 0, 3, 2]),
        _set(["level0", 0], 1.5),  # read as point 1, but not an id
        # exit columns for a one-point sample, which has no level 0
        _both(_set(["level0"], []), _set(["sample", "points"], [0.0])),
        lambda obj: obj.pop("exits"),
        # JSON true and false equal 1 and 0 in Python, but are not point ids
        _set(["level0", 1], False),
        _set(["exits", 0, 0, 0], True),
        _set(["exits", 0, 1, 1], True),
        # a torus window that does not hold the sample, or is of another dimension
        _set(["metric"], {"kind": "torus", "window": {"lo": [0.0], "hi": [1.0]}}),
        _set(["metric"], {"kind": "torus", "window": {"lo": [-1e3] * 3, "hi": [1e3] * 3}}),
    ],
)
def test_malformed_hierarchy_raises_hierarchy_error(edit):
    obj = hierarchy_to_json(build_hierarchy(line_sample([0, 1, 5, 6, 20])))
    assert obj["exits"] == [[[1, 2], [2, 1]]]
    edit(obj)
    with pytest.raises(HierarchyError) as err:
        hierarchy_from_json(obj)
    assert "\n" not in str(err.value)


def test_newick_export():
    s = line_sample([0, 1, 5, 6, 20])
    h = build_hierarchy(s)
    tree = genealogy_newick(h)
    assert tree.count("(") == tree.count(")")
    assert tree.strip().endswith(";")
    assert "P0" in tree and "P1" in tree
    # both level-0 pairs merge at depth 1
    assert tree.strip() == "(P0:1,P1:1)L1_0;"


def test_newick_deeper(rng):
    s = plane_sample(rng.uniform(0, 25, size=(70, 2)), 0, 25)
    h = build_hierarchy(s)
    tree = genealogy_newick(h)
    assert tree.count("P") >= h.levels[0].n_components
    assert tree.count("(") == tree.count(")")


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_full_hierarchy_matches_bruteforce(kind, rng):
    for _ in range(6):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(5, 120))
        side = max(2.0, n ** (1.0 / d))
        w = Window(np.zeros(d), np.full(d, side))
        metric = Metric.euclidean() if kind == "euclidean" else Metric.torus(w)
        pts = rng.uniform(0, side, size=(n, d))
        s = Sample(pts, w, d, {"kind": "manual"}, 0)
        h = build_hierarchy(s, metric)
        assert hierarchy_json_v2(h) == oracle_hierarchy_json(s, metric), (kind, d, n)


@pytest.mark.parametrize("side, d, n", [
    (16, 2, 256),  # the whole lattice: every point ties with 4 neighbours
    (8, 3, 512),  # and with 6
    (4096, 1, 1500),
    (128, 2, 10_000),  # enough rows for the query threads
])
def test_torus_shift_with_wrap_gives_the_same_hierarchy(side, d, n, monkeypatch, tree_calls):
    # On the torus the hierarchy is a factor of the points: shifting them all
    # by one vector, wrapped across the faces, changes no distance and so no
    # level. Integer points on a side of 2^k keep the wrapped coordinates and
    # every squared distance exact, so no tie can move either.
    rng = np.random.default_rng(side + d)
    cells = np.stack(np.meshgrid(*[np.arange(side)] * d), axis=-1).reshape(-1, d).astype(float)
    pts = cells[rng.choice(len(cells), size=n, replace=False)]  # ids in random order
    window = Window(np.zeros(d), np.full(d, float(side)))
    monkeypatch.setenv("CHN2_THREADS", "2")
    digests = []
    for shift in (np.zeros(d), rng.integers(1, side, size=d)):
        s = Sample((pts + shift) % side, window, d, {"kind": "manual"}, 0)
        h = build_hierarchy(s, Metric.torus(window))
        assert len(h.levels) > 1
        digests.append(hierarchy_array_digest(h))
    assert digests[0] == digests[1]
    if len(pts) > spatial_index._BLOCK_POINTS:
        wide = {(name, w) for name, rows, w in tree_calls if rows > spatial_index._BLOCK_POINTS}
        assert ("query", spatial_index.query_workers()) in wide


@st.composite
def oracle_samples(draw):
    """(sample, metric) pairs that stress the total order: uniform samples,
    integer lattices with holes (with the far faces included, which coincide
    with the near ones on the torus), collinear points with repeated gaps,
    and clusters across the torus wrap; d = 1 to 3 throughout. Sizes come
    from the drawn seed, mostly above 64 so that the tree path runs."""
    shape = draw(st.sampled_from(["uniform", "lattice", "collinear", "wrap"]))
    d = draw(st.integers(1, 3))
    torus = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "uniform":
        n = rng.integers(65, 201)
        side = np.full(d, n ** (1.0 / d))
        pts = rng.uniform(0, side, size=(n, d))
    elif shape == "lattice":
        side = np.full(d, float(rng.integers(*{1: (65, 201), 2: (9, 15), 3: (4, 7)}[d])))
        stop = side[0] + rng.integers(0, 2)
        grid = np.stack(np.meshgrid(*[np.arange(stop)] * d), axis=-1).reshape(-1, d)
        pts = grid[rng.random(len(grid)) < rng.uniform(0.3, 1.0)]
    elif shape == "collinear":
        span = rng.integers(200, 401)
        steps = rng.choice(span + 1, size=rng.integers(2, 201), replace=False)
        direction = rng.integers(1, 4, size=d).astype(float)
        side = span * direction
        pts = steps[:, None] * direction
    else:
        n = rng.integers(2, 201)
        side = np.full(d, 10.0)
        centers = rng.integers(0, 2, size=(3, d)) * 10.0
        pts = (centers[rng.integers(0, 3, n)] + rng.normal(0, 0.5, size=(n, d))) % side
    pts = np.unique(pts, axis=0)
    assume(len(pts) >= 2)
    pts = pts[rng.permutation(len(pts))]
    window = Window(np.zeros(d), side)
    metric = Metric.torus(window) if torus else Metric.euclidean()
    return Sample(pts, window, d, {"kind": shape}, 0), metric


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(oracle_samples())
def test_hierarchy_matches_whole_hierarchy_oracle(case):
    sample, metric = case
    h = build_hierarchy(sample, metric)
    assert hierarchy_json_v2(h) == oracle_hierarchy_json(sample, metric)
    # halving: one pair within floor(log2 m_0) levels
    assert h.levels[-1].n_components == 1
    assert len(h.levels) - 1 <= h.levels[0].n_components.bit_length() - 1


def test_degenerate_hierarchy_roundtrip_and_stats():
    from chn2.stats import level_stats, mean_distance_series

    h = build_hierarchy(line_sample([3.0]))
    assert h.termination == DEGENERATE
    assert h.levels == []
    assert level_stats(h) == []
    assert mean_distance_series(h) == []
    assert genealogy_newick(h) == ""
    assert hierarchy_to_json(hierarchy_from_json(hierarchy_to_json(h))) == hierarchy_to_json(h)


def test_torus_hierarchy_valid(rng):
    w = Window([0.0, 0.0], [1.0, 1.0])
    pts = rng.uniform(0, 1, size=(90, 2))
    s = Sample(pts, w, 2, {"kind": "manual"}, 0)
    h = build_hierarchy(s, Metric.torus(w))
    assert h.termination == SINGLE_PAIR
    for g in h.levels:
        low, high = g.pairs.T
        assert np.array_equal(g.successor[low], high) and np.array_equal(g.successor[high], low)
    obj = hierarchy_to_json(h)
    assert hierarchy_to_json(hierarchy_from_json(obj)) == obj
    assert obj["metric"]["kind"] == "torus"


def test_aggregated_fixtures_merge_depth():
    # A handful of well-separated aggregates collapse within a few levels;
    # the observed termination stays in the 5..8 band across the bundled
    # configurations and nearby seeds.
    from chn2.fixtures import cox_fixture

    for name in ("three_balls", "four_balls"):
        for seed in (None, 5):
            h = build_hierarchy(cox_fixture(name, seed=seed))
            depth = len(h.levels) - 1
            assert 5 <= depth <= 8, (name, seed, depth)
