import numpy as np
import pytest

from chn2.geometry import GeometryError, Metric, Window, sq_dist_many
from chn2.hierarchy import HierarchyError, LevelGraph, advance_level, nn_k_step
from chn2.pointprocess import Sample, SampleError
from conftest import oracle_single_linkage_sq, oracle_sq_dist

EUCLID = Metric.euclidean()


def test_distance_345_triangle():
    assert sq_dist_many([0.0, 0.0], [3.0, 4.0], EUCLID) == 25.0


def test_distance_identity():
    for x in (0.0, -2.5, 1e9):
        assert sq_dist_many([x, x], [x, x], EUCLID) == 0.0


def test_point_rejects_nonfinite():
    with pytest.raises(SampleError):
        Sample(np.array([[1.0, np.nan]]), Window([0.0, 0.0], [2.0, 2.0]), 2, {}, 0)


def test_torus_wraps():
    m = Metric.torus(Window([0.0], [10.0]))
    assert sq_dist_many([0.5], [9.5], m) == 1.0


def test_torus_at_most_euclidean_and_half_window(rng):
    w = Window([0.0, 0.0], [7.0, 3.0])
    m_t = Metric.torus(w)
    m_e = Metric.euclidean()
    half_diag_sq = float(np.sum((w.side_lengths / 2) ** 2))
    pts = rng.uniform(w.lo, w.hi, size=(40, 2))
    for a in pts[:10]:
        for b in pts[10:20]:
            assert sq_dist_many(a, b, m_t) <= sq_dist_many(a, b, m_e)
            assert sq_dist_many(a, b, m_t) <= half_diag_sq


def test_distance_symmetry(rng):
    w = Window([0.0] * 3, [5.0] * 3)
    for m in (Metric.euclidean(), Metric.torus(w)):
        for _ in range(50):
            a, b = rng.uniform(0, 5, size=(2, 3))
            assert sq_dist_many(a, b, m) == sq_dist_many(b, a, m)
            assert sq_dist_many(a, b, m) == oracle_sq_dist(a, b, m)


def test_window_reader_takes_only_json_numbers():
    assert Window.from_json({"lo": [0, 0.5], "hi": [1, 2.0]}).lo.tolist() == [0.0, 0.5]
    for lo in (["0", 0], [False, 0], [None, 0], 0):
        with pytest.raises(GeometryError):
            Window.from_json({"lo": lo, "hi": [1.0, 2.0]})


def test_torus_requires_window():
    with pytest.raises(GeometryError):
        Metric(kind="torus")


def test_window_validation():
    for lo, hi, words in [
        ([0.0, 0.0], [1.0, 0.0], "lo < hi"),
        ([0.0, 0.0], [1.0], "equal length"),
        ([[0.0]], [[1.0]], "equal length"),
        ([], [], "equal length"),
        ([0.0, -np.inf], [1.0, 1.0], "finite"),
        ([0.0, 0.0], [1.0, np.nan], "finite"),
    ]:
        with pytest.raises(GeometryError, match=words):
            Window(lo, hi)
    assert Window([0, 0], [2, 3]).volume == 6.0


def test_metric_kind_is_known():
    with pytest.raises(GeometryError, match="unknown metric kind: 'manhattan'"):
        Metric("manhattan")
    assert Metric() == Metric.euclidean()


# The single-linkage pseudo-distance between two pairs is what nn_k_step's
# exit witness gives: each pair's (exit, exit target, squared distance), the
# distance as advance_level derives it.
def two_pair_exits(S, T):
    coords = np.asarray(S + T, float)
    g = LevelGraph.from_successors(0, [1, 0, 3, 2])
    exits, targets = nn_k_step(g.pairs, coords, EUCLID)
    nxt = advance_level(g, exits, targets, coords, EUCLID)
    return list(zip(nxt.exit.tolist(), nxt.exit_target.tolist(), nxt.merge_sq.tolist()))


def test_single_linkage_bruteforce_min():
    S = [[0.0, 0.0], [10.0, 0.0]]
    T = [[3.0, 4.0], [100.0, 0.0]]
    assert two_pair_exits(S, T) == [(0, 2, 25.0), (2, 0, 25.0)]


def test_single_linkage_shared_point_is_zero():
    S = [[1.0, 2.0], [5.0, 5.0]]
    T = [[1.0, 2.0], [9.0, 9.0]]
    assert two_pair_exits(S, T)[0] == (0, 2, 0.0)


def test_single_linkage_symmetric_value(rng):
    for _ in range(25):
        S = rng.uniform(0, 1, size=(2, 2)).tolist()
        T = rng.uniform(0, 1, size=(2, 2)).tolist()
        (x1, y1, v1), (x2, y2, v2) = two_pair_exits(S, T)
        assert v1 == v2 == oracle_single_linkage_sq(S, T, EUCLID)
        assert (x1, y1) == (y2, x2)


def test_single_linkage_empty_errors():
    with pytest.raises(HierarchyError):
        nn_k_step([[0, 1]], np.zeros((2, 2)), EUCLID)
