"""Shared brute-force oracles, kept independent of the package internals."""

import itertools

import numpy as np
import pytest

from chn2.geometry import Metric, TORUS


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


def oracle_count_chains(points, n, R, origin=0):
    """Unpruned enumeration over all vertex sequences of length n."""
    pts = np.atleast_2d(np.asarray(points, float))
    m = pts.shape[0]
    if n == 0:
        return 1
    others = [i for i in range(m) if i != origin]
    count = 0
    for seq in itertools.permutations(others, n):
        chain = [origin, *seq]
        d = [
            float(np.linalg.norm(pts[chain[i + 1]] - pts[chain[i]]))
            for i in range(n)
        ]
        if d[0] >= R:
            continue
        if n >= 2 and d[1] >= R:
            continue
        if all(d[i] < max(d[i - 1], d[i - 2]) for i in range(2, n)):
            count += 1
    return count


def oracle_expected_chains_weighted(n, d, trials, seed):
    """Sequential importance-sampling estimate of the exact expected chain
    count at lam = R = 1: draw each next point uniformly in its admissible
    ball and weight by the product of admissible volumes. Independent of
    both the depth-first counter and the point-process sampler.
    """
    import math

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
