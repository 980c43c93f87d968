"""Second-order descending chains: exact counting, expected-count evaluators,
and a Monte-Carlo estimator.

A chain of points x_0, x_1, ... with step lengths d_i = |x_{i+1} - x_i| is
second-order descending when d_i < max(d_{i-1}, d_{i-2}) for every i >= 2.
The counted family X_{R,n} fixes x_0 at the origin, requires distinct
vertices, d_0 < R and d_1 < R, and applies the descent constraint for
2 <= i <= n-1 only.

Two expected-count evaluators are provided, plus a Monte-Carlo estimator of
the exact expectation. The closed-form expression

    E[X_{R,n}] = (lam^2 w_d^2 R^(2d))^floor(n/2) / floor(n/2)! * (lam w_d R^d)^(n mod 2)

and the two-step recursion

    E[X_{R,n+2}] = lam^2 int int E[X_{max(|x|,|y-x|),n}] dy dx

are, with a = lam w_d R^d, both a^(n mod 2) times a product of floor(n/2)
factors: a^2/i for the closed form, a^2/(i + (n mod 2)/2) for the recursion,
whose radial integral is exact. Both are evaluated by plain multiplication.
They are mutually inconsistent at odd n >= 3 (the recursion gives
(2/3) lam^3 w_d^3 R^(3d) at n = 3, the closed form lam^3 w_d^3 R^(3d); both
values are reported, and Monte Carlo sides with the recursion). Moreover,
conditioning on the first two points shows the recursion replaces the true
bound max(d_2, d_1) on the third step by the weaker max(d_0, d_1), so for
n >= 4 even the recursive value is only an upper bound on the exact
expectation. At n = 4 the exact value has a closed form: with
v_i = (d_i/R)^d, uniform on [0, 1] under the Mecke formula,

    E[X_{R,4}] = (lam w_d R^d)^4 * E[(max(v_0, v_1)^2 + v_1^2) / 2]
               = (5/12) (lam w_d R^d)^4

in every dimension, against the recursion's (1/2) (lam w_d R^d)^4
(d=2, lam=R=1: exact 5 pi^4/12 = 40.59, recursion pi^4/2 = 48.70). The
upper bounds still vanish as n grows, which is all the finiteness argument
needs; the Monte-Carlo estimator is the ground truth for point values.

Trials are drawn in fixed groups of G = _GROUP_POINTS / (expected points
per trial) trials, at least one. Group g, trials g G to (g + 1) G - 1, draws
from `np.random.default_rng(derive_seed(seed, g))`: its Poisson counts in
one call, then all of its normal directions and all of its uniform radii in
one call each. G is fixed by the configuration alone, so the same seed gives
the same trials whatever the block size or thread count. Whole groups are
drawn and counted a block at a time, each block a contiguous run of groups
that `spatial_index.map_blocks` sizes by their expected points and maps as
`fan_out` decides, results in block order, so no count, estimate or
CSV depends on the thread count. Normalising, scaling and placing the
origins is one array pass over the block. Counting is exact and breadth
first over the whole block: one k-d tree pair query gives every sample's
within-R neighbour lists, at the distances of `geometry.sq_dist_many` as
everywhere in the package, and each step extends every partial chain of the
block by its admissible next vertices. The block's partial chains keep
their vertices as a list of 1-D columns, one per step, and distinctness is
one `!=` per column, ANDed together, so a sample may hold any number of
points. The work is the number of partial chains;
`mc_chain_count` refuses, before drawing any trial, a configuration whose
expected points or partial chains per trial exceed
MAX_POINTS_PER_TRIAL or MAX_PARTIAL_CHAINS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Metric, sq_dist_many
from .pointprocess import derive_seed
from .spatial_index import map_blocks, tree_cut

# Limits of the Monte Carlo estimator, checked before any trial is drawn:
# the expected points per trial, lam * w_d * (n R)^d, and the largest
# expected number of partial chains per trial over lengths j <= n (by the
# recursive evaluator, an upper bound for j >= 4). The counting pass holds
# one row per partial chain, so the second limit bounds its memory.
MAX_POINTS_PER_TRIAL = 5_000
MAX_PARTIAL_CHAINS = 1_000

# The expected points of one group of trials drawn from one generator; it
# defines the trials' streams, so changing it changes every estimate.
_GROUP_POINTS = 1 << 12


def ball_volume(d: int) -> float:
    """Volume of the unit ball in dimension d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _ball_mass(lam: float, radius: float, d: int) -> float:
    """lam w_d radius^d, the mean point count of a Poisson(lam) sample in a
    ball of that radius. Past float range it is 0 or inf, not an
    OverflowError."""
    try:
        return lam * (ball_volume(d) * radius**d)
    except OverflowError:
        pass
    if lam == 0 or radius == 0:
        return 0.0
    log_mass = math.log(lam) + d * math.log(radius) + d / 2 * math.log(math.pi)
    try:
        return math.exp(log_mass - math.lgamma(d / 2 + 1))
    except OverflowError:
        return math.inf


def _neighbour_lists(coords, owner, R):
    """Within-R neighbour lists of a block of samples, in CSR form.

    Row v's sample is owner[v]. The samples are laid side by side along the
    first axis, two unit-scale tree cuts of R apart, so one k-d tree pair
    query, at `tree_cut(R)`, finds every within-R pair of every sample and,
    even when R is below the cut's absolute slack, next to none across
    samples. Only pairs with owner[i] == owner[j] are kept, so no neighbour
    list leaves its sample. The tree only gathers candidates, so, as in
    `NnIndex`, it is built with sliding-midpoint splits, which build fastest.
    Each pair's distance is then recomputed from the unshifted coordinates
    by `sq_dist_many`, the package's one squared distance; for d < 8 it
    equals the dense-matrix formula bit for bit.
    Distances are replaced by their dense rank over the block, which keeps
    every `<` and tie. Returns (key, dst, start, stride): the neighbours of v
    are dst[start[v]:start[v + 1]], ordered by key = v * stride + rank, so
    those closer than rank b end at searchsorted(key, v * stride + b).
    """
    shifted = coords.copy()
    shifted[:, 0] += owner * (float(np.ptp(coords[:, 0])) + 2.0 * tree_cut(R, 1.0))
    scale = max(1.0, float(np.max(np.abs(shifted))))
    tree = cKDTree(shifted, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(tree_cut(R, scale), output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    # `take` gathers the same rows as coords[i], several times faster.
    dist = np.sqrt(sq_dist_many(coords.take(i, axis=0), coords.take(j, axis=0), Metric()))
    keep = (dist < R) & (owner[i] == owner[j])
    i, j = i[keep], j[keep]
    levels, rank = np.unique(dist[keep], return_inverse=True)
    stride = len(levels) + 1
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])
    key = src * stride + np.concatenate([rank, rank])
    order = np.argsort(key)
    key, dst = key[order], dst[order]
    start = np.zeros(len(coords) + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=len(coords)), out=start[1:])
    return key, dst, start, stride


def _count_block(coords, owner, origins, n: int, R: float) -> np.ndarray:
    """Number of length-n (n >= 1) chains from row origins[t] within sample
    t, for every sample t of a block (see `_neighbour_lists` for the layout).

    Breadth first: the frontier holds one partial chain a row, as a list of
    1-D vertex columns, one per step so far, with the sample each row belongs
    to and the ranks of its last two steps. A step extends every row by the
    prefix of its end vertex's neighbour list that the descent bound admits,
    then drops extensions onto a vertex already in the row, by one `!=` per
    column, ANDed together. The rank sentinel `stride - 1` exceeds every
    rank, so the first two steps are bounded by R alone. A step that leaves
    no row ends the pass, as every count is then 0.
    """
    key, dst, start, stride = _neighbour_lists(coords, owner, R)
    path = [np.asarray(origins)]
    sample = np.arange(len(origins))
    last = prev = np.full(len(origins), stride - 1)
    for depth in range(n):
        v = path[-1]
        lo = start[v]
        size = np.searchsorted(key, v * stride + np.maximum(last, prev)) - lo
        row = np.repeat(np.arange(len(v)), size)
        edge = np.arange(row.size) - np.repeat(np.cumsum(size) - size - lo, size)
        w = dst[edge]
        fresh = np.ones(row.size, dtype=bool)
        for column in path:
            fresh &= column[row] != w
        row, edge = row[fresh], edge[fresh]
        if depth == n - 1 or not row.size:
            return np.bincount(sample[row], minlength=len(origins))
        path = [column[row] for column in path] + [w[fresh]]
        sample, prev, last = sample[row], last[row], key[edge] - v[row] * stride


def count_chains_from_origin(points, n: int, R: float) -> int:
    """Exact number of length-n second-order descending chains from row 0.

    `points` holds all coordinates, the origin first. Vertices may
    not repeat; d_0 < R, d_1 < R, and the descent constraint applies from
    the third step on. Every admissible step is < R, so extending partial
    chains along the within-R neighbour graph, one step at a time for all of
    them at once, enumerates exactly the chains; this is the one-sample case
    of the block pass that `mc_chain_count` runs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= R < math.inf:
        raise ValueError(f"R must be finite and >= 0, got R = {R!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if n == 0:
        return 1
    if pts.size == 0:
        return 0
    owner = np.zeros(len(pts), dtype=np.intp)
    return int(_count_block(pts, owner, [0], n, R)[0])


def _expectation(lam: float, R: float, d: int, n: int, shift: float) -> float:
    """a^(n mod 2) times the product over i = 1..floor(n/2) of a^2 / (i + shift),
    with a = lam w_d R^d.

    Built by repeated multiplication, so a product beyond float range ends
    in 0 or inf instead of raising; once it has, no later factor moves it,
    so the loop stops there.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0 <= lam < math.inf and 0 <= R < math.inf):
        raise ValueError(f"lam and R must be finite and >= 0, got lam = {lam!r}, R = {R!r}")
    a = _ball_mass(lam, R, d)
    value = a if n % 2 else 1.0
    for i in range(1, n // 2 + 1):
        if not 0.0 < value < math.inf:
            break
        value *= a * a / (i + shift)
    return value


def expected_chain_count_formula(lam: float, R: float, d: int, n: int) -> float:
    """The closed-form expected count (exact only for n <= 2; see module note)."""
    return _expectation(lam, R, d, n, 0.0)


def expected_chain_count_recursive(lam: float, R: float, d: int, n: int) -> float:
    """Expected count by the two-step recursion.

    Scaling the process reduces E[X_{r,m}] to u_m * (lam r^d)^m with u_m
    independent of r, and the double ball integral reduces radially to

        u_{m+2} = 2 d w_d^2 * int_0^1 u_m t^(md) t^(2d-1) dt = 2 w_d^2 u_m / (m + 2),

    since the integral is exactly 1 / ((m + 2) d). Equal to the closed form
    at even n; exact for n <= 3, an upper bound on the true expectation
    beyond that (see module note).
    """
    return _expectation(lam, R, d, n, (n % 2) / 2)


@dataclass(frozen=True)
class ChainCountConfig:
    lam: float
    R: float
    d: int
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        if not self.lam > 0 or not self.R > 0 or self.d < 1 or self.n < 0:
            raise ValueError("lam, R must be positive; d >= 1; n >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seeds must be nonnegative, got {self.seed!r}")


def _expected_points(cfg: ChainCountConfig) -> float:
    """Mean point count of a trial's Poisson sample on the ball of radius n*R."""
    return _ball_mass(cfg.lam, cfg.n * cfg.R, cfg.d)


def check_budget(cfg: ChainCountConfig) -> None:
    """Refuse, with ValueError, a configuration whose trials would not fit
    the block pass."""
    points = _expected_points(cfg)
    if points > MAX_POINTS_PER_TRIAL:
        raise ValueError(
            f"expected {points:.4g} points per chain trial exceeds the limit "
            f"MAX_POINTS_PER_TRIAL = {MAX_POINTS_PER_TRIAL}"
        )
    expected = [1.0]  # E_0: the origin alone
    for j in range(1, cfg.n + 1):
        expected.append(expected_chain_count_recursive(cfg.lam, cfg.R, cfg.d, j))
        if expected[j] > MAX_PARTIAL_CHAINS:
            raise ValueError(
                f"expected {expected[j]:.4g} partial chains of length {j} per trial "
                f"exceeds the limit MAX_PARTIAL_CHAINS = {MAX_PARTIAL_CHAINS}"
            )
        # The recursion's ratio E_{j+2} / E_j shrinks as j grows, so once both
        # parities are falling no later length can reach a new maximum.
        if j >= 3 and expected[j] < expected[j - 2] and expected[j - 1] < expected[j - 3]:
            break


def _group_size(cfg: ChainCountConfig) -> int:
    """Trials per group: about _GROUP_POINTS expected points, at least one trial."""
    return max(1, int(_GROUP_POINTS / max(1.0, _expected_points(cfg))))


def _block_points(cfg: ChainCountConfig, groups):
    """The trials of the groups `groups` as one block (see `_neighbour_lists`):
    each trial's Poisson sample on the ball of radius n*R, uniform
    directions times radius * u^(1/d), its origin first.

    Group g's generator is `np.random.default_rng(derive_seed(cfg.seed, g))`,
    and it draws the group's Poisson counts, then one (points, d) array of
    normals and one (points, 1) array of uniforms, trial after trial. The
    normalising, scaling and origin rows are one pass over the block.
    Returns (coords, owner, origins).
    """
    mean, size = _expected_points(cfg), _group_size(cfg)
    counts, normals, uniforms = [], [], []
    for g in groups:
        rng = np.random.default_rng(derive_seed(cfg.seed, g))
        counts.append(rng.poisson(mean, min(size, cfg.trials - g * size)))
        total = int(counts[-1].sum())
        normals.append(rng.standard_normal((total, cfg.d)))
        uniforms.append(rng.random((total, 1)))
    sizes = np.concatenate(counts) + 1
    owner = np.repeat(np.arange(len(sizes)), sizes)
    origins = np.cumsum(sizes) - sizes
    x = np.concatenate(normals)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = cfg.n * cfg.R * np.concatenate(uniforms) ** (1.0 / cfg.d)
    coords = np.zeros((len(owner), cfg.d))
    drawn = np.ones(len(owner), dtype=bool)
    drawn[origins] = False
    coords[drawn] = x / norms * r
    return coords, owner, origins


def _trial_counts(cfg: ChainCountConfig) -> np.ndarray:
    """Exact chain count of every trial, drawn and counted block by block of
    whole groups through `map_blocks`, so the counts join up in trial order."""

    def count(groups):
        return _count_block(*_block_points(cfg, groups), cfg.n, cfg.R)

    size = _group_size(cfg)
    groups = range(-(-cfg.trials // size))
    counts = map_blocks(count, groups, size * _expected_points(cfg))
    return np.concatenate(counts).astype(float)


def mc_chain_count(cfg: ChainCountConfig):
    """Monte-Carlo mean and standard error of the chain count.

    Each trial draws a Poisson sample on the ball of radius n*R around the
    origin (all chain vertices stay within n*R of the origin since every
    step is < R), adds the origin, and counts chains exactly. A
    configuration beyond MAX_POINTS_PER_TRIAL or MAX_PARTIAL_CHAINS raises
    ValueError before any trial is drawn.
    """
    if cfg.n == 0:
        return 1.0, 0.0
    check_budget(cfg)
    counts = _trial_counts(cfg)
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    return mean, stderr
