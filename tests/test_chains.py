import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from chn2 import chains, spatial_index
from chn2.chains import (
    ChainCountConfig,
    ball_volume,
    count_chains_from_origin,
    expected_chain_count_formula,
    expected_chain_count_recursive,
    mc_chain_count,
)
from chn2.pointprocess import _in_union_of_balls
from conftest import (
    PINNED_INDICES,
    PINNED_SEEDS,
    oracle_chain_group_size,
    oracle_chain_lengths,
    oracle_count_chains,
    oracle_count_chains_dfs,
    oracle_group_points,
    oracle_second_order_descending,
    oracle_trial_points,
)


def test_ball_volume():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        ball_volume(0)


def test_ball_mass_past_float_range():
    # R^d overflows, yet lam w_d R^d may not; past float range it is 0 or inf.
    assert chains._ball_mass(1e-300, 1e200, 2) == pytest.approx(math.pi * 1e100, rel=1e-12)
    assert chains._ball_mass(0.0, 1e200, 2) == 0.0
    assert chains._ball_mass(1.0, 1e200, 2) == math.inf
    assert expected_chain_count_formula(1e-300, 1e200, 2, 3) == pytest.approx(
        math.pi**3 * 1e300, rel=1e-12
    )


def test_predicate_examples():
    assert oracle_second_order_descending([5, 4, 3])
    assert oracle_second_order_descending([3, 5, 4])  # 4 < max(5, 3)
    assert not oracle_second_order_descending([3, 4, 5])  # 5 >= max(4, 3)
    assert oracle_second_order_descending([])
    assert oracle_second_order_descending([2.0])
    assert oracle_second_order_descending([1.0, 9.0])


def test_strictly_descending_passes(rng):
    for _ in range(20):
        d = np.sort(rng.uniform(0, 1, size=8))[::-1]
        assert oracle_second_order_descending(d)


def test_ties_fail_strictness():
    assert not oracle_second_order_descending([2.0, 2.0, 2.0])


def test_chain_record():
    pts = np.array([[0.0], [0.5], [0.9]])
    lengths = oracle_chain_lengths(pts, [0, 1, 2])
    assert len(lengths) == 2
    assert lengths == (0.5, pytest.approx(0.4))
    assert oracle_second_order_descending(lengths)
    with pytest.raises(ValueError):
        oracle_chain_lengths(pts, [0, 1, 0])


def test_count_empty_chain():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert count_chains_from_origin(pts, 0, 1.0) == 1
    for empty in (np.empty((0, 2)), []):
        assert count_chains_from_origin(empty, 2, 1.0) == 0
        assert count_chains_from_origin(empty, 0, 1.0) == 1
    assert mc_chain_count(ChainCountConfig(lam=1.0, R=1.0, d=2, n=0, trials=5, seed=0)) == (
        1.0, 0.0
    )


def test_count_refuses_bad_arguments_in_words():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="n must be >= 0"):
        count_chains_from_origin(pts, -1, 1.0)
    for R in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="R must be finite and >= 0"):
            count_chains_from_origin(pts, 2, R)


def test_count_length_one_counts_neighbors():
    pts = np.array([[0.0], [0.3], [0.9], [1.5]])
    assert count_chains_from_origin(pts, 1, 1.0) == 2


def test_count_three_point_fixture():
    pts = np.array([[0.0], [0.5], [0.9]])
    assert count_chains_from_origin(pts, 2, 1.0) == 2


def test_count_matches_unpruned_enumeration(rng):
    for trial in range(30):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(0, 5))
        pts = rng.uniform(-1.5, 1.5, size=(m, int(rng.integers(1, 4))))
        pts[0] = 0.0
        got = count_chains_from_origin(pts, n, 1.0)
        want = oracle_count_chains(pts, n, 1.0)
        assert got == want, (trial, m, n)


def block_points(cfg, first, last):
    """Groups first..last-1 of a config, drawn as one block."""
    return chains._block_points(cfg, range(first, last))


def n_groups(cfg):
    return -(-cfg.trials // oracle_chain_group_size(cfg))


def all_trial_points(cfg):
    """Every trial's points, origin first, each group drawn once."""
    coords, _, origins = block_points(cfg, 0, n_groups(cfg))
    return np.split(coords, origins[1:])


# n = 4, d = 2, lam = R = 1, seed 101 (groups of 81 trials): the trials of
# more than 64 points, where a 64-bit visited mask would repeat vertices.
# Trial 1643, the largest, has 76 points.
MC_101 = ChainCountConfig(lam=1.0, R=1.0, d=2, n=4, trials=2000, seed=101)


def test_count_exact_beyond_64_points():
    counts = chains._trial_counts(MC_101)
    large = 0
    for t, pts in enumerate(all_trial_points(MC_101)):
        if len(pts) <= 64:
            continue
        large += 1
        want = oracle_count_chains_dfs(pts, 4, 1.0)
        assert count_chains_from_origin(pts, 4, 1.0) == want, t
        assert counts[t] == want, t
    assert large == 63


def test_count_pinned_trial_1643():
    pts = oracle_trial_points(MC_101, 1643)
    assert len(pts) == 76
    assert oracle_count_chains_dfs(pts, 4, 1.0) == 289
    assert count_chains_from_origin(pts, 4, 1.0) == 289
    assert chains._trial_counts(MC_101)[1643] == 289


@pytest.mark.parametrize("d", [1, 2, 3])
def test_trial_counts_match_dfs_oracle(d):
    for n in (1, 2, 3, 4, 5, 6):
        cfg = ChainCountConfig(lam=0.4 if d == 3 else 1.0, R=1.0, d=d, n=n, trials=60, seed=9)
        counts = chains._trial_counts(cfg)
        want = [oracle_count_chains_dfs(pts, n, 1.0) for pts in all_trial_points(cfg)]
        assert counts.tolist() == want, (d, n)


@pytest.mark.parametrize("n", [2, 3])
def test_trial_counts_stay_inside_their_trial(n):
    # The same lam w_d R^d as lam = R = 1, at an R far below the tree cut's
    # absolute slack: the block's trials lie within a few cuts of each other,
    # and no chain may cross from one to the next.
    cfg = ChainCountConfig(lam=1e32, R=1e-16, d=2, n=n, trials=60, seed=9)
    counts = chains._trial_counts(cfg)
    want = [oracle_count_chains_dfs(pts, n, cfg.R) for pts in all_trial_points(cfg)]
    assert counts.tolist() == want


def test_pair_query_stays_inside_each_trial(monkeypatch):
    # Trials laid 2R apart at R = 1e-17 all fall within the tree cut's
    # absolute slack of each other, and the pair query would return nearly
    # every pair of the block; laid two cuts apart, it returns none across.
    found = []

    class RecordingTree(cKDTree):
        def query_pairs(self, *args, **kwargs):
            found.append(super().query_pairs(*args, **kwargs))
            return found[-1]

    monkeypatch.setattr(chains, "cKDTree", RecordingTree)
    cfg = ChainCountConfig(lam=1e34, R=1e-17, d=2, n=2, trials=20, seed=3)
    coords, owner, _ = block_points(cfg, 0, n_groups(cfg))
    chains._neighbour_lists(coords, owner, cfg.R)
    (pairs,) = found
    assert len(pairs) > 0
    assert np.array_equal(owner[pairs[:, 0]], owner[pairs[:, 1]])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_points_match_the_per_trial_draw(d):
    for lam in (1.0, 0.02):  # the second leaves most trials empty
        cfg = ChainCountConfig(lam=lam, R=1.0, d=d, n=3, trials=1, seed=11)
        # two whole groups and a last one of 5 trials
        cfg = dataclasses.replace(cfg, trials=2 * oracle_chain_group_size(cfg) + 5)
        groups = [oracle_group_points(cfg, g) for g in range(3)]
        assert len(groups[2]) == 5
        for first, last in ((1, 2), (2, 3), (0, 3)):
            samples = [pts for group in groups[first:last] for pts in group]
            coords, owner, origins = block_points(cfg, first, last)
            assert coords.tobytes() == np.concatenate(samples).tobytes()
            sizes = [len(pts) for pts in samples]
            assert owner.tolist() == np.repeat(np.arange(len(sizes)), sizes).tolist()
            assert origins.tolist() == (np.cumsum(sizes) - sizes).tolist()


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_trial_states_are_numpys(seed):
    # Group g's trials come from numpy's own SeedSequence child g and
    # default_rng, at group indices up to 2**32 - 1 and across a block's
    # group boundary.
    cfg = ChainCountConfig(lam=1.0, R=1.0, d=2, n=2, trials=2**42, seed=seed)

    def numpy_draw(first, last):
        return np.concatenate([np.concatenate(oracle_group_points(cfg, g))
                               for g in range(first, last)])

    for g in PINNED_INDICES:
        assert block_points(cfg, g, g + 1)[0].tobytes() == numpy_draw(g, g + 1).tobytes(), g
    assert block_points(cfg, 38, 42)[0].tobytes() == numpy_draw(38, 42).tobytes()


# 97 trials fit one group of 144 trials; 3 * 144 + 5 span four groups, the
# last one partial, which a block cut that ignored groups would split.
SPLIT = ChainCountConfig(lam=1.0, R=1.0, d=2, n=3, trials=97, seed=4)
SPLIT_CONFIGS = [SPLIT, dataclasses.replace(SPLIT, trials=3 * 144 + 5)]


def test_trial_counts_do_not_depend_on_block_size(monkeypatch):
    for cfg in SPLIT_CONFIGS:
        assert oracle_chain_group_size(cfg) == 144
        monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 1 << 13)  # two groups a block
        whole = chains._trial_counts(cfg)
        for block_points in (100, 1):  # one group a block
            monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", block_points)
            assert chains._trial_counts(cfg).tolist() == whole.tolist(), cfg.trials


def test_trial_counts_do_not_depend_on_thread_count(monkeypatch):
    for cfg in SPLIT_CONFIGS:
        whole = chains._trial_counts(cfg).tolist()
        monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 100)  # one group a block
        got = []
        for threads in ("1", "2"):
            monkeypatch.setenv("CHN2_THREADS", threads)
            got.append((chains._trial_counts(cfg).tolist(), mc_chain_count(cfg)))
        assert got[0] == got[1] and got[0][0] == whole, cfg.trials
        monkeypatch.undo()


def test_chain_pool_capped_by_usable_cpus(monkeypatch, pool_sizes):
    # One pool for the whole call, however many blocks it maps: 145 trials
    # span two groups of 144, each a block of its own.
    monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 1)
    monkeypatch.setenv("CHN2_THREADS", "100000")
    mc_chain_count(ChainCountConfig(lam=1.0, R=1.0, d=2, n=3, trials=145, seed=0))
    if spatial_index.query_workers() == 1:  # one usable CPU: mapped in place
        assert pool_sizes == []
    else:
        assert len(pool_sizes) == 1 and 1 <= pool_sizes[0] <= len(os.sched_getaffinity(0))


def test_count_tied_distances():
    # A unit lattice: many equal steps, where only strict descent counts.
    g = np.arange(-2.0, 3.0)
    pts = np.array([[0.0, 0.0]] + [[x, y] for x in g for y in g if x or y])
    for n in (1, 2, 3, 4):
        assert count_chains_from_origin(pts, n, 1.5) == oracle_count_chains_dfs(pts, n, 1.5)


def test_count_block_of_lattice_trials():
    # Unit-lattice samples as one block, each with its own origin row. Steps
    # of 1, 1.41 and 2 tie by the dozen, and the first three samples have
    # chains of all 6 steps, which test distinctness against 5 earlier
    # columns and strict descent on equal steps.
    def lattice(half_width):
        g = np.arange(-half_width, half_width + 1.0)
        return np.array([[0.0, 0.0]] + [[x, y] for x in g for y in g if x or y])

    samples = [lattice(3), lattice(2), lattice(2)[::-1], lattice(2)[:9], lattice(2)[:1]]
    sizes = [len(pts) for pts in samples]
    first = np.cumsum(sizes) - sizes
    origins = first.copy()
    origins[2] += sizes[2] - 1  # the reversed lattice's origin is its last row
    coords = np.concatenate(samples)
    owner = np.repeat(np.arange(len(samples)), sizes)
    for n in (1, 2, 3, 4, 5, 6):
        got = chains._count_block(coords, owner, origins, n, 2.2)
        want = [oracle_count_chains_dfs(pts, n, 2.2, origin=o)
                for pts, o in zip(samples, origins - first)]
        assert got.tolist() == want, n
        assert want[0] >= want[1] == want[2] > 0, n


def _no_trials(*args):
    raise AssertionError("a trial was drawn before the budget check")


def test_budget_rejects_before_drawing(monkeypatch):
    monkeypatch.setattr(chains, "_block_points", _no_trials)
    too_many_points = ChainCountConfig(lam=1000.0, R=1.0, d=2, n=4, trials=10, seed=0)
    with pytest.raises(ValueError, match="MAX_POINTS_PER_TRIAL"):
        mc_chain_count(too_many_points)
    # about 1,257 points per trial, but (100 pi)^2 expected chains of length 2
    too_many_chains = ChainCountConfig(lam=100.0, R=1.0, d=2, n=2, trials=10, seed=0)
    assert chains._expected_points(too_many_chains) < chains.MAX_POINTS_PER_TRIAL
    with pytest.raises(ValueError, match="MAX_PARTIAL_CHAINS"):
        mc_chain_count(too_many_chains)


def test_budget_admits_the_acceptance_settings():
    for d, n in ((2, 4), (3, 4), (1, 12)):
        chains.check_budget(ChainCountConfig(lam=1.0, R=1.0, d=d, n=n, trials=1, seed=0))


def test_even_closed_form_values():
    assert expected_chain_count_formula(1.0, 1.0, 2, 0) == 1.0
    assert expected_chain_count_formula(1.0, 1.0, 2, 2) == pytest.approx(math.pi**2)
    assert expected_chain_count_formula(1.0, 1.0, 2, 4) == pytest.approx(math.pi**4 / 2)
    with pytest.raises(ValueError):
        expected_chain_count_formula(1.0, 1.0, 2, -2)


def test_recursive_matches_even_closed_form():
    for d in (1, 2, 3):
        for n in (0, 2, 4, 6, 8):
            for lam, R in ((1.0, 1.0), (0.7, 1.3)):
                closed = expected_chain_count_formula(lam, R, d, n)
                rec = expected_chain_count_recursive(lam, R, d, n)
                assert rec == pytest.approx(closed, rel=1e-12)


def test_recursive_odd_base_case():
    for d in (1, 2, 3):
        assert expected_chain_count_recursive(2.0, 0.5, d, 1) == pytest.approx(
            2.0 * ball_volume(d) * 0.5**d
        )


def test_recursive_odd_disagrees_with_formula_by_two_thirds():
    # The two evaluators split at n=3: the recursion gives (2/3) pi^3 while
    # the closed-form expression gives pi^3. Both values are reported; at
    # n=3 the recursion is exact and Monte Carlo sides with it.
    rec = expected_chain_count_recursive(1.0, 1.0, 2, 3)
    formula = expected_chain_count_formula(1.0, 1.0, 2, 3)
    assert rec == pytest.approx((2.0 / 3.0) * math.pi**3, rel=1e-12)
    assert formula == pytest.approx(math.pi**3, rel=1e-12)
    assert rec / formula == pytest.approx(2.0 / 3.0, rel=1e-12)


# Both evaluators at n = 0..12 as computed before they became closed
# arithmetic (the recursion then integrated numerically).
EXPECTATIONS = json.loads(
    (Path(__file__).parent / "data" / "chain_expectations.json").read_text()
)


@pytest.mark.parametrize("row", EXPECTATIONS, ids=lambda r: f"lam{r['lam']}-R{r['R']}-d{r['d']}")
def test_evaluators_match_recorded_values(row):
    lam, R, d = row["lam"], row["R"], row["d"]
    for n, (closed, rec) in enumerate(zip(row["formula"], row["recursive"])):
        assert expected_chain_count_formula(lam, R, d, n) == pytest.approx(closed, rel=1e-12)
        assert expected_chain_count_recursive(lam, R, d, n) == pytest.approx(rec, rel=1e-12)


def test_evaluators_leave_float_range_without_raising():
    assert 0 < expected_chain_count_formula(1.0, 1.0, 2, 400) < 1e-170
    assert expected_chain_count_recursive(1.0, 1.0, 2, 400) == pytest.approx(
        expected_chain_count_formula(1.0, 1.0, 2, 400), rel=1e-12
    )
    for n in (400, 401):
        assert expected_chain_count_formula(100.0, 1.0, 2, n) == math.inf
        assert expected_chain_count_recursive(100.0, 1.0, 2, n) == math.inf
    assert expected_chain_count_formula(1e-3, 1.0, 2, 4000) == 0.0


def test_evaluators_refuse_infinite_inputs():
    # 0 * inf would give nan: an infinite intensity or radius has no expectation.
    for lam, R in ((0.0, math.inf), (math.inf, 0.0), (1.0, math.inf), (math.inf, 1.0)):
        for evaluate in (expected_chain_count_formula, expected_chain_count_recursive):
            with pytest.raises(ValueError):
                evaluate(lam, R, 2, 2)


def test_chain_modules_do_not_load_numerical_integration():
    code = (
        "import chn2, chn2.cli, chn2.chains, sys; "
        "assert 'scipy.integrate' not in sys.modules"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_mc_agrees_with_theory_quick():
    cfg = ChainCountConfig(lam=1.0, R=1.0, d=2, n=1, trials=2000, seed=7)
    mean, stderr = mc_chain_count(cfg)
    assert stderr > 0
    assert abs(mean - math.pi) <= 3 * stderr


# p_n = P(v_i < max(v_{i-1}, v_{i-2}) for 2 <= i <= n - 1) with v_i iid
# uniform, the exact value of E[X_{R,n}] / (lam w_d R^d)^n in every dimension.
EXACT_P = {5: Fraction(13, 60), 6: Fraction(19, 180), 7: Fraction(29, 630),
           8: Fraction(191, 10080)}


@pytest.mark.parametrize("n", sorted(EXACT_P))
def test_mc_agrees_with_the_exact_expectation(n):
    # d = 2, lam = R = 1, so the target is pi^n p_n. Seed, trial count and
    # the 3-sigma bound were fixed before the first run.
    cfg = ChainCountConfig(lam=1.0, R=1.0, d=2, n=n, trials=5000, seed=2600 + n)
    mean, stderr = mc_chain_count(cfg)
    target = math.pi**n * float(EXACT_P[n])
    assert abs(mean - target) <= 3 * stderr, (mean, stderr, target)


def test_cox_thinning_never_adds_chains():
    # A Cox sample of intensity at most lam is a thinning of a Poisson(lam)
    # sample. Whether a chain is admissible depends on its own vertices only,
    # so the thinned sample's chains are some of the full sample's, and its
    # count is at most the Poisson count, sample by sample.
    strict = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        side = 5.0  # every vertex of a chain of length <= 5 is within 5 of the origin
        pts = rng.uniform(-side, side, size=(rng.poisson((2 * side) ** 2), 2))
        pts = np.vstack([np.zeros((1, 2)), pts])
        centers = rng.uniform(-3.0, 3.0, size=(5, 2))
        radii = rng.uniform(1.0, 2.5, size=5)
        inside = _in_union_of_balls(pts, centers, radii)
        inside[0] = True  # the origin stays, as row 0
        thinned = pts[inside]
        assert 1 < len(thinned) < len(pts)
        for n in range(2, 6):
            full = count_chains_from_origin(pts, n, 1.0)
            cox = count_chains_from_origin(thinned, n, 1.0)
            assert cox <= full, (seed, n)
            strict += cox < full
    assert strict > 0


def test_mc_deterministic():
    cfg = ChainCountConfig(lam=1.0, R=1.0, d=1, n=2, trials=50, seed=3)
    assert mc_chain_count(cfg) == mc_chain_count(cfg)


# (d, n, trials): (mean, stderr) at seed 1 and R = 1, recorded while the
# chain counter still summed squares with np.sum(..., axis=-1). From d = 8
# on numpy's reduction adds the axes in another order than `sq_dist_many`,
# so these pin that the order moved no count. lam is the largest power of
# two <= 1 that the budget admits; d = 10 at n = 3 (lam = 1/32) is left
# out, as its mean of about 3e-4 per trial would pin (0, 0) at this size.
PINNED_HIGH_D = {
    (8, 2, 300): (16.986666666666668, 0.6675129522596629),
    (8, 3, 100): (0.08, 0.030748244591432293),
    (10, 2, 100): (6.91, 0.5434820395125558),
}


@pytest.mark.parametrize("d, n, trials", sorted(PINNED_HIGH_D))
def test_mc_chain_count_pinned_above_d7(d, n, trials):
    lam = 1.0
    while True:
        cfg = ChainCountConfig(lam=lam, R=1.0, d=d, n=n, trials=trials, seed=1)
        try:
            chains.check_budget(cfg)
            break
        except ValueError:
            lam /= 2
    assert mc_chain_count(cfg) == PINNED_HIGH_D[d, n, trials]


def test_config_validation():
    for lam, R in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, -1.0)):
        with pytest.raises(ValueError):
            ChainCountConfig(lam=lam, R=R, d=2, n=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        ChainCountConfig(lam=1.0, R=1.0, d=2, n=1, trials=0, seed=0)
