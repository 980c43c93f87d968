import math
import os

import numpy as np
import pytest

import chn2.stats
from chn2 import spatial_index
from chn2.geometry import Metric, Window
from chn2.hierarchy import build_hierarchy
from chn2.pointprocess import Sample, derive_seed
from chn2.spatial_index import _BLOCK_POINTS, query_workers
from chn2.stats import (
    BaselineSeries,
    DetectorConfig,
    DetectionResult,
    MIN_SEEDS,
    SeriesError,
    align_series,
    detect_against_baseline,
    level_stats,
    mean_distance_series,
    poisson_baseline,
    read_baseline_csv,
    read_series_csv,
    write_baseline_csv,
    write_detector_csv,
    write_levels_csv,
    _block_series,
)
from conftest import oracle_baseline_series, oracle_monte_carlo_p_value

WIDE = Window([-1000.0], [1000.0])


def line_sample(coords):
    pts = np.asarray(coords, float).reshape(-1, 1)
    return Sample(pts, WIDE, 1, {"kind": "manual"}, 0)


def tau_rule(target, baseline, cfg=None):
    """The detector against a one-series baseline: the tau rule alone."""
    return detect_against_baseline(target, BaselineSeries((tuple(baseline),)), cfg)


def test_level_stats_fixture():
    h = build_hierarchy(line_sample([0, 1, 5, 6, 20]))
    rows = level_stats(h)
    assert rows[0].n_components == 2
    assert rows[0].n_heads == 4
    assert rows[0].n_exit == 2
    assert rows[0].mean_merge_distance == pytest.approx(4.0)
    assert rows[0].head_intensity == pytest.approx(4 / WIDE.volume)
    assert rows[0].exit_intensity == pytest.approx(2 / WIDE.volume)
    # terminal level has no exits
    assert rows[-1].n_exit == 0
    assert rows[-1].mean_merge_distance is None


def test_level_stats_counts_structural(rng):
    s = Sample(rng.uniform(0, 40, size=(400, 2)), Window([0, 0], [40, 40]), 2,
               {"kind": "manual"}, 0)
    h = build_hierarchy(s)
    rows = level_stats(h)
    for k, row in enumerate(rows):
        assert row.n_heads == 2 * row.n_components
        if k < len(rows) - 1:
            assert row.n_exit == row.n_components
    for a, b in zip(rows[:-2], rows[1:-1]):
        assert b.n_exit <= a.n_exit / 2


def test_mean_distance_series_fixture():
    assert mean_distance_series(build_hierarchy(line_sample([0, 1, 5, 6, 20]))) == [4.0]
    # terminates at level 0: no merges performed
    assert mean_distance_series(build_hierarchy(line_sample([0, 1, 3, 7]))) == []


def test_detect_example_from_ratios():
    target = [1.0, 1.05, 1.1, 1.6]
    baseline = [1.0, 1.0, 1.0, 1.0]
    r = tau_rule(target, baseline, DetectorConfig(tau=0.3))
    assert r.level == 3
    assert r.flagged == [3]
    assert r.rel_increase[3] == pytest.approx((1.6 - 1.1) / 1.1)


def test_detect_constant_ratio_none():
    r = tau_rule([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
    assert r.level is None
    assert not r.detected


def test_detect_identical_series_none():
    series = [1.0, 2.1, 4.4, 9.0]
    assert tau_rule(series, series).level is None


def test_detect_tau_monotone(rng):
    target = list(rng.uniform(1, 2, size=8))
    baseline = list(rng.uniform(1, 2, size=8))
    taus = [0.05, 0.1, 0.2, 0.4, 0.8]
    levels = []
    for tau in taus:
        res = tau_rule(target, baseline, DetectorConfig(tau=tau))
        levels.append(res.level if res.level is not None else np.inf)
    assert all(a <= b for a, b in zip(levels, levels[1:]))


def test_detect_errors():
    with pytest.raises(SeriesError):
        tau_rule([1.0, 2.0], [1.0])
    with pytest.raises(SeriesError):
        tau_rule([1.0], [1.0])
    with pytest.raises(SeriesError):
        tau_rule([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(SeriesError):
        DetectorConfig(tau=0.0)
    # Every distance compared must be positive and finite: the target's, and,
    # with enough seeds for the Monte Carlo test, each seed's.
    base = noisy_baseline(20)
    bad_seeds = [((v,) + base.seed_series[0][1:],) + base.seed_series[1:] for v in (0.0, -1.0)]
    cases = [([1.0, np.inf], base)] + [(base.values, BaselineSeries(s)) for s in bad_seeds]
    for target, baseline in cases:
        with pytest.raises(SeriesError, match="positive and finite"):
            detect_against_baseline(target, baseline)


def test_align_series():
    t, b = align_series([1, 2, 3, 4], [1, 2, 3])
    assert t == [1, 2, 3] and b == [1, 2, 3]
    with pytest.raises(SeriesError, match="only 1 common level"):
        align_series([1.0], [1.0, 2.0])


def test_baseline_single_seed_reduces_to_single_run():
    w = Window([0.0, 0.0], [30.0, 30.0])
    base = poisson_baseline(w, expected_count=250, n_seeds=1, master_seed=5)
    from chn2.pointprocess import derive_seed, gen_poisson

    sample = gen_poisson(250 / w.volume, w, 2, derive_seed(5, 0))
    expect = mean_distance_series(build_hierarchy(sample))
    assert base.values == expect
    assert base.support == [1] * len(expect)


def baseline_windows(d):
    """A plain window, one far from the origin, and one with unequal sides."""
    return [
        Window(np.zeros(d), np.full(d, 10.0)),
        Window(np.full(d, 1e6), np.full(d, 1e6 + 10.0)),
        Window(np.zeros(d), np.array([2.0, 5.0, 11.0])[:d]),
    ]


def build_dims(monkeypatch):
    """Record the dimension of every sample the baseline builds."""
    dims = []

    def recording_build(sample, *args, **kwargs):
        dims.append(sample.dim)
        return build_hierarchy(sample, *args, **kwargs)

    monkeypatch.setattr(chn2.stats, "build_hierarchy", recording_build)
    return dims


@pytest.mark.parametrize("torus", [False, True], ids=["euclidean", "torus"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_baseline_matches_per_seed_builds(d, torus, monkeypatch):
    # Expected counts 0-3 put empty, one-point and one-pair seeds inside
    # one block; 25 points give seeds several levels deep.
    dims = build_dims(monkeypatch)
    for window in baseline_windows(d):
        metric = Metric.torus(window) if torus else Metric.euclidean()
        for count in (0, 1, 2, 3, 25):
            seeds = [derive_seed(count, i) for i in range(20)]
            got = poisson_baseline(window, count, len(seeds), metric, seeds=seeds)
            assert got.seed_series == oracle_baseline_series(window, count, seeds, metric)
    assert set(dims) == {d + 1}  # every block held all 20 seeds


@pytest.mark.parametrize("torus", [False, True], ids=["euclidean", "torus"])
def test_baseline_builds_large_seeds_one_by_one(torus, monkeypatch):
    dims = build_dims(monkeypatch)
    window = baseline_windows(2)[2]
    metric = Metric.torus(window) if torus else Metric.euclidean()
    seeds = [derive_seed(3, i) for i in range(3)]
    got = poisson_baseline(window, 5000, len(seeds), metric, seeds=seeds)
    assert got.seed_series == oracle_baseline_series(window, 5000, seeds, metric)
    assert dims == [2, 2, 2]


@pytest.mark.parametrize("torus", [False, True], ids=["euclidean", "torus"])
def test_baseline_spans_several_blocks(torus, monkeypatch):
    monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 64)
    dims = build_dims(monkeypatch)
    for window in baseline_windows(2):
        metric = Metric.torus(window) if torus else Metric.euclidean()
        seeds = [derive_seed(11, i) for i in range(25)]
        got = poisson_baseline(window, 10, len(seeds), metric, seeds=seeds)
        assert got.seed_series == oracle_baseline_series(window, 10, seeds, metric)
    # per window: blocks of 6, 6, 6, 6 and a last one-seed block, built as the
    # plain sample (the pool's threads may build them in any order)
    assert sorted(dims) == [2] * 3 + [3] * 12


def test_block_keeps_seeds_whose_pairs_span_the_window():
    # Two pairs at opposite corners merge across nearly the whole diagonal
    # (on the torus, half of it); with a lift any shorter, each would link
    # to its copy in the other seed instead.
    window = Window([0.0, 0.0], [10.0, 10.0])
    for metric, far in ((Metric.euclidean(), 10.0), (Metric.torus(window), 5.0)):
        pts = np.array([[0.0, 0.0], [1e-9, 0.0], [far - 1e-9, far], [far, far]])
        sample = Sample(pts, window, 2, {"kind": "manual"}, 0)
        expect = tuple(mean_distance_series(build_hierarchy(sample, metric)))
        assert len(expect) == 1
        assert _block_series([sample, sample], metric) == [expect, expect]


def test_baseline_needs_a_seed():
    for kwargs in ({"seeds": []}, {"n_seeds": 0}):
        args = {"n_seeds": 3, **kwargs}
        with pytest.raises(SeriesError, match="n_seeds must be >= 1"):
            poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), 8.0, **args)


def test_baseline_refuses_a_seed_count_other_than_its_seeds():
    window, seeds = Window([0.0, 0.0], [10.0, 10.0]), [1, 2]
    for n_seeds in (0, 1, 5):
        with pytest.raises(SeriesError) as err:
            poisson_baseline(window, 50, n_seeds, seeds=seeds)
        assert str(err.value) == f"n_seeds is {n_seeds}, but 2 seeds are given"
    metric = Metric.euclidean()
    got = poisson_baseline(window, 50, 2, metric, master_seed=99, seeds=iter(seeds))
    assert got.seed_series == oracle_baseline_series(window, 50, seeds, metric)


@pytest.mark.parametrize("count", [-5.0, -1e-300, math.nan, math.inf, -math.inf])
def test_baseline_refuses_a_count_outside_zero_to_inf(count):
    with pytest.raises(SeriesError, match="expected count must be finite and >= 0"):
        poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), count, 3)


def test_baseline_of_no_expected_points_is_empty():
    assert poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), 0.0, 3).seed_series == ((), (), ())


def test_detect_refuses_a_monte_carlo_test_over_no_level():
    # About 8 points a seed: two of the 20 seeds never merge, so no level is
    # shared by the target and every seed and there is nothing to compare.
    base = poisson_baseline(Window([0, 0], [10, 10]), 8, 20, master_seed=1)
    assert base.n_seeds >= MIN_SEEDS and min(map(len, base.seed_series)) == 0
    target = [base.values[0], 3 * base.values[1]]
    assert tau_rule(target, base.values).level == 1
    with pytest.raises(SeriesError, match="share no level"):
        detect_against_baseline(target, base)


def test_baseline_deterministic():
    w = Window([0.0, 0.0], [30.0, 30.0])
    a = poisson_baseline(w, 200, 4, master_seed=9)
    b = poisson_baseline(w, 200, 4, master_seed=9)
    assert a == b


def test_baseline_scales_with_window_volume():
    # doubling the volume at fixed count stretches distances by ~2^(1/d)
    w1 = Window([0.0, 0.0], [40.0, 40.0])
    w2 = Window([0.0, 0.0], [40.0 * np.sqrt(2.0), 40.0 * np.sqrt(2.0)])
    b1 = poisson_baseline(w1, 300, 30, master_seed=21)
    b2 = poisson_baseline(w2, 300, 30, master_seed=21)
    ratio = b2.values[0] / b1.values[0]
    assert ratio == pytest.approx(2 ** 0.5, rel=0.05)


def test_common_scaling_leaves_detection_unchanged(rng):
    target = list(rng.uniform(1, 3, size=6))
    baseline = list(rng.uniform(1, 3, size=6))
    r1 = tau_rule(target, baseline)
    c = 7.3
    r2 = tau_rule([c * t for t in target], [c * b for b in baseline])
    assert r1.level == r2.level
    assert r1.flagged == r2.flagged
    np.testing.assert_allclose(r2.ratios, r1.ratios, rtol=1e-12)


def test_detect_against_baseline_smoke():
    from chn2.fixtures import WINDOW_200, cox_fixture

    s = cox_fixture("three_balls")
    h = build_hierarchy(s)
    base = poisson_baseline(WINDOW_200, s.n, 5, master_seed=17)
    result = detect_against_baseline(h, base)
    assert isinstance(result, DetectionResult)
    assert result.level is None or result.level >= 1


def test_levels_csv_roundtrip(tmp_path):
    h = build_hierarchy(line_sample([0, 1, 5, 6, 20]))
    rows = level_stats(h)
    path = tmp_path / "levels.csv"
    write_levels_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "level,n_components,n_heads,n_exit,head_intensity,exit_intensity,mean_merge_distance"
    # floats as their repr, the terminal level's mean left empty, CRLF endings
    assert path.read_bytes() == (
        b"level,n_components,n_heads,n_exit,head_intensity,exit_intensity,mean_merge_distance\r\n"
        b"0,2,4,2,0.002,0.001,4.0\r\n"
        b"1,1,2,0,0.001,0.0,\r\n"
    )
    series = read_series_csv(path)
    assert series == [4.0]


def test_detector_csv(tmp_path):
    target = [1.0, 1.05, 1.1, 1.6]
    baseline = [1.0, 1.0, 1.0, 1.0]
    result = tau_rule(target, baseline)
    path = tmp_path / "det.csv"
    write_detector_csv(target, baseline, result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,target_d,baseline_d,R,rel_increase,detected_flag,rule"
    assert len(lines) == 5
    assert lines[-1].endswith(",1,tau")
    # level 0 has no rel_increase: its cell is empty, not nan
    assert path.read_bytes() == (
        b"level,target_d,baseline_d,R,rel_increase,detected_flag,rule\r\n"
        b"0,1.0,1.0,1.0,,0,tau\r\n"
        b"1,1.05,1.0,1.05,0.050000000000000044,0,tau\r\n"
        b"2,1.1,1.0,1.1,0.04761904761904766,0,tau\r\n"
        b"3,1.6,1.0,1.6,0.45454545454545453,1,tau\r\n"
    )


def noisy_baseline(m, seed=0):
    """m seed series around 1, 2, 4, 8 whose spread grows with the level, as
    a Poisson baseline's does."""
    rng = np.random.default_rng(seed)
    log_sd = [0.02, 0.03, 0.05, 0.25]
    seeds = tuple(
        tuple(float(v) for v in np.exp(np.log([1.0, 2.0, 4.0, 8.0]) + rng.normal(0, log_sd)))
        for _ in range(m)
    )
    return BaselineSeries(seeds)


def test_detect_monte_carlo_gates_tau_level():
    base = noisy_baseline(20)
    # A top-level jump past tau but inside the seeds' own spread: the tau
    # rule fires, the global test does not reject.
    within = base.values[:3] + [base.values[3] * 1.4]
    assert tau_rule(within, base.values).level == 3
    r = detect_against_baseline(within, base)
    assert r.rule == "monte-carlo" and r.p_value > 0.05
    assert r.level is None and r.flagged == []
    # Short level-0 distances, as in an aggregated sample: more extreme than
    # every seed, so the tau rule's level stands at the smallest p-value.
    clumped = [base.values[0] / 2] + within[1:]
    r = detect_against_baseline(clumped, base)
    assert r.level == 1 and r.flagged == [1, 3]
    assert r.p_value == pytest.approx(1 / 21)
    with pytest.raises(SeriesError):
        detect_against_baseline(within[:3] + [0.0], base)


def test_detect_monte_carlo_p_values_are_ranks():
    # The target and the seeds are treated alike, so rotating which of 21
    # samples is the target gives each rank once: p = 1/21, ..., 21/21.
    series = noisy_baseline(21, seed=4).seed_series
    ps = []
    for i, target in enumerate(series):
        base = BaselineSeries(series[:i] + series[i + 1:])
        ps.append(detect_against_baseline(list(target), base).p_value)
    assert sorted(ps) == pytest.approx([k / 21 for k in range(1, 22)])


def random_monte_carlo_case(rng, case):
    """The target and the seed series of one random Monte Carlo test: 19-40
    seeds over 1-11 common levels, some seeds a level or two longer. Every
    third case copies samples over others, so that statistics tie; every
    third after that puts a far target over seeds spread by at most 1e-6 of
    their value, or not at all."""
    m, depth = int(rng.integers(19, 41)), int(rng.integers(1, 12))
    logs = rng.normal(np.log(2.0) * np.arange(depth), rng.uniform(0.01, 0.5), (m + 1, depth))
    if case % 3 == 1:
        logs = logs[rng.integers(0, int(rng.integers(2, m + 1)), m + 1)]
    elif case % 3 == 2:
        spread = (0.0, 1e-12, 1e-6)[case % 9 // 3]
        logs[1:] = logs[1] + spread * rng.standard_normal((m, depth))
        logs[0] += rng.choice([-1.0, 1.0], depth) * rng.uniform(0.5, 3.0, depth)
    series = np.exp(logs).tolist()
    seeds = tuple(tuple(s + [2.0 ** depth] * int(rng.integers(0, 3))) for s in series[1:])
    return series[0], seeds


def test_detect_monte_carlo_p_values_match_the_list_oracle():
    rng = np.random.default_rng(1977)
    for case in range(1000):
        target, seeds = random_monte_carlo_case(rng, case)
        expect = oracle_monte_carlo_p_value(target, seeds)
        assert chn2.stats._monte_carlo_p_value(target, seeds) == expect, case


def test_detect_monte_carlo_too_few_seeds_uses_tau():
    base = noisy_baseline(5)
    target = base.values[:3] + [base.values[3] * 1.4]
    plain = tau_rule(target, base.values)
    assert plain.rule == "tau" and np.isnan(plain.p_value)
    r = detect_against_baseline(target, base)
    assert r.rule == "tau" and np.isnan(r.p_value)
    assert (r.level, r.flagged, r.ratios) == (plain.level, plain.flagged, plain.ratios)


def test_detect_against_baseline_series_or_hierarchy():
    w = Window([0.0, 0.0], [30.0, 30.0])
    base = poisson_baseline(w, 250, 3, master_seed=5)
    assert len(base.seed_series) == 3
    assert base.support == [sum(len(s) > k for s in base.seed_series)
                            for k in range(len(base.values))]
    h = build_hierarchy(Sample(np.random.default_rng(1).uniform(0, 30, (250, 2)), w, 2,
                               {"kind": "manual"}, 1))
    a = detect_against_baseline(h, base)
    b = detect_against_baseline(mean_distance_series(h), base)
    assert (a.level, a.flagged, a.ratios) == (b.level, b.flagged, b.ratios)


def test_detector_csv_rule_column(tmp_path):
    path = tmp_path / "det.csv"
    for m, rule in ((20, "monte-carlo"), (5, "tau")):
        base = noisy_baseline(m)
        target = [base.values[0] / 2] + base.values[1:]
        result = detect_against_baseline(target, base)
        write_detector_csv(target, base.values, result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "level,target_d,baseline_d,R,rel_increase,detected_flag,rule"
        assert all(line.endswith(f",{rule}") for line in lines[1:])


def test_read_baseline_csv(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(
        "level,n_components,n_heads,n_exit,head_intensity,exit_intensity,"
        "mean_merge_distance,seed_3,seed_4\n"
        "0,,,2,,,1.5,1.0,2.0\n1,,,1,,,3.0,3.0,\n"
    )
    base = read_baseline_csv(path)
    assert base.values == [1.5, 3.0] and base.support == [2, 1]
    assert base.seed_series == ((1.0, 3.0), (2.0,)) and base.n_seeds == 2
    path.write_text(path.read_text().replace("3.0,3.0,", "3.0,0.0,"))
    with pytest.raises(SeriesError):
        read_baseline_csv(path)
    h = build_hierarchy(line_sample([0, 1, 5, 6, 20]))
    write_levels_csv(level_stats(h), path)
    assert read_baseline_csv(path) == BaselineSeries(((4.0,),))


@pytest.mark.parametrize("seeds, given", [([3, 4, 9, 10], "got 4 (4 distinct)"),
                                          ([3, 4], "got 2 (2 distinct)"),
                                          ([3, 4, 3], "got 3 (2 distinct)")])
def test_baseline_csv_needs_one_distinct_seed_per_series(seeds, given, tmp_path):
    base = BaselineSeries(((1.0, 3.0), (2.0,), (1.5,)))
    path = tmp_path / "base.csv"
    with pytest.raises(SeriesError, match="3 series need as many distinct seeds") as err:
        write_baseline_csv(base, seeds, path)
    assert given in str(err.value) and "\n" not in str(err.value)
    assert not path.exists()


def test_baseline_csv_round_trip_and_old_schema(tmp_path):
    base = BaselineSeries(((1.0, 3.0, 5.0), (2.0, 4.0), (1.5,)))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_baseline_csv(base, [3, 4, 9], new)
    assert new.read_text().splitlines() == [
        "level,support,mean_merge_distance,seed_3,seed_4,seed_9",
        "0,3,1.5,1.0,2.0,1.5",
        "1,2,3.5,3.0,4.0,",
        "2,1,5.0,5.0,,",
    ]
    # The levels schema with the support in n_exit, as earlier versions wrote it.
    old.write_text(
        LEVELS_HEADER + ",seed_3,seed_4,seed_9\n"
        "0,,,3,,,1.5,1.0,2.0,1.5\n1,,,2,,,3.5,3.0,4.0,\n2,,,1,,,5.0,5.0,,\n"
    )
    assert read_baseline_csv(new) == read_baseline_csv(old) == base


def test_baseline_csv_mean_must_match_seed_columns(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(
        "level,support,mean_merge_distance,seed_3,seed_4\n"
        "0,2,1.5,1.0,2.0\n1,1,3.5,3.0,\n"
    )
    with pytest.raises(SeriesError, match="mean of the seed columns"):
        read_baseline_csv(path)
    # A mean that stops a level short of its seeds is refused as well.
    path.write_text(
        "level,support,mean_merge_distance,seed_3,seed_4\n"
        "0,2,1.5,1.0,2.0\n1,1,,3.0,\n"
    )
    with pytest.raises(SeriesError, match="mean of the seed columns"):
        read_baseline_csv(path)


LEVELS_HEADER = (
    "level,n_components,n_heads,n_exit,head_intensity,exit_intensity,mean_merge_distance"
)


def test_series_csv_without_series_column_fails(tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text("level,foo\n0,1.5\n1,2.5\n")
    for read in (read_series_csv, read_baseline_csv):
        with pytest.raises(SeriesError, match="mean_merge_distance"):
            read(path)
    path.write_text("")
    for read in (read_series_csv, read_baseline_csv):
        with pytest.raises(SeriesError, match="mean_merge_distance"):
            read(path)


def test_series_csv_empty_cell_only_trails(tmp_path):
    path = tmp_path / "levels.csv"
    path.write_text(LEVELS_HEADER + "\n0,4,4,2,1,1,\n1,2,2,2,1,1,3.0\n2,1,1,0,1,1,\n")
    for read in (read_series_csv, read_baseline_csv):
        with pytest.raises(SeriesError, match="mean_merge_distance"):
            read(path)
    path.write_text(LEVELS_HEADER + "\n0,4,4,2,1,1,1.0\n1,2,2,2,1,1,3.0\n2,1,1,0,1,1,\n")
    assert read_series_csv(path) == [1.0, 3.0]
    assert read_baseline_csv(path).values == [1.0, 3.0]


def test_series_csv_refuses_non_positive_or_infinite_distance(tmp_path):
    path = tmp_path / "levels.csv"
    for bad in ("0", "0.0", "inf"):
        path.write_text(LEVELS_HEADER + f"\n0,4,4,2,1,1,1.0\n1,2,2,1,1,1,{bad}\n2,1,1,0,1,1,\n")
        with pytest.raises(SeriesError, match="positive and finite") as err:
            read_series_csv(path)
        assert str(path) in str(err.value)


def test_baseline_csv_seed_gap_fails(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(
        LEVELS_HEADER + ",seed_3\n0,,,1,,,1.5,\n1,,,1,,,3.0,3.0\n"
    )
    with pytest.raises(SeriesError, match="seed_3"):
        read_baseline_csv(path)


def test_baseline_csv_repeated_column_fails(tmp_path):
    # csv.DictReader keeps only the last of two equal names, so the first
    # seed_1 column would be dropped and the second read twice.
    path = tmp_path / "base.csv"
    path.write_text(LEVELS_HEADER + ",seed_1,seed_1\n0,,,1,,,1.5,1.0,1.5\n")
    with pytest.raises(SeriesError, match="column seed_1 is repeated") as err:
        read_baseline_csv(path)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
def test_thread_count_rejects_bad_env(value, monkeypatch):
    monkeypatch.setenv("CHN2_THREADS", value)
    with pytest.raises(ValueError, match="CHN2_THREADS"):
        query_workers()


def test_thread_count_reads_env(monkeypatch):
    monkeypatch.setenv("CHN2_THREADS", "3")
    assert query_workers() == min(3, len(os.sched_getaffinity(0)))
    monkeypatch.delenv("CHN2_THREADS")
    assert 1 <= query_workers() <= 8


def test_baseline_pool_capped_by_usable_cpus(monkeypatch, pool_sizes):
    monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 8)  # one seed a block
    monkeypatch.setenv("CHN2_THREADS", "100000")
    poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), 8.0, n_seeds=3)
    if query_workers() == 1:  # one usable CPU: mapped in place
        assert pool_sizes == []
    else:
        assert len(pool_sizes) == 1 and 1 <= pool_sizes[0] <= len(os.sched_getaffinity(0))


@pytest.mark.parametrize("torus", [False, True], ids=["euclidean", "torus"])
def test_baseline_does_not_depend_on_thread_count(torus, monkeypatch):
    # Blocks of 6 seeds: five blocks for the pool's threads to share.
    monkeypatch.setattr(spatial_index, "_BLOCK_POINTS", 64)
    window = baseline_windows(2)[0]
    metric = Metric.torus(window) if torus else Metric.euclidean()
    got = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CHN2_THREADS", threads)
        got.append(poisson_baseline(window, 10, 25, metric, master_seed=13).seed_series)
    assert len(got[0]) == 25 and got[0] == got[1]


def test_lone_baseline_seed_builds_on_the_main_thread(monkeypatch, tree_calls, pool_sizes):
    # One seed past _BLOCK_POINTS is one block, mapped in place, so its
    # level-0 query fans out over the calling thread's query_workers().
    monkeypatch.setenv("CHN2_THREADS", "2")
    poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), 10_000.0, n_seeds=1, master_seed=7)
    assert pool_sizes == []
    kind, rows, workers = tree_calls[0]
    assert kind == "query" and rows > _BLOCK_POINTS and workers == query_workers()


def test_baseline_builds_query_on_one_thread(monkeypatch, tree_calls):
    # Seeds of 10,000 points make one-seed blocks whose level-0 queries pass
    # _BLOCK_POINTS; the pool already fills CHN2_THREADS, so each of its
    # builds queries on one thread.
    monkeypatch.setenv("CHN2_THREADS", "2")
    poisson_baseline(Window([0.0, 0.0], [1.0, 1.0]), 10_000.0, n_seeds=3, master_seed=7)
    assert any(rows > _BLOCK_POINTS for _, rows, _ in tree_calls)
    assert {w for *_, w in tree_calls} == {1}
