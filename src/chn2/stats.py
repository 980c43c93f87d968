"""Per-level statistics, Poisson baselines, and the ratio-jump aggregation
detector.

The "mean distance between clusters at level k" is the mean merge-edge
length over all level-k pairs, i.e. the single-linkage distance from each
pair to its nearest foreign pair; it is the only per-level distance the
construction computes. The detector compares a target series against a
seed-averaged Poisson baseline through the ratio R_k = target_k/baseline_k
and fires at the first level whose relative increase in R exceeds tau.

tau is an effect size, not a false-alarm rate. At the last merge levels
only a handful of pairs are averaged, and the rel-increase of a plain
Poisson target spreads well past tau = 0.3 there (one in five to one in
four matched Poisson targets fire). So `detect_against_baseline` asks
first whether the target differs from Poisson at all, by a global Monte
Carlo test (Besag & Diggle 1977; Baddeley et al. 2014) at significance
level ALPHA, and only then where, by the tau rule. The test statistic of a
sample is its largest studentised deviation over levels,
max_k |x_k - mean_k| / sd_k, where x is the log mean-distance series and
mean_k, sd_k are taken over the other samples at level k, on the levels
that every sample reaches. Those others are sorted at each level before
they are summed, so a statistic depends only on the multiset of the other
samples and equal samples tie exactly. The target and the m baseline
seeds are treated alike, so under the null all m + 1 statistics are
exchangeable and p = (1 + #{seeds at least as extreme}) / (m + 1) is a
valid p-value: a matched Poisson target is detected with probability at
most ALPHA. With fewer than MIN_SEEDS seed series (a plain levels CSV
reads as one) the test cannot reach ALPHA, so the tau rule decides alone,
and the result says so.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .geometry import Metric, Window
from .hierarchy import Hierarchy, build_hierarchy
from .pointprocess import Sample, derive_seed, gen_poisson
from .spatial_index import map_blocks


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class LevelStats:
    level: int
    n_components: int
    n_heads: int
    n_exit: int
    head_intensity: float
    exit_intensity: float
    mean_merge_distance: float | None


def _mean_merge_distance(merge_sq) -> float:
    """The mean of one level's merge distances, summed left to right."""
    merged = np.sqrt(merge_sq).tolist()
    return sum(merged) / len(merged)


def level_stats(h: Hierarchy) -> list:
    """One row per level. Exit points exist at every non-terminal level,
    one per component; the terminal level has none."""
    volume = h.sample.window.volume
    rows = []
    steps = [nxt.merge_sq for nxt in h.levels[1:]] + [[]]
    for g, merge_sq in zip(h.levels, steps):
        n_exit = len(merge_sq)
        rows.append(
            LevelStats(
                level=g.level,
                n_components=g.n_components,
                n_heads=2 * g.n_components,
                n_exit=n_exit,
                head_intensity=2 * g.n_components / volume,
                exit_intensity=n_exit / volume,
                mean_merge_distance=_mean_merge_distance(merge_sq) if n_exit else None,
            )
        )
    return rows


def mean_distance_series(h: Hierarchy) -> list:
    """Mean merge distance per level, for levels that performed a merge."""
    return [_mean_merge_distance(nxt.merge_sq) for nxt in h.levels[1:]]


@dataclass(frozen=True)
class BaselineSeries:
    """The per-seed mean-distance series of a Poisson baseline, in seed
    order. `values` averages level k over the seeds whose hierarchy reaches
    it, and `support` counts those seeds."""

    seed_series: tuple

    @property
    def n_seeds(self) -> int:
        return len(self.seed_series)

    def _at_levels(self):
        depth = max(map(len, self.seed_series), default=0)
        return [[s[k] for s in self.seed_series if len(s) > k] for k in range(depth)]

    @property
    def values(self) -> list:
        return [sum(at_k) / len(at_k) for at_k in self._at_levels()]

    @property
    def support(self) -> list:
        return [len(at_k) for at_k in self._at_levels()]


def poisson_baseline(
    window: Window,
    expected_count: float,
    n_seeds: int,
    metric: Metric = Metric(),
    master_seed: int = 0,
    seeds=None,
) -> BaselineSeries:
    """The Poisson mean-distance series of every seed.

    The intensity is expected_count/volume so the baseline is comparable to
    the target sample. Seeds are derived from master_seed unless `seeds`
    gives all n_seeds of them (master_seed is then unused). `map_blocks`
    cuts the seeds into contiguous blocks, one hierarchy per block
    (`_block_series`); a seed of more than half a block is built alone.
    """
    if seeds is None:
        seeds = [derive_seed(master_seed, i) for i in range(n_seeds)]
    seeds = list(seeds)
    if not seeds:
        raise SeriesError("n_seeds must be >= 1")
    if n_seeds != len(seeds):
        raise SeriesError(f"n_seeds is {n_seeds}, but {len(seeds)} seeds are given")
    if not 0 <= expected_count < math.inf:
        raise SeriesError(f"expected count must be finite and >= 0, got {expected_count!r}")
    lam = expected_count / window.volume

    def block(block_seeds):
        samples = [gen_poisson(lam, window, window.dim, s) for s in block_seeds]
        return _block_series(samples, metric)

    series = map_blocks(block, seeds, expected_count)
    return BaselineSeries(tuple(itertools.chain.from_iterable(series)))


def _block_series(samples, metric: Metric) -> list:
    """Each sample's mean-distance series, from one hierarchy of the block.

    Sample j is lifted to j * gap on one extra, last axis, gap being twice
    its window's diagonal (on the torus the extra side is B * gap for B
    samples). It owns the pairs whose low head is one of its points; at each
    level where it owns two or more, the mean of their merge distances is
    its entry. That is its own build, bit for bit, because:
    - the extra axis adds exactly +0.0 to every squared distance within a
      sample, in the tree and in `sq_dist_many`, which adds it last;
    - every distance across samples is larger than every one within;
    - ids and pairs keep their order within a sample, so ties break alike;
    - a sample down to one pair (or point) only exits into another sample's
      heads and never changes them, and owns at most one pair from then on.
    A one-sample block is built as the plain sample: lifted, a lone seed
    gives the same series bit for bit but builds 5-15% slower (medians of 12
    alternating builds of 5k-50k points, both metrics and 3-D).
    """
    if len(samples) == 1:
        return [tuple(mean_distance_series(build_hierarchy(samples[0], metric)))]
    window = samples[0].window
    gap = 2.0 * math.hypot(*window.side_lengths)
    top = len(samples) * gap

    def lift(w: Window) -> Window:
        return Window(np.append(w.lo, 0.0), np.append(w.hi, top))

    sizes = [s.n for s in samples]
    owner = np.repeat(np.arange(len(samples)), sizes)
    points = np.column_stack([np.concatenate([s.points for s in samples]), owner * gap])
    block = Sample(points, lift(window), window.dim + 1, {"kind": "block"}, 0)
    lifted = Metric(metric.kind, None if metric.window is None else lift(metric.window))
    h = build_hierarchy(block, lifted)
    series = [[] for _ in samples]
    for g, nxt in zip(h.levels, h.levels[1:]):
        counts = np.bincount(owner[g.pairs[:, 0]], minlength=len(samples))
        ends = np.cumsum(counts).tolist()
        for j in np.flatnonzero(counts >= 2).tolist():
            series[j].append(_mean_merge_distance(nxt.merge_sq[ends[j] - counts[j]:ends[j]]))
    return [tuple(s) for s in series]


# Significance level of the detector's global Monte Carlo test, and the
# fewest baseline seeds m at which it can reject: its smallest p-value is
# 1/(m + 1), which must not exceed ALPHA.
ALPHA = 0.05
MIN_SEEDS = 19


@dataclass(frozen=True)
class DetectorConfig:
    tau: float = 0.3

    def __post_init__(self):
        if not self.tau > 0:
            raise SeriesError("tau must be positive")


@dataclass(frozen=True)
class DetectionResult:
    """`p_value` is the global test's p-value, nan if the baseline had fewer
    than MIN_SEEDS seed series; `rule` names what decided: "monte-carlo"
    for the tau rule behind the global test, "tau" for the tau rule alone."""

    level: int | None
    ratios: list
    rel_increase: list
    flagged: list
    p_value: float

    @property
    def rule(self) -> str:
        return "tau" if math.isnan(self.p_value) else "monte-carlo"

    @property
    def detected(self) -> bool:
        return self.level is not None


def align_series(target, baseline):
    """Truncate both series to their common levels; at least 2 required."""
    common = min(len(target), len(baseline))
    if common < 2:
        raise SeriesError(f"only {common} common level(s) between target and baseline")
    return list(target[:common]), list(baseline[:common])


def detect_against_baseline(
    target: Hierarchy | list,
    baseline: BaselineSeries,
    cfg: DetectorConfig | None = None,
) -> DetectionResult:
    """Detect aggregation in `target` (a Hierarchy or its mean-distance
    series) against `baseline` over their common levels.

    The tau rule on R_k = target_k / baseline.values_k flags every level
    k >= 1 with (R_k - R_{k-1})/R_{k-1} > tau, and `level` is the first.
    With at least MIN_SEEDS seed series the flags stand only if the global
    Monte Carlo test of the module note rejects at ALPHA.
    """
    cfg = cfg or DetectorConfig()
    if isinstance(target, Hierarchy):
        target = mean_distance_series(target)
    t, b = align_series(target, baseline.values)
    if any(not 0 < v < math.inf for v in t + b):
        raise SeriesError("target and baseline distances must be positive and finite")
    ratios = [x / y for x, y in zip(t, b)]
    rel = [math.nan]
    rel += [(ratios[k] - ratios[k - 1]) / ratios[k - 1] for k in range(1, len(ratios))]
    flagged = [k for k in range(1, len(ratios)) if rel[k] > cfg.tau]
    p = math.nan
    if baseline.n_seeds >= MIN_SEEDS:
        p = _monte_carlo_p_value(target, baseline.seed_series)
        if p > ALPHA:
            flagged = []
    return DetectionResult(flagged[0] if flagged else None, ratios, rel, flagged, p)


def _monte_carlo_p_value(target, seed_series) -> float:
    """Monte Carlo p-value of the target's largest studentised deviation
    among the m + 1 samples' own (see the module note)."""
    samples = [target, *seed_series]
    depth = min(map(len, samples))
    if depth == 0:
        raise SeriesError("the target and the baseline seeds share no level to compare")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log([s[:depth] for s in samples])
        if not np.isfinite(logs).all():
            raise SeriesError("baseline seed distances must be positive and finite")
        stat = []
        for i, x in enumerate(logs):
            others = np.sort(np.delete(logs, i, axis=0), axis=0)
            dev = np.abs(x - others.mean(axis=0))
            stat.append(float(np.where(dev > 0, dev / others.std(axis=0, ddof=1), 0.0).max()))
    return (1 + sum(s >= stat[0] for s in stat[1:])) / len(stat)


def _write_csv(path, header, rows) -> None:
    """The header, then one line per row. csv writes a float as its repr
    and None as an empty cell; nan is written empty too."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [None if isinstance(v, float) and math.isnan(v) else v for v in row] for row in rows
        )


def write_levels_csv(rows, path) -> None:
    _write_csv(path, [f.name for f in fields(LevelStats)], map(astuple, rows))


SERIES_COLUMN = "mean_merge_distance"


def _column_series(rows, column, path) -> list:
    """The values of one column. Only the trailing rows, those past a
    series' last level, may leave it empty."""
    cells = [row[column] or "" for row in rows]
    filled = [cell for cell in cells if cell]
    if not all(cells[: len(filled)]):
        raise SeriesError(f"{path}: empty {column} cell before the last filled one")
    return [float(cell) for cell in filled]


def read_series_csv(path) -> list:
    """Mean-distance series from a levels CSV (skips empty terminal rows):
    the CSV read as a one-series baseline."""
    return read_baseline_csv(path).values


SEED_COLUMN_PREFIX = "seed_"


def write_baseline_csv(baseline: BaselineSeries, seeds, path) -> None:
    """`level,support,mean_merge_distance`, then one `seed_<s>` column per
    seed holding that seed's own series for the detector's Monte Carlo
    test. The seeds must be distinct, one per series."""
    seed_columns = [f"{SEED_COLUMN_PREFIX}{s}" for s in seeds]
    if {len(seed_columns), len(set(seed_columns))} != {baseline.n_seeds}:
        raise SeriesError(f"{path}: {baseline.n_seeds} series need as many distinct seeds, "
                          f"got {len(seed_columns)} ({len(set(seed_columns))} distinct)")
    rows = (
        [k, sup, val, *(s[k] if len(s) > k else None for s in baseline.seed_series)]
        for k, (val, sup) in enumerate(zip(baseline.values, baseline.support))
    )
    _write_csv(path, ["level", "support", SERIES_COLUMN, *seed_columns], rows)


def read_baseline_csv(path) -> BaselineSeries:
    """Baseline from the `seed_<s>` columns of a CSV, or, in a CSV without
    them such as one sample's levels CSV, from `mean_merge_distance` as its
    single series. No column may be repeated, every distance must be
    positive and finite, and `mean_merge_distance` must be the mean of the
    seed columns."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        fields = reader.fieldnames or []
    if SERIES_COLUMN not in fields:
        raise SeriesError(f"{path}: no {SERIES_COLUMN} column")
    repeated = [c for c in fields if fields.count(c) > 1]
    if repeated:
        raise SeriesError(f"{path}: column {repeated[0]} is repeated")
    columns = [c for c in fields if c.startswith(SEED_COLUMN_PREFIX)] or [SERIES_COLUMN]
    baseline = BaselineSeries(tuple(tuple(_column_series(rows, c, path)) for c in columns))
    if any(not (0 < v < math.inf) for s in baseline.seed_series for v in s):
        raise SeriesError(f"{path}: distances must be positive and finite")
    if _column_series(rows, SERIES_COLUMN, path) != baseline.values:
        raise SeriesError(f"{path}: {SERIES_COLUMN} is not the mean of the seed columns")
    return baseline


DETECTOR_CSV_FIELDS = (
    "level",
    "target_d",
    "baseline_d",
    "R",
    "rel_increase",
    "detected_flag",
    "rule",
)


def write_detector_csv(target, baseline, result: DetectionResult, path) -> None:
    """One row per aligned level; the `rule` column names the rule that
    decided."""
    rows = (
        [k, t, b, r, result.rel_increase[k], int(k in result.flagged), result.rule]
        for k, (t, b, r) in enumerate(zip(target, baseline, result.ratios))
    )
    _write_csv(path, DETECTOR_CSV_FIELDS, rows)
