"""The benchmark's workloads: input generation, one pipeline iteration, and
the correctness gate applied to every iteration's output.

Package functions are always called through their module attribute
(``hierarchy.build_hierarchy``, not a name imported here), so the tracer in
``spans.py`` sees the calls this file makes as well as the package's own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from chn2 import chains, fixtures, hierarchy, pointprocess, stats
from chn2.geometry import Metric, Window

WORKLOADS = {
    "uniform-50k": {
        "job": "cluster", "points": 50_000, "side": 1.0, "quantise": False,
        "metric": "euclidean",
    },
    "quantised-torus": {
        "job": "cluster", "points": 30_000, "side": 300.0, "quantise": True,
        "metric": "torus",
    },
    "detect-cox": {
        "job": "detect", "fixture": "three_balls", "baseline_seeds": 20,
        "tau": 0.3, "band": [3, 9],
    },
    "chains-mc": {
        "job": "chains", "n": 4, "dim": 2, "lam": 1.0, "R": 1.0, "trials": 2000,
        "max_se": 4.0,
    },
}

# Same jobs at sizes that finish in about a second each, for the self-test.
# The quantised grid keeps the full workload's density (0.33 points per cell).
TINY = {
    "uniform-50k": {"points": 2_000},
    "quantised-torus": {"points": 3_000, "side": 95.0},
    "detect-cox": {"baseline_seeds": 4},
    "chains-mc": {"trials": 100},
}

# Recursive expected count at n = 4, d = 2, lam = R = 1: pi^4 / 2. It is an
# upper bound on the true expectation (about 40.9), see chn2.chains.
CHAIN_BOUND_N4 = math.pi**4 / 2

SAMPLE_FILE = "sample.json"
CONFIG_FILE = "chains.json"


def params_for(name: str, tiny: bool = False) -> dict:
    params = dict(WORKLOADS[name])
    if tiny:
        params.update(TINY[name])
    return params


# ---------------------------------------------------------------- inputs


def make_inputs(params: dict, seed: int, workdir: Path) -> None:
    """Generate the workload's input from the seed and write it to workdir."""
    job = params["job"]
    if job == "cluster":
        side = params["side"]
        window = Window(np.zeros(2), np.full(2, side))
        sample = pointprocess.gen_binomial(params["points"], window, 2, seed)
        if params["quantise"]:
            # Floor to the integer grid, drop duplicates, then shuffle the ids
            # so the grid order does not leak into the tie-breaking order.
            grid = np.unique(np.floor(sample.points), axis=0)
            grid = grid[np.random.default_rng(seed).permutation(len(grid))]
            gen = dict(sample.generator, quantised="floor")
            sample = pointprocess.Sample(grid, window, 2, gen, seed)
        pointprocess.save_sample(sample, workdir / SAMPLE_FILE)
    elif job == "detect":
        sample = fixtures.cox_fixture(params["fixture"], seed)
        pointprocess.save_sample(sample, workdir / SAMPLE_FILE)
    else:
        config = {k: params[k] for k in ("lam", "R", "dim", "n", "trials")}
        config["seed"] = seed
        (workdir / CONFIG_FILE).write_text(json.dumps(config) + "\n")


# ---------------------------------------------------------------- pipeline


def run_job(params: dict, seed: int, workdir: Path):
    """One user-facing job on the inputs in workdir, as a generator that
    pauses between phases of a few seconds (see speed.SpeedClock) and
    returns the job's outputs."""
    return _JOBS[params["job"]](params, seed, workdir)


def _cluster_job(params, seed, workdir):
    """`chn2 cluster` then `chn2 stats`: the two are separate commands, so
    the stats half works from the saved hierarchy only."""
    hpath, lpath = workdir / "hierarchy.json", workdir / "levels.csv"
    sample = pointprocess.load_sample(workdir / SAMPLE_FILE)
    if params["metric"] == "torus":
        metric = Metric.torus(sample.window)
    else:
        metric = Metric.euclidean()
    h = hierarchy.build_hierarchy(sample, metric)
    yield
    hierarchy.save_hierarchy(h, hpath)
    del h
    yield
    loaded = hierarchy.load_hierarchy(hpath)
    rows = stats.level_stats(loaded)
    stats.write_levels_csv(rows, lpath)
    return {"hierarchy": loaded, "rows": rows, "files": [hpath, lpath]}


def _detect_job(params, seed, workdir):
    """Target hierarchy, a matched seed-averaged Poisson baseline, and the
    ratio-jump detector, with the levels and detector CSVs written and the
    target series read back as `chn2 detect` does."""
    lpath, dpath = workdir / "levels.csv", workdir / "detect.csv"
    sample = pointprocess.load_sample(workdir / SAMPLE_FILE)
    h = hierarchy.build_hierarchy(sample)
    stats.write_levels_csv(stats.level_stats(h), lpath)
    baseline = stats.poisson_baseline(
        sample.window, sample.n, params["baseline_seeds"], master_seed=seed
    )
    series = stats.read_series_csv(lpath)
    result = stats.detect_against_baseline(
        h, baseline, stats.DetectorConfig(tau=params["tau"])
    )
    t, b = stats.align_series(series, baseline.values)
    stats.write_detector_csv(t, b, result, dpath)
    yield from ()  # one phase: the baseline dominates it
    return {
        "hierarchy": h, "series": series, "baseline": baseline,
        "result": result, "files": [lpath, dpath],
    }


def _chains_job(params, seed, workdir):
    """`chn2 chains mc`: expected counts plus the Monte-Carlo estimate, as CSV."""
    cfg = json.loads((workdir / CONFIG_FILE).read_text())
    lam, R, d, n = cfg["lam"], cfg["R"], cfg["dim"], cfg["n"]
    mc_cfg = chains.ChainCountConfig(
        lam=lam, R=R, d=d, n=n, trials=cfg["trials"], seed=cfg["seed"]
    )
    mean, stderr = chains.mc_chain_count(mc_cfg)
    closed = chains.expected_chain_count_formula(lam, R, d, n)
    recursive = chains.expected_chain_count_recursive(lam, R, d, n)
    path = workdir / "chains.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "closed_form", "recursive", "mc_mean", "mc_stderr", "trials"])
        writer.writerow([n, closed, recursive, mean, stderr, cfg["trials"]])
    yield from ()  # one phase
    return {"mean": mean, "stderr": stderr, "files": [path]}


_JOBS = {"cluster": _cluster_job, "detect": _detect_job, "chains": _chains_job}


def artifact_bytes(out: dict) -> int:
    return sum(Path(p).stat().st_size for p in out["files"])


# ---------------------------------------------------------------- checks


def check_job(params: dict, out: dict) -> tuple[list, str, str | None]:
    """The correctness gate for one iteration.

    Returns (failures, digest, note): failures is empty when the output is
    right; digest is a sha256 that two commits can compare for bit identity;
    note records a correct but noteworthy outcome (a missed detection).
    """
    job = params["job"]
    if job == "chains":
        return check_chains(params, out), _sha256_file(out["files"][0]), None
    h = out["hierarchy"]
    counts, failures = check_hierarchy(h)
    failures += check_level0(h)
    if job == "cluster":
        failures += check_levels_csv(counts, out["rows"], out["files"][1])
        return failures, _sha256_file(out["files"][0]), None
    failures += check_detection(params, h, out)
    text = json.dumps(hierarchy.hierarchy_to_json(h)) + "\n"
    note = None
    if out["result"].level is None:
        note = "no detection: the target is one of the misses criterion 5c allows"
    return failures, hashlib.sha256(text.encode()).hexdigest(), note


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def component_counts(levels) -> tuple[list, list]:
    """Weak components per level, checked to carry exactly one 2-cycle each.

    A functional graph has one cycle per weak component, so the structure
    holds exactly when the mutual pairs are as many as the components.
    """
    counts, failures = [], []
    for k, succ in enumerate(levels):
        n = succ.size
        ids = np.arange(n)
        if np.any((succ < 0) | (succ >= n)) or np.any(succ == ids):
            failures.append(f"level {k}: successor map is not total or has a self-loop")
            counts.append(0)
            continue
        graph = coo_matrix((np.ones(n), (ids, succ)), shape=(n, n))
        n_comp, _ = connected_components(graph, directed=True, connection="weak")
        mutual = int(np.count_nonzero((succ[succ] == ids) & (ids < succ)))
        if mutual != n_comp:
            failures.append(f"level {k}: {n_comp} components but {mutual} 2-cycles")
        counts.append(n_comp)
    return counts, failures


def check_hierarchy(h) -> tuple[list, list]:
    """Component counts per level, and the structure failures."""
    counts, failures = component_counts([g.successor for g in h.levels])
    for k in range(1, len(counts)):
        if 2 * counts[k] > counts[k - 1]:
            failures.append(
                f"level {k}: {counts[k]} components do not halve {counts[k - 1]}"
            )
    if h.termination != hierarchy.SINGLE_PAIR or not counts or counts[-1] != 1:
        failures.append(f"termination {h.termination!r} with {counts[-1:]} components")
    return counts, failures


def _sq_dist(a, b, period):
    delta = np.abs(a - b)
    if period is not None:
        delta = np.minimum(delta, period - delta)
    return np.sum(delta * delta, axis=-1)


def nearest_neighbors(points, metric) -> np.ndarray:
    """Level-0 successors from an independent k-d tree search: the nearest
    other point under the order (squared distance, id)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if metric.kind == "torus":
        period = metric.window.side_lengths
        data = pts - metric.window.lo
        data = np.where(data >= period, data - period, data)
        tree = cKDTree(data, boxsize=period)
    else:
        period = None
        data = pts
        tree = cKDTree(data)
    k = min(n, 10)
    dist, idx = tree.query(data, k=k)
    ids = np.arange(n)
    sq = _sq_dist(pts[idx], pts[:, None, :], period)
    sq[idx == ids[:, None]] = np.inf
    best = sq.min(axis=1)
    succ = np.where(sq == best[:, None], idx, n).min(axis=1)
    # A point beyond the k-th candidate can only tie when the k-th candidate
    # is no farther than the best one (up to rounding of the tree distance).
    reach = np.sqrt(best) * (1 + 1e-9) + 1e-12 * max(1.0, float(np.abs(pts).max()))
    if k < n:
        for i in np.flatnonzero(dist[:, -1] <= reach):
            cand = np.asarray(tree.query_ball_point(data[i], r=reach[i]), dtype=np.int64)
            cand = cand[cand != i]
            csq = _sq_dist(pts[cand], pts[i], period)
            succ[i] = cand[csq == csq.min()].min()
    return succ


def check_level0(h) -> list:
    expect = nearest_neighbors(h.sample.points, h.metric)
    got = h.levels[0].successor
    wrong = np.flatnonzero(expect != got)
    if wrong.size:
        i = int(wrong[0])
        return [
            f"level 0: {wrong.size} successors differ from the k-d tree check, "
            f"first at point {i}: {int(got[i])} instead of {int(expect[i])}"
        ]
    return []


def _csv_series(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [row["mean_merge_distance"] for row in csv.DictReader(fh)]
    return [float(c) for c in cells if c]


def check_levels_csv(counts, rows, path) -> list:
    failures = []
    if [r.n_components for r in rows] != counts:
        failures.append("level stats disagree with the hierarchy's component counts")
    merged = [r.mean_merge_distance for r in rows if r.mean_merge_distance is not None]
    if _csv_series(path) != merged:
        failures.append("levels CSV does not read back as the computed series")
    return failures


def check_detection(params, h, out) -> list:
    failures = []
    if out["series"] != stats.mean_distance_series(h):
        failures.append("levels CSV does not read back as the target series")
    baseline = out["baseline"]
    if baseline.support[:1] != [params["baseline_seeds"]]:
        failures.append(f"baseline level 0 support {baseline.support[:1]}")
    level = out["result"].level
    expect = ratio_jump_level(out["series"], baseline.values, params["tau"])
    if level != expect:
        failures.append(f"detection level {level}, but the ratio-jump rule gives {expect}")
    lo, hi = params["band"]
    if level is not None and not lo <= level <= hi:
        failures.append(f"detection level {level} outside the band [{lo}, {hi}]")
    return failures


def ratio_jump_level(target, baseline, tau):
    """The detector's rule, written apart from chn2.stats: the first level
    k >= 1 over the common levels at which R_k = target_k / baseline_k rises
    by more than tau over R_(k-1), or None."""
    common = min(len(target), len(baseline))
    ratios = [t / b for t, b in zip(target[:common], baseline[:common])]
    return next(
        (k for k in range(1, common) if (ratios[k] - ratios[k - 1]) / ratios[k - 1] > tau),
        None,
    )


def check_chains(params, out) -> list:
    mean, se = out["mean"], out["stderr"]
    if not (mean > 0 and se > 0):
        return [f"degenerate estimate {mean} +- {se}"]
    if mean >= CHAIN_BOUND_N4 + params["max_se"] * se:
        return [
            f"estimate {mean:.3f} +- {se:.3f} is not below the upper bound "
            f"{CHAIN_BOUND_N4:.3f} within {params['max_se']} standard errors"
        ]
    return []
