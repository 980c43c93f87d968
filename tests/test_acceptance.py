"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 is implemented exactly as stated and is expected to fail on
structural grounds; its counterexamples are persisted under
tests/_artifacts/ for inspection. Companion tests demonstrate the
corresponding properties that do hold (descent along head paths; detection
margins on the aggregated fixtures).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from chn2.chains import (
    ChainCountConfig,
    count_chains_from_origin,
    expected_chain_count_formula,
    expected_chain_count_recursive,
    mc_chain_count,
)
from chn2.fixtures import (
    COX_FOUR_BALLS,
    COX_THREE_BALLS,
    WINDOW_200,
    cox_fixture,
)
from chn2.geometry import Metric, Window
from chn2.hierarchy import build_hierarchy, level0
from chn2.pointprocess import Sample, derive_seed, gen_cox_balls, gen_poisson
from chn2.spatial_index import NnIndex
from chn2.stats import (
    DetectorConfig,
    detect_against_baseline,
    level_stats,
    poisson_baseline,
)
from conftest import (
    nearest_foreign,
    oracle_cluster_subtrees,
    oracle_count_chains,
    oracle_nearest_foreign,
    oracle_successor_map,
)

ARTIFACTS = Path(__file__).parent / "_artifacts"
ARTIFACTS.mkdir(exist_ok=True)
SUMMARY = ARTIFACTS / "acceptance_summary.txt"


@pytest.fixture(scope="module", autouse=True)
def _fresh_summary():
    SUMMARY.unlink(missing_ok=True)
    yield

EUCLID = Metric.euclidean()

# --- fixed acceptance protocol constants -----------------------------------
CORPUS_SEED = 424242
CORPUS_SIZE = 210
BASELINE_SEEDS = {"three_balls": 1000, "four_balls": 1001}
FRESH_COX_SEEDS = {"three_balls": 201, "four_balls": 202}
FRESH_POISSON_SEEDS = {"three_balls": 301, "four_balls": 302}
# Frozen at first build: detection level of the bundled fixed-seed fixtures.
PINNED_DETECTION_LEVEL = {"three_balls": 4, "four_balls": 4}


def report(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with open(SUMMARY, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return ok


# --- test-side structural oracles -------------------------------------------

def uf_components(succ):
    """Union-find over undirected successor edges (test-side oracle)."""
    parent = list(range(len(succ)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in enumerate(succ):
        ri, rj = find(i), find(int(j))
        if ri != rj:
            parent[rj] = ri
    return np.asarray([find(i) for i in range(len(succ))])


def walk_cycles(succ):
    """All cycles of a functional graph by iterated walking (test-side)."""
    n = len(succ)
    state = np.zeros(n, dtype=np.int8)  # 0 new, 1 in progress, 2 done
    cycles = []
    for start in range(n):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = int(succ[v])
        if state[v] == 1:  # new cycle closed within this walk
            idx = path.index(v)
            cycles.append(tuple(path[idx:]))
        for u in path:
            state[u] = 2
    return cycles


def brute_mutual_nn_ok(points, cycle, metric):
    a, b = cycle
    for x, y in ((a, b), (b, a)):
        sq = np.sum((points - points[x]) ** 2, axis=1)
        sq[x] = np.inf
        best = sq.min()
        winners = np.flatnonzero(sq == best)
        if winners[0] != y:
            return False
    return True


@pytest.fixture(scope="module")
def corpus():
    """Random Poisson-style samples: n log-uniform in [10, 5000], d in 1..3."""
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for i in range(CORPUS_SIZE):
        d = 1 + i % 3
        n = int(round(math.exp(rng.uniform(math.log(10), math.log(5000)))))
        side = max(n, 2) ** (1.0 / d)  # unit intensity
        w = Window(np.zeros(d), np.full(d, side))
        seed = derive_seed(CORPUS_SEED, i)
        pts = np.random.default_rng(seed).uniform(0.0, side, size=(n, d))
        sample = Sample(pts, w, d, {"kind": "binomial", "count": n}, seed)
        out.append((sample, build_hierarchy(sample)))
    return out


def test_criterion_1_structural_invariants(corpus):
    violations = []
    checked = 0
    for sample, h in corpus:
        n = sample.n
        prev_comp = None
        for g in h.levels:
            checked += 1
            succ = g.successor
            if not (
                succ.shape == (n,)
                and succ.min() >= 0
                and succ.max() < n
                and np.all(succ != np.arange(n))
            ):
                violations.append((sample.seed, g.level, "out-degree"))
            comp = uf_components(succ)
            cycles = walk_cycles(succ)
            if len(cycles) != len(np.unique(comp)):
                violations.append((sample.seed, g.level, "cycle count"))
            if any(len(c) != 2 for c in cycles):
                violations.append((sample.seed, g.level, "cycle length"))
            pairs = sorted(map(tuple, g.pairs.tolist()))
            if sorted(tuple(sorted(c)) for c in cycles) != pairs:
                violations.append((sample.seed, g.level, "cycle mismatch"))
            if g.level == 0:
                for cyc in cycles:
                    if not brute_mutual_nn_ok(sample.points, tuple(sorted(cyc)), EUCLID):
                        violations.append((sample.seed, 0, "not MNN"))
            if prev_comp is not None:
                merged = {}
                for c_prev, c_new in zip(prev_comp, comp):
                    if merged.setdefault(c_prev, c_new) != c_new:
                        violations.append((sample.seed, g.level, "not coarsening"))
                        break
                if len(np.unique(comp)) > len(np.unique(prev_comp)) // 2:
                    violations.append((sample.seed, g.level, "halving"))
            prev_comp = comp
            trees = oracle_cluster_subtrees(g)
            allids = np.sort(np.concatenate(list(trees.values())))
            if not (allids.size == n and np.array_equal(allids, np.arange(n))):
                violations.append((sample.seed, g.level, "subtree partition"))
    ok = not violations
    report(
        "1 structural-invariants",
        ok,
        f"{len(corpus)} samples, {checked} level graphs, {len(violations)} violations",
    )
    assert ok, violations[:10]


def _triple_violations(succ, points, within=None):
    x0 = np.arange(len(succ)) if within is None else np.asarray(within)
    x1, x2, x3 = succ[x0], succ[succ[x0]], succ[succ[succ[x0]]]
    distinct = (
        (x0 != x1) & (x0 != x2) & (x0 != x3)
        & (x1 != x2) & (x1 != x3) & (x2 != x3)
    )
    d0 = np.sum((points[x0] - points[x1]) ** 2, axis=1)
    d1 = np.sum((points[x1] - points[x2]) ** 2, axis=1)
    d2 = np.sum((points[x2] - points[x3]) ** 2, axis=1)
    bad = distinct & (d2 >= np.maximum(d0, d1))
    return [
        {
            "path": [int(x0[i]), int(x1[i]), int(x2[i]), int(x3[i])],
            "lengths": [float(np.sqrt(d0[i])), float(np.sqrt(d1[i])), float(np.sqrt(d2[i]))],
        }
        for i in np.flatnonzero(bad)
    ]


def test_criterion_2_second_order_descent_all_simple_paths(corpus):
    """As stated: every triple along every simple path in every level graph.

    Tree-prefix triples (plain nearest-neighbor edge into a tight pair whose
    exit relinks far away) break this; counterexamples are persisted, not
    suppressed. See the head-path companion test for the form that holds.
    """
    found = []
    total_graphs = 0
    for sample, h in corpus:
        for g in h.levels:
            total_graphs += 1
            bad = _triple_violations(g.successor, sample.points)
            for item in bad[:2]:
                item.update({"sample_seed": sample.seed, "level": g.level,
                             "dim": sample.dim})
                found.append(item)
    if found:
        with open(ARTIFACTS / "criterion2_counterexamples.json", "w") as fh:
            json.dump(found[:200], fh, indent=1)
    ok = not found
    report(
        "2 second-order-descent-all-paths",
        ok,
        f"{total_graphs} level graphs, {len(found)} violating triples"
        + ("" if ok else " (persisted to _artifacts/criterion2_counterexamples.json)"),
    )
    assert ok, (
        f"{len(found)} triples violate d_i < max(d_i-1, d_i-2) on simple paths; "
        "first: " + json.dumps(found[0])
    )


def test_supplementary_descent_on_head_paths(corpus):
    """Companion: restricted to paths inside the previous level's head set,
    every consecutive triple does descend (zero violations expected)."""
    bad_total = 0
    for sample, h in corpus:
        for k in range(1, len(h.levels)):
            heads = np.sort(h.levels[k - 1].pairs.ravel())
            bad_total += len(
                _triple_violations(h.levels[k].successor, sample.points, within=heads)
            )
    ok = bad_total == 0
    report("2s head-path-descent (companion)", ok, f"{bad_total} violations")
    assert ok


def test_criterion_3_chain_count_formula():
    """MC vs pi (n=1), pi^2 (n=2), recursion (n=3), exact 5 pi^4/12 (n=4).

    The two-step recursion (and hence the closed form, pi^4/2 at n=4)
    relaxes the bound on the last step from max(d_1, d_2) to
    max(d_0, d_1), so for n >= 4 both are upper bounds of the exact
    expectation, not its value; they are checked in that role here. The
    supplementary test below cross-checks against an independent estimator.
    """
    lam, R, d, trials, seed = 1.0, 1.0, 2, 10_000, 2024
    # Exact n=4 value. With v_i = (d_i/R)^d, each step is uniform in its ball
    # under the Mecke formula, so v_i is uniform on [0, 1] and
    #   E[X_{R,4}] = (lam w_d R^d)^4 * int_0^1 int_0^1 int_0^max(v0,v1)
    #                  max(v1, v2) dv2 dv1 dv0.
    # The inner integral is v1^2 + (max(v0,v1)^2 - v1^2)/2, and
    # E[max(v0,v1)^2] = 1/2, E[v1^2] = 1/3, so the triple integral is
    # (1/2 + 1/3)/2 = 5/12 in every dimension. At d=2, lam=R=1: 5 pi^4/12.
    exact_n4 = 5.0 / 12.0 * math.pi**4
    targets = {
        1: math.pi,
        2: math.pi**2,
        4: exact_n4,
        3: expected_chain_count_recursive(lam, R, d, 3),
    }
    assert targets[3] == pytest.approx((2.0 / 3.0) * math.pi**3, rel=1e-6)
    assert expected_chain_count_formula(lam, R, d, 4) >= exact_n4
    assert expected_chain_count_recursive(lam, R, d, 4) >= exact_n4
    lines = []
    ok = True
    for n in (1, 2, 3, 4):
        mean, stderr = mc_chain_count(
            ChainCountConfig(lam=lam, R=R, d=d, n=n, trials=trials, seed=seed)
        )
        want = targets[n]
        good = abs(mean - want) <= 3 * stderr
        ok &= good
        lines.append(
            f"n={n}: mc={mean:.3f}+-{stderr:.3f} vs {want:.3f} [{'ok' if good else 'FAIL'}]"
        )
    odd_formula = expected_chain_count_formula(lam, R, d, 3)
    lines.append(
        f"odd-n n=3 note: closed-form {odd_formula:.3f} vs recursion {targets[3]:.3f} "
        f"(ratio {targets[3] / odd_formula:.4f}, reported not asserted)"
    )
    report("3 chain-count-monte-carlo", ok, "; ".join(lines))
    assert ok, lines


def test_supplementary_chain_counts_vs_independent_estimator():
    """Companion: the exact chain counter (one breadth-first pass over each
    block of trials) agrees with a sequential importance-sampling estimate
    of the exact expectation, and the formula values bound it from above
    for n >= 4."""
    from conftest import oracle_expected_chains_weighted

    lam, R, d, seed = 1.0, 1.0, 2, 2024
    lines = []
    ok = True
    for n, trials in ((3, 6000), (4, 8000)):
        mc, mc_se = mc_chain_count(
            ChainCountConfig(lam=lam, R=R, d=d, n=n, trials=trials, seed=seed)
        )
        ref, ref_se = oracle_expected_chains_weighted(n, d, 200_000, seed)
        spread = 3 * math.hypot(mc_se, ref_se)
        agree = abs(mc - ref) <= spread
        bound = expected_chain_count_recursive(lam, R, d, n)
        bounded = ref <= bound + 3 * ref_se
        ok &= agree and bounded
        lines.append(
            f"n={n}: counter {mc:.2f}+-{mc_se:.2f} vs independent {ref:.2f}+-{ref_se:.2f}, "
            f"formula upper bound {bound:.2f}"
        )
    report("3s chain-count-independent (companion)", ok, "; ".join(lines))
    assert ok, lines


def test_criterion_4_exit_intensity_decay():
    n_points, n_seeds = 12_000, 20
    side = math.sqrt(n_points)
    w = Window([0.0, 0.0], [side, side])
    per_k = [[] for _ in range(4)]
    for i in range(n_seeds):
        seed = derive_seed(777_000, i)
        pts = np.random.default_rng(seed).uniform(0.0, side, size=(n_points, 2))
        s = Sample(pts, w, 2, {"kind": "binomial", "count": n_points}, seed)
        rows = level_stats(build_hierarchy(s))
        assert len(rows) >= 6, "hierarchy too shallow for k=0..3 ratios"
        for k in range(4):
            per_k[k].append(rows[k + 1].exit_intensity / rows[k].exit_intensity)
    means = [float(np.mean(r)) for r in per_k]
    ok = all(0.25 <= m <= 0.42 for m in means)
    report(
        "4 exit-intensity-decay",
        ok,
        f"{n_seeds} seeds of {n_points} points, mean ratios k=0..3: "
        + ", ".join(f"{m:.3f}" for m in means)
        + " (band [0.25, 0.42])",
    )
    assert ok, means


# m_0 / n on the unit torus tends to p_d / 2, half the chance that a Poisson
# point and its nearest neighbour are each other's nearest neighbour.
POISSON_LEVEL0_PAIRS_PER_POINT = {
    1: 1 / 3,
    2: 3 * math.pi / (8 * math.pi + 3 * math.sqrt(3)),
    3: 8 / 27,
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_poisson_level0_pairs_per_point(d):
    # Fixed before the first run: 10 Poisson samples of mean 20,000 points,
    # seeds derive_seed(4242, i), and a two-sided 4-sigma bound on the mean
    # with the standard error of the 10 samples. Given its count a Poisson
    # sample is a binomial one, whose O(1/n) bias is far below that bound.
    torus = Window(np.zeros(d), np.ones(d))
    metric = Metric.torus(torus)
    ratios = []
    for i in range(10):
        sample = gen_poisson(20_000.0, torus, d, derive_seed(4242, i))
        ratios.append(level0(sample, metric).n_components / sample.n)
    mean = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
    z = (mean - POISSON_LEVEL0_PAIRS_PER_POINT[d]) / stderr
    ok = abs(z) <= 4
    report(
        f"level0-constant d={d}",
        ok,
        f"m_0/n = {mean:.5f} +- {stderr:.5f} over 10 samples, "
        f"p_d/2 = {POISSON_LEVEL0_PAIRS_PER_POINT[d]:.5f}, z = {z:+.2f} (bound 4)",
    )
    assert ok, (mean, stderr, z)


@pytest.fixture(scope="module")
def detection_baselines():
    out = {}
    for name in ("three_balls", "four_balls"):
        fixture = cox_fixture(name)
        out[name] = (
            fixture,
            poisson_baseline(
                WINDOW_200, fixture.n, 20, master_seed=BASELINE_SEEDS[name]
            ),
        )
    return out


def _detect(sample, baseline):
    return detect_against_baseline(
        build_hierarchy(sample), baseline, DetectorConfig(tau=0.3)
    )


def test_criterion_5a_bundled_fixtures_fire(detection_baselines):
    levels = {}
    for name, (fixture, baseline) in detection_baselines.items():
        result = _detect(fixture, baseline)
        levels[name] = result.level
    ok = all(v is not None for v in levels.values())
    report("5a bundled-fixtures-fire", ok, f"detected levels {levels}")
    assert ok, levels


def test_criterion_5b_pinned_regression(detection_baselines):
    levels = {
        name: _detect(fixture, baseline).level
        for name, (fixture, baseline) in detection_baselines.items()
    }
    ok = levels == PINNED_DETECTION_LEVEL
    report(
        "5b pinned-regression",
        ok,
        f"detected {levels}, pinned {PINNED_DETECTION_LEVEL}",
    )
    assert ok


def test_criterion_5c_detection_band_fresh_seeds(detection_baselines):
    in_band = 0
    runs = 0
    spec_of = {"three_balls": COX_THREE_BALLS, "four_balls": COX_FOUR_BALLS}
    levels_seen = []
    for name, (fixture, baseline) in detection_baselines.items():
        for i in range(25):
            s = gen_cox_balls(
                spec_of[name], WINDOW_200, 2, derive_seed(FRESH_COX_SEEDS[name], i)
            )
            level = _detect(s, baseline).level
            levels_seen.append(level)
            runs += 1
            if level is not None and 3 <= level <= 9:
                in_band += 1
    ok = in_band >= 0.9 * runs
    report(
        "5c detection-band",
        ok,
        f"{in_band}/{runs} fresh-seed detections in [3, 9]; levels {sorted(set(levels_seen), key=str)}",
    )
    assert ok


def test_criterion_5d_matched_null_rate(detection_baselines):
    """As stated: matched Poisson targets against the same baseline must
    come out 'none' in >= 90% of runs.

    The tau rule alone fails this: at the last merge levels only a few
    pairs are averaged, and the level-k baseline mixes seeds that terminate
    there with seeds that do not, so a Poisson target's rel-increase exceeds
    tau = 0.3 by chance in about one run in five. The detector lets the tau
    rule's level stand only if a global Monte Carlo test against the 20
    baseline seeds rejects at alpha = 0.05 (chn2.stats.ALPHA), which bounds
    the false-alarm rate by alpha. Fires are persisted; the file is removed when none.
    """
    nones = 0
    runs = 0
    fired = []
    for name, (fixture, baseline) in detection_baselines.items():
        lam = fixture.n / WINDOW_200.volume
        for i in range(25):
            s = gen_poisson(lam, WINDOW_200, 2, derive_seed(FRESH_POISSON_SEEDS[name], i))
            result = _detect(s, baseline)
            runs += 1
            if result.level is None:
                nones += 1
            else:
                fired.append(
                    {
                        "config": name,
                        "seed_index": i,
                        "level": result.level,
                        "rel_increase": round(result.rel_increase[result.level], 3),
                    }
                )
    fires_file = ARTIFACTS / "criterion5d_null_fires.json"
    if fired:
        with open(fires_file, "w") as fh:
            json.dump(fired, fh, indent=1)
    else:
        fires_file.unlink(missing_ok=True)
    ok = nones >= 0.9 * runs
    report(
        "5d matched-null-none-rate",
        ok,
        f"{nones}/{runs} matched Poisson runs yielded none (need >= {math.ceil(0.9 * runs)})"
        + ("" if ok else "; fires persisted to _artifacts/criterion5d_null_fires.json"),
    )
    assert ok, f"only {nones}/{runs} null runs yielded none"


def test_criterion_6_scale_translation_invariance():
    rng = np.random.default_rng(99)
    failures = []
    for i in range(50):
        d = 1 + i % 3
        n = int(rng.integers(10, 600))
        side = 50.0
        pts = rng.uniform(0, side, size=(n, d))
        base = Sample(pts, Window(np.zeros(d), np.full(d, side)), d,
                      {"kind": "manual"}, i)
        h = build_hierarchy(base)
        variants = []
        for c in (0.5, 3.0, 10.0):
            w = Window(np.zeros(d), np.full(d, side * c))
            variants.append(Sample(pts * c, w, d, {"kind": "manual"}, i))
        shift = 17.25
        w = Window(np.full(d, shift), np.full(d, side + shift))
        variants.append(Sample(pts + shift, w, d, {"kind": "manual"}, i))
        for v in variants:
            hv = build_hierarchy(v)
            same = (
                h.termination == hv.termination
                and len(h.levels) == len(hv.levels)
                and all(
                    np.array_equal(a.successor, b.successor)
                    and np.array_equal(a.pairs, b.pairs)
                    for a, b in zip(h.levels, hv.levels)
                )
                and [g.parent.tolist() for g in h.levels[1:]]
                == [g.parent.tolist() for g in hv.levels[1:]]
            )
            if not same:
                failures.append(i)
    ok = not failures
    report(
        "6 scale-translation-invariance",
        ok,
        f"50 samples x (3 scales + translation), {len(failures)} mismatches",
    )
    assert ok, failures


def test_criterion_7_oracle_equivalence(rng):
    mismatches = 0
    row_mismatches = rows = 0
    for trial in range(100):
        n = int(rng.integers(2, 501))
        d = 1 + trial % 3
        w = Window(np.zeros(d), np.full(d, 10.0))
        metric = EUCLID if trial % 2 == 0 else Metric.torus(w)
        coords = rng.uniform(0, 10.0, size=(n, d))
        groups = rng.integers(0, max(2, n // 4), size=n)
        index = NnIndex(coords, groups, metric)
        if np.unique(groups).size > 1:
            succ, _ = index.successor_map()
            want, _ = oracle_successor_map(coords, groups, metric)
            row_mismatches += int(np.count_nonzero(succ != want))
            rows += n
        for _ in range(5):
            q = rng.uniform(0, 10.0, size=d)
            own = int(rng.integers(0, max(2, n // 4)))
            want = oracle_nearest_foreign(coords, groups, q, own, metric)
            if want is None:
                continue
            got_entry, _, _ = nearest_foreign(index, q, own)
            if got_entry != want[1]:
                mismatches += 1
    chain_mismatches = 0
    for trial in range(30):
        m = int(rng.integers(2, 16))
        n_edges = int(rng.integers(0, 5))
        pts = rng.uniform(-1.5, 1.5, size=(m, int(rng.integers(1, 4))))
        pts[0] = 0.0
        if count_chains_from_origin(pts, n_edges, 1.0) != oracle_count_chains(
            pts, n_edges, 1.0
        ):
            chain_mismatches += 1
    ok = mismatches == 0 and row_mismatches == 0 and chain_mismatches == 0
    report(
        "7 oracle-equivalence",
        ok,
        f"nearest-neighbor mismatches {mismatches}/500 queries, "
        f"successor-map mismatches {row_mismatches}/{rows} rows, "
        f"chain-count mismatches {chain_mismatches}/30 sets",
    )
    assert ok


def test_even_closed_form_cross_check():
    # Direct substitution checks used by the criterion-3 targets.
    assert expected_chain_count_formula(1.0, 1.0, 2, 2) == pytest.approx(math.pi**2)
    assert expected_chain_count_formula(1.0, 1.0, 2, 4) == pytest.approx(math.pi**4 / 2)
