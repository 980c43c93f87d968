"""Command-line entry point.

Subcommands: generate (poisson | binomial | cox), cluster, stats, baseline,
detect, chains. Structured artifacts are JSON, tabular outputs are CSV.
Every command is deterministic given its full flag set. CHN2_THREADS sets
the threads, at most the usable CPUs, of each job over more than 8,192
points made on the main thread: a tree query, or blocks of baseline seeds
or chain trials. Other jobs run on one thread; no output depends on it.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import chains as chainmod
from . import stats as statsmod
from .geometry import Metric, Window
from .hierarchy import build_hierarchy, genealogy_newick, load_hierarchy, save_hierarchy
from .pointprocess import (
    CoxBallSpec,
    gen_binomial,
    gen_cox_balls,
    gen_poisson,
    load_sample,
    save_sample,
)


def parse_window(text: str) -> Window:
    """Comma-separated lo then hi per axis, e.g. '0,0,110,110' in 2-D."""
    vals = [float(v) for v in text.split(",") if v.strip() != ""]
    if len(vals) % 2 or not vals:
        raise ValueError(f"window needs an even number of coordinates, got {text!r}")
    d = len(vals) // 2
    return Window(np.asarray(vals[:d]), np.asarray(vals[d:]))


def parse_centers(text: str) -> np.ndarray:
    """Semicolon-separated coordinate tuples, e.g. '60,60;140,80'."""
    rows = [
        [float(v) for v in chunk.split(",")]
        for chunk in text.split(";")
        if chunk.strip()
    ]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError(f"malformed centers: {text!r}")
    return np.asarray(rows, dtype=float)


def parse_radius_range(text: str) -> tuple[float, float]:
    """'r_min,r_max', exactly two numbers."""
    try:
        r_min, r_max = (float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--radius-range needs two numbers r_min,r_max, got {text!r}") from None
    return r_min, r_max


def parse_seed_range(text: str):
    """'a..b' inclusive, or a single seed."""
    a, dots, b = text.partition("..")
    try:
        lo, hi = int(a), int(b if dots else a)
    except ValueError:
        raise ValueError(f"--seeds takes a..b or one seed, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def metric_for(name: str, window: Window) -> Metric:
    return Metric.torus(window) if name == "torus" else Metric.euclidean()


# The generate flags that one process alone reads (--lambda has a default).
_READ_ONLY_BY = {
    "count": "binomial", "centers": "cox", "radii": "cox",
    "center_intensity": "cox", "radius_range": "cox",
}


def cmd_generate(args) -> int:
    for dest, process in _READ_ONLY_BY.items():
        if getattr(args, dest) is not None and args.process != process:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{args.process} does not read {flag} (only {process} does)")
    window = parse_window(args.window)
    if args.process == "poisson":
        sample = gen_poisson(args.lam, window, window.dim, args.seed)
    elif args.process == "binomial":
        if args.count is None:
            raise ValueError("binomial needs --count")
        sample = gen_binomial(args.count, window, window.dim, args.seed)
    else:
        spec = CoxBallSpec(
            lam=args.lam,
            centers=None if args.centers is None else parse_centers(args.centers),
            radii=None if args.radii is None else [float(v) for v in args.radii.split(",")],
            center_intensity=args.center_intensity,
            radius_range=None if args.radius_range is None
            else parse_radius_range(args.radius_range),
        )
        sample = gen_cox_balls(spec, window, window.dim, args.seed)
    if sample.n == 0:
        print("warning: the sample is empty", file=sys.stderr)
    save_sample(sample, args.out)
    print(f"wrote {sample.n} points to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    sample = load_sample(args.input)
    metric = metric_for(args.metric, sample.window)
    h = build_hierarchy(sample, metric)
    save_hierarchy(h, args.out)
    print(
        f"wrote hierarchy ({len(h.levels)} levels, termination={h.termination}) to {args.out}"
    )
    if args.newick:
        with open(args.newick, "w", encoding="utf-8") as fh:
            fh.write(genealogy_newick(h))
        print(f"wrote newick genealogy to {args.newick}")
    return 0


def cmd_stats(args) -> int:
    h = load_hierarchy(args.hierarchy)
    rows = statsmod.level_stats(h)
    statsmod.write_levels_csv(rows, args.out)
    print(f"wrote {len(rows)} level rows to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    window = parse_window(args.window)
    metric = metric_for(args.metric, window)
    seeds = parse_seed_range(args.seeds)
    baseline = statsmod.poisson_baseline(
        window,
        expected_count=args.count,
        n_seeds=len(seeds),
        metric=metric,
        seeds=seeds,
    )
    statsmod.write_baseline_csv(baseline, seeds, args.out)
    print(f"wrote baseline series ({len(baseline.values)} levels) to {args.out}")
    return 0


def cmd_detect(args) -> int:
    target = statsmod.read_series_csv(args.target)
    baseline = statsmod.read_baseline_csv(args.baseline)
    cfg = statsmod.DetectorConfig(tau=args.tau)
    result = statsmod.detect_against_baseline(target, baseline, cfg)
    t, b = statsmod.align_series(target, baseline.values)
    statsmod.write_detector_csv(t, b, result, args.out)
    m = baseline.n_seeds
    if result.rule == "monte-carlo":
        how = (
            f"(monte-carlo rule: p = {result.p_value:.3g} against {m} seed "
            f"series, alpha {statsmod.ALPHA:g})"
        )
    else:
        how = (
            f"(tau rule: {m} seed series; the Monte Carlo test needs at least "
            f"{statsmod.MIN_SEEDS})"
        )
    if result.detected:
        print(f"aggregation detected at level {result.level} {how}")
    else:
        print(f"no aggregation detected {how}")
    return 0


# The chains flags that mc mode alone reads, with their defaults there.
_MC_DEFAULTS = {"trials": 10_000, "seed": 0}


def cmd_chains(args) -> int:
    for dest, default in _MC_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.mode != "mc":
            raise ValueError(f"{args.mode} does not read --{dest} (only mc does)")
    # Every configuration is checked, then --out opened, before any trial is drawn.
    rows = []
    for n in args.n:
        closed = chainmod.expected_chain_count_formula(args.lam, args.R, args.dim, n)
        recursive = chainmod.expected_chain_count_recursive(args.lam, args.R, args.dim, n)
        cfg = None
        if args.mode == "mc":
            cfg = chainmod.ChainCountConfig(
                lam=args.lam, R=args.R, d=args.dim, n=n, trials=args.trials, seed=args.seed
            )
            chainmod.check_budget(cfg)
        rows.append((n, closed, recursive, cfg))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        rows = [
            (n, closed, recursive, *chainmod.mc_chain_count(cfg), cfg.trials) if cfg
            else (n, closed, recursive, "", "", "")
            for n, closed, recursive, cfg in rows
        ]
        writer = csv.writer(out)
        writer.writerow(["n", "closed_form", "recursive", "mc_mean", "mc_stderr", "trials"])
        for row in rows:
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chn2",
        description="Clustroid hierarchical nearest-neighbor clustering on point samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a sample file")
    g.add_argument("process", choices=["poisson", "binomial", "cox"])
    g.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="intensity (poisson, cox)")
    g.add_argument("--count", type=int, help="fixed count (binomial)")
    g.add_argument("--window", required=True, help="lo,...,hi,... per axis")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--centers", help="cox fixed mode: 'x,y;x,y;...'")
    g.add_argument("--radii", help="cox fixed mode: 'r1,r2,...'")
    g.add_argument("--center-intensity", type=float, help="cox random mode")
    g.add_argument("--radius-range", help="cox random mode: 'r_min,r_max'")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("cluster", help="build the hierarchy for a sample file")
    c.add_argument("--input", required=True)
    c.add_argument("--metric", choices=["euclidean", "torus"], default="euclidean")
    c.add_argument("--out", required=True)
    c.add_argument("--newick", help="also write the genealogy dendrogram")
    c.set_defaults(func=cmd_cluster)

    s = sub.add_parser("stats", help="per-level statistics CSV for a hierarchy")
    s.add_argument("--hierarchy", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_stats)

    b = sub.add_parser("baseline", help="seed-averaged Poisson mean-distance series")
    b.add_argument("--window", required=True)
    b.add_argument("--count", type=float, required=True,
                   help="expected point count matching the target sample")
    b.add_argument("--seeds", required=True, help="'a..b' (inclusive) or one seed")
    b.add_argument("--metric", choices=["euclidean", "torus"], default="euclidean")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_baseline)

    d = sub.add_parser(
        "detect",
        help="ratio-jump detection target vs baseline, behind a global Monte "
        "Carlo test when the baseline CSV carries enough per-seed columns",
    )
    d.add_argument("--target", required=True, help="levels CSV of the target")
    d.add_argument("--baseline", required=True,
                   help="baseline CSV, or a levels CSV read as a one-seed baseline")
    d.add_argument("--tau", type=float, default=0.3)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_detect)

    ch = sub.add_parser("chains", help="expected/Monte-Carlo chain counts")
    ch.add_argument("mode", choices=["mc", "formula"])
    ch.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ch.add_argument("--R", type=float, default=1.0)
    ch.add_argument("--dim", type=int, default=2)
    ch.add_argument("--n", type=int, nargs="+", required=True)
    ch.add_argument("--trials", type=int, help="mc only (default 10000)")
    ch.add_argument("--seed", type=int, help="mc only (default 0)")
    ch.add_argument("--out")
    ch.set_defaults(func=cmd_chains)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, RecursionError) as exc:
        # a MemoryError, for one, usually has no message of its own
        what = "out of memory" if isinstance(exc, MemoryError) else "failed"
        message = str(exc) or f"{what} ({type(exc).__name__})"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
