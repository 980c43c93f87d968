"""Benchmark of the chn2 pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload uniform-50k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else. The run generates the workload's input
from the seed (timed as set-up, in fresh interpreters), then repeats the
user-facing job until --seconds have passed, checking every iteration's
output. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer metrics.
A line per metric goes to stdout, then the result as one JSON object on the
last line; the full record, with provenance, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# A run times at least this many iterations, however long they take, so
# that run_s is a median of three; a traced run at least this many pairs of
# untraced and traced iterations.
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
FLOOR_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}


class BenchError(RuntimeError):
    pass


def import_package():
    """Import chn2 from this checkout's src directory, refusing any other copy."""
    if not (SRC / "chn2" / "__init__.py").is_file():
        raise BenchError(f"no chn2 sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chn2

    if SRC.resolve() not in Path(chn2.__file__).resolve().parents:
        raise BenchError(f"chn2 was imported from {chn2.__file__}, not from {SRC}")
    return chn2


def git_sha() -> str:
    """The checked-out commit, read from .git without running git (a checkout
    without .git, or with a detached work tree, reports 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(chn2, name, seed, seconds, trace, params) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "chn2": chn2.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "CHN2_THREADS": os.environ.get("CHN2_THREADS"),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def timed_setups(name, seed, workdir, tiny) -> list:
    """Set-up times in wall and reference seconds: each a fresh interpreter
    importing chn2 and writing the workload's input (the last one leaves the
    input in workdir)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_inputs.py"), name, str(seed), str(workdir)]
    if tiny:
        cmd.append("--tiny")
    times = []
    clock = speed.SpeedClock()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT
        )
        if done.returncode != 0:
            raise BenchError(f"set-up failed:\n{done.stderr.strip()}")
        wall = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        times.append({"wall": wall, "reference": clock.rescale(wall)})
    return times


class Iterations:
    """Outcome of the timed iterations of one run. Times are kept both as
    wall seconds and as reference seconds (see speed.py)."""

    def __init__(self, threads: int):
        self.clock = speed.SpeedClock(threads)
        self.run_wall: list[float] = []
        self.run_s: list[float] = []
        self.traced_wall: list[float] = []
        self.traced_run_s: list[float] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.digests: set[str] = set()
        self.notes: set[str] = set()
        self.artifact_bytes: set[int] = set()
        self.last_spans: list = []
        self.main_thread = 0


def one_iteration(wl, params, seed, workdir, its: Iterations, tracer=None):
    """Run, time and check one job; a traced iteration first regenerates the
    input in-process so the generators show up in the spans."""
    its.attempted += 1
    gc.collect()
    try:
        if tracer is not None:
            tracer.take()
            with tracer:
                wl.make_inputs(params, seed, workdir)
                out, elapsed, reference = its.clock.run(wl.run_job(params, seed, workdir))
            recorded = tracer.take()
        else:
            out, elapsed, reference = its.clock.run(wl.run_job(params, seed, workdir))
        failures, digest, note = wl.check_job(params, out)
        size = wl.artifact_bytes(out)
    except Exception:
        its.failed += 1
        its.failures.append(traceback.format_exc(limit=4))
        return
    if failures:
        its.failed += 1
        its.failures.extend(failures)
        return
    its.digests.add(digest)
    its.artifact_bytes.add(size)
    if note:
        its.notes.add(note)
    if tracer is None:
        its.run_wall.append(elapsed)
        its.run_s.append(reference)
        return
    import spans as tr

    its.traced_wall.append(elapsed)
    its.traced_run_s.append(reference)
    its.main_thread = tracer.main_thread
    layers = tr.layer_metrics(recorded, tracer.main_thread)
    layers["hierarchy.json_bytes"] = (
        os.path.getsize(workdir / "hierarchy.json") if params["job"] == "cluster" else 0
    )
    its.layers.append(layers)
    its.last_spans = recorded


def floor_seconds(params, workdir) -> float:
    """cKDTree build plus a k=4 query over the level-0 coordinates, periodic
    on the torus: the floor the level-0 successor map is compared against."""
    if params["job"] == "chains":
        return 0.0
    import numpy as np
    from scipy.spatial import cKDTree

    from chn2 import pointprocess

    sample = pointprocess.load_sample(workdir / "sample.json")
    pts = sample.points
    torus = params.get("metric") == "torus"
    if torus:
        period = sample.window.side_lengths
        pts = pts - sample.window.lo
        pts = np.where(pts >= period, pts - period, pts)
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        tree = cKDTree(pts, boxsize=period) if torus else cKDTree(pts)
        tree.query(pts, k=4)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fanout_speedup(params, seed, workdir) -> float:
    """Serial over parallel wall time of the job's baseline (untraced)."""
    if params["job"] != "detect":
        return 0.0
    from chn2 import pointprocess, stats

    sample = pointprocess.load_sample(workdir / "sample.json")
    walls = {}
    previous = os.environ.get("CHN2_THREADS")
    try:
        for threads in (previous, "1"):
            os.environ["CHN2_THREADS"] = threads
            t0 = time.perf_counter()
            stats.poisson_baseline(
                sample.window, sample.n, params["baseline_seeds"], master_seed=seed
            )
            walls[threads] = time.perf_counter() - t0
    finally:
        os.environ["CHN2_THREADS"] = previous
    return walls["1"] / walls[previous]


def run_workload(name, seed, seconds, trace, tiny=False) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    chn2 = import_package()
    import workloads as wl

    params = wl.params_for(name, tiny)
    workdir = OUT_DIR / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    threads_before = os.environ.get("CHN2_THREADS")
    job_threads = 1
    if params["job"] == "detect":
        # The seed fan-out runs on every core the process may use.
        job_threads = len(os.sched_getaffinity(0))
        os.environ["CHN2_THREADS"] = str(job_threads)
    try:
        setups = timed_setups(name, seed, workdir, tiny)
        its = Iterations(job_threads)
        tracer = None
        if trace:
            import spans as tr

            tracer = tr.Tracer()
        if tracer is None:
            kinds, minimum = [None], MIN_ITERATIONS
        else:
            # Traced runs alternate untraced and traced iterations after an
            # untimed warm-up, so the first-iteration cost of a fresh
            # process does not land on one side of the overhead ratio.
            kinds, minimum = [None, tracer], 2 * MIN_TRACED_PAIRS
            one_iteration(wl, params, seed, workdir, its)
            its.run_s.clear()
            its.run_wall.clear()
        deadline = time.perf_counter() + seconds
        done = 0
        while done < minimum or time.perf_counter() < deadline:
            one_iteration(wl, params, seed, workdir, its, kinds[done % len(kinds)])
            done += 1
        if len(its.digests) > 1 or len(its.artifact_bytes) > 1:
            its.failed += 1
            its.failures.append("iterations of one seed wrote different outputs")
        record = {
            "provenance": provenance(chn2, name, seed, seconds, trace, params),
            "attempted": its.attempted,
            "failed": its.failed,
            "failures": its.failures[:20],
            "digests": sorted(its.digests),
            "notes": sorted(its.notes),
            "setup_samples": setups,
            "run_wall_samples": its.run_wall,
            "run_s_samples": its.run_s,
            "traced_wall_samples": its.traced_wall,
            "traced_run_s_samples": its.traced_run_s,
            "metrics": {},
        }
        if its.failed == 0 and not trace:
            record["metrics"] = end_to_end_metrics(setups, its)
        elif its.failed == 0:
            record["metrics"] = per_layer_metrics(params, seed, workdir, its)
            record["functional_structure_calls"] = tr.functional_structure_calls_by_caller(
                its.last_spans
            )
        record["correct"] = bool(record["metrics"])
        return record
    finally:
        if threads_before is None:
            os.environ.pop("CHN2_THREADS", None)
        else:
            os.environ["CHN2_THREADS"] = threads_before
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_metrics(setups, its) -> dict:
    return {
        "setup_s": statistics.median(s["reference"] for s in setups),
        "run_s": statistics.median(its.run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_mb": next(iter(its.artifact_bytes)) / 1e6,
    }


def per_layer_metrics(params, seed, workdir, its) -> dict:
    import spans as tr

    layers = {}
    for key in its.layers[0]:
        values = [layer[key] for layer in its.layers]
        # Counts repeat exactly, so their median is one of them, kept whole.
        whole = all(isinstance(v, int) for v in values)
        layers[key] = (statistics.median_low if whole else statistics.median)(values)
    floor = floor_seconds(params, workdir)
    level0 = tr.level0_nn_time(its.last_spans, its.main_thread)
    layers["spatial_index.floor_s"] = floor
    layers["spatial_index.successor_map_over_floor"] = level0 / floor if floor else 0.0
    layers["stats.fanout_speedup"] = fanout_speedup(params, seed, workdir)
    layers["trace_overhead_frac"] = (
        statistics.median(its.traced_wall) / statistics.median(its.run_wall) - 1
    )
    return {key: layers[key] for key in tr.LAYER_UNITS}


def report(record, trace) -> dict:
    """Print one line per metric and return the driver's result object."""
    import spans as tr

    units = tr.LAYER_UNITS if trace else END_TO_END_UNITS
    prov = record["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']} trace {trace} "
          f"(chn2 {prov['chn2']} at {prov['git_sha'][:12]})")
    metrics = record["metrics"]
    for key, unit in units.items():
        if key in metrics:
            print(f"  {key:42s} {metrics[key]:>16.6g} {unit}")
    samples, walls = record["run_s_samples"], record["run_wall_samples"]
    if samples and not trace:
        print(f"  times are reference seconds (speed.py); run_s is the median of "
              f"{len(samples)} iterations, max {max(samples):.6g} s; wall median "
              f"{statistics.median(walls):.6g} s, max {max(walls):.6g} s")
    if any(record.get("functional_structure_calls", {}).values()):
        print(f"  functional_structure calls per build / load: "
              f"{record['functional_structure_calls']}")
    print(f"  ops_total {record['attempted']}  ops_failed {record['failed']}")
    for digest in record["digests"]:
        print(f"  digest sha256 {digest}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
            if key in metrics
        },
    }


def write_record(record, trace):
    prov = record["provenance"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / (
        f"BENCH_{prov['git_sha'][:12]}_{prov['workload']}_s{prov['seed']}_t{trace}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        import workloads as wl

        if args.workload not in wl.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}"
            )
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_record(record, args.trace)
    result = report(record, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
