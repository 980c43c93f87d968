"""Spans recorded from outside the package, and the per-layer metrics built
from them.

Each traced function is replaced, at the module attribute its caller looks
it up by, with a wrapper that records a span: name, start, end, the span
that caused it, its thread, the thread CPU time it used and a count (rows,
pairs, points, ...). Spans stay in memory until the benchmark reads them.
A span opened in a worker thread with nothing open in that thread is
charged to the innermost span open in the main thread, which is the call
that started the worker (``stats.poisson_baseline``).
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import chn2.chains
import chn2.fixtures
import chn2.hierarchy
import chn2.pointprocess
import chn2.spatial_index
import chn2.stats


@dataclass(eq=False)
class Span:
    name: str
    start: float
    thread: int
    parent: "Span | None"
    end: float = 0.0
    cpu: float = 0.0
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _one(args, result):
    return 1


def _size_of_result(args, result):
    return result.n


def _index_rows(args, result):
    return args[0].n


def _points_arg(args, result):
    return len(args[0])


def _levels_of_result(args, result):
    return len(result.levels)


def _trials_arg(args, result):
    return args[0].trials


def _tree_backed(args):
    # Indexes of at most 64 entries answer every row by linear scan; only a
    # tree-backed index's calls are the exact-tie fallback.
    return not args[0]._brute


_NnIndex = chn2.spatial_index.NnIndex

# (owner, attribute, span name, count, condition): every site a traced
# function is looked up at, so calls from the package itself are seen too.
SITES = [
    (chn2.pointprocess, "gen_binomial", "pointprocess.gen", _size_of_result, None),
    (chn2.fixtures, "gen_cox_balls", "pointprocess.gen", _size_of_result, None),
    (chn2.stats, "gen_poisson", "pointprocess.gen", _size_of_result, None),
    (chn2.stats, "derive_seed", "pointprocess.derive_seed", _one, None),
    (chn2.chains, "derive_seed", "pointprocess.derive_seed", _one, None),
    (_NnIndex, "__init__", "spatial_index.NnIndex", _one, None),
    (_NnIndex, "successor_map", "spatial_index.successor_map", _index_rows, None),
    (_NnIndex, "nearest_foreign_ties", "spatial_index.fallback", _one, _tree_backed),
    (chn2.hierarchy, "level0", "hierarchy.level0", _one, None),
    (chn2.hierarchy, "nn_k_step", "hierarchy.nn_k_step", _points_arg, None),
    (chn2.hierarchy, "advance_level", "hierarchy.advance_level", _one, None),
    (chn2.hierarchy, "functional_structure", "hierarchy.functional_structure", _one, None),
    (chn2.hierarchy, "build_hierarchy", "hierarchy.build_hierarchy", _levels_of_result, None),
    (chn2.stats, "build_hierarchy", "hierarchy.build_hierarchy", _levels_of_result, None),
    (chn2.hierarchy, "save_hierarchy", "hierarchy.save", _one, None),
    (chn2.hierarchy, "load_hierarchy", "hierarchy.load", _one, None),
    (chn2.stats, "level_stats", "stats.level_stats", _one, None),
    (chn2.stats, "write_levels_csv", "stats.csv_io", _one, None),
    (chn2.stats, "read_series_csv", "stats.csv_io", _one, None),
    (chn2.stats, "write_detector_csv", "stats.csv_io", _one, None),
    (chn2.stats, "poisson_baseline", "stats.poisson_baseline", _one, None),
    (chn2.stats, "detect_against_baseline", "stats.detect", _one, None),
    (chn2.chains, "mc_chain_count", "chains.mc", _trials_arg, None),
    (chn2.chains, "count_chains_from_origin", "chains.count", _points_arg, None),
]


class Tracer:
    """Installs the span wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list = []

    def __enter__(self):
        for owner, attr, name, count, when in SITES:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, count, when))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _stack(self) -> list:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name, count, when):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, time.perf_counter(), threading.get_ident(), parent)
            cpu0 = time.thread_time()
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            span.count = count(args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """The spans closed so far, clearing the buffer."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict:
    """Each span's duration minus the part of it its children cover.

    Children in worker threads overlap each other, so the covered part is
    the length of the union of the children's intervals.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[id(s)] = s.duration - covered
    return out


# Unit of every per-layer metric, in the order the benchmark reports them.
LAYER_UNITS = {
    "pointprocess.gen_s": "s",
    "pointprocess.points_generated": "count",
    "spatial_index.index_build_s": "s",
    "spatial_index.successor_map_s": "s",
    "spatial_index.rows": "count",
    "spatial_index.fallback_s": "s",
    "spatial_index.fallback_rows": "count",
    "spatial_index.fast_path_frac": "fraction",
    "spatial_index.floor_s": "s",
    "spatial_index.successor_map_over_floor": "ratio",
    "hierarchy.level0_s": "s",
    "hierarchy.nn_k_step_s": "s",
    "hierarchy.pairs_total": "count",
    "hierarchy.advance_level_s": "s",
    "hierarchy.functional_structure_s": "s",
    "hierarchy.functional_structure_calls": "count",
    "hierarchy.levels": "count",
    "hierarchy.build_self_s": "s",
    "hierarchy.save_s": "s",
    "hierarchy.load_s": "s",
    "hierarchy.json_bytes": "bytes",
    "stats.level_stats_s": "s",
    "stats.csv_io_s": "s",
    "stats.detect_s": "s",
    "stats.poisson_baseline_s": "s",
    "stats.baseline_seed_build_s": "s",
    "stats.baseline_seed_cpu_s": "s",
    "stats.fanout_cpu_per_wall": "ratio",
    "stats.workers": "count",
    "stats.fanout_speedup": "ratio",
    "chains.mc_s": "s",
    "chains.count_s": "s",
    "chains.trials": "count",
    "chains.points_per_trial": "count",
    "chains.dist_matrix_bytes": "bytes",
    "trace_overhead_frac": "fraction",
}


def layer_metrics(spans, main_thread: int) -> dict:
    """Per-layer metrics of one traced iteration.

    Times are summed over every call (and over threads, for work done in the
    baseline's worker threads); "(self)" metrics subtract traced children.
    Metrics measured outside the spans (floor, fan-out speed-up, trace
    overhead, JSON bytes) are added by the runner.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selft = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(selft[id(s)] for s in by_name[name])

    def counted(name):
        return sum(s.count for s in by_name[name])

    rows = counted("spatial_index.successor_map")
    fallback_rows = counted("spatial_index.fallback")
    fanout = by_name["stats.poisson_baseline"]
    workers = [s for s in spans if s.thread != main_thread and s.parent in fanout]
    seed_builds = [
        s.duration for s in by_name["hierarchy.build_hierarchy"] if s.thread != main_thread
    ]
    worker_cpu = sum(s.cpu for s in workers)
    sizes = [s.count for s in by_name["chains.count"]]
    return {
        "pointprocess.gen_s": total("pointprocess.gen") + total("pointprocess.derive_seed"),
        "pointprocess.points_generated": counted("pointprocess.gen"),
        "spatial_index.index_build_s": total("spatial_index.NnIndex"),
        "spatial_index.successor_map_s": self_total("spatial_index.successor_map"),
        "spatial_index.rows": rows,
        "spatial_index.fallback_s": total("spatial_index.fallback"),
        "spatial_index.fallback_rows": fallback_rows,
        "spatial_index.fast_path_frac": 1 - fallback_rows / rows if rows else 0.0,
        "hierarchy.level0_s": total("hierarchy.level0"),
        "hierarchy.nn_k_step_s": self_total("hierarchy.nn_k_step"),
        "hierarchy.pairs_total": counted("hierarchy.nn_k_step"),
        "hierarchy.advance_level_s": self_total("hierarchy.advance_level"),
        "hierarchy.functional_structure_s": total("hierarchy.functional_structure"),
        "hierarchy.functional_structure_calls": counted("hierarchy.functional_structure"),
        "hierarchy.levels": counted("hierarchy.build_hierarchy"),
        "hierarchy.build_self_s": self_total("hierarchy.build_hierarchy"),
        "hierarchy.save_s": total("hierarchy.save"),
        "hierarchy.load_s": total("hierarchy.load"),
        "stats.level_stats_s": total("stats.level_stats"),
        "stats.csv_io_s": total("stats.csv_io"),
        "stats.detect_s": total("stats.detect"),
        "stats.poisson_baseline_s": total("stats.poisson_baseline"),
        "stats.baseline_seed_build_s": statistics.median(seed_builds) if seed_builds else 0.0,
        "stats.baseline_seed_cpu_s": worker_cpu / len(seed_builds) if seed_builds else 0.0,
        "stats.fanout_cpu_per_wall": worker_cpu / total("stats.poisson_baseline")
        if fanout
        else 0.0,
        "stats.workers": len({s.thread for s in workers}),
        "chains.mc_s": total("chains.mc"),
        "chains.count_s": total("chains.count"),
        "chains.trials": counted("chains.mc"),
        "chains.points_per_trial": sum(sizes) / len(sizes) if sizes else 0.0,
        "chains.dist_matrix_bytes": sum(8 * m * m for m in sizes),
    }


def level0_nn_time(spans, main_thread: int) -> float:
    """Index build plus successor map under the main thread's level-0 calls:
    the work the k-d tree floor is compared against."""
    level0 = [s for s in spans if s.name == "hierarchy.level0" and s.thread == main_thread]
    return sum(
        s.duration
        for s in spans
        if s.parent in level0
        and s.name in ("spatial_index.NnIndex", "spatial_index.successor_map")
    )


def functional_structure_calls_by_caller(spans) -> dict:
    """functional_structure calls made inside each build and each load."""
    out = {"hierarchy.build_hierarchy": [], "hierarchy.load": []}
    roots = {id(s): [s.name, 0] for s in spans if s.name in out}
    for s in spans:
        if s.name != "hierarchy.functional_structure":
            continue
        p = s.parent
        while p is not None and id(p) not in roots:
            p = p.parent
        if p is not None:
            roots[id(p)][1] += 1
    for name, calls in roots.values():
        out[name].append(calls)
    return out
