"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload end to end, untraced and traced, at the sizes in
workloads.TINY and requires each run to pass its correctness gate. Then it
corrupts the program's output twice and requires the gate to fire: once a
level-0 successor is sent to a point that is not the nearest neighbour
(the hierarchy stays structurally valid, so only the independent level-0
check can see it), once the detection level is moved out of its band.
Last, it checks that BENCHMARK.json declares exactly the metrics the runner
reports. Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from chn2 import stats  # noqa: E402
from chn2.spatial_index import NnIndex  # noqa: E402

SEED = 1


def redirect_a_leaf(successor_map):
    """successor_map with one level-0 leaf sent to a wrong point.

    A leaf has no predecessor, so moving its edge creates no cycle and the
    one-2-cycle-per-component structure survives.
    """

    def corrupted(self):
        out, sq = successor_map(self)
        if np.array_equal(self.groups, np.arange(self.n)):
            leaf = int(np.flatnonzero(np.bincount(out, minlength=self.n) == 0)[0])
            wrong = next(j for j in range(self.n) if j not in (leaf, out[leaf]))
            out = out.copy()
            out[leaf] = wrong
        return out, sq

    return corrupted


def out_of_band(detect):
    def moved(*args, **kwargs):
        return dataclasses.replace(detect(*args, **kwargs), level=1)

    return moved


def gate_fires(name, owner, attr, corrupt, expect) -> bool:
    original = owner.__dict__[attr]
    setattr(owner, attr, corrupt(original))
    try:
        record = run.run_workload(name, SEED, 0, 0, tiny=True)
    finally:
        setattr(owner, attr, original)
    fired = (
        not record["correct"]
        and record["failed"] == record["attempted"]
        and any(expect in f for f in record["failures"])
    )
    print(f"{'PASS' if fired else 'FAIL'} gate fires on {name} ({expect!r}): "
          f"{record['failed']}/{record['attempted']} iterations failed")
    return fired


def declared_metrics_match() -> bool:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    workload_names = sorted(w["name"] for w in declared["workloads"])
    ok = (
        end_to_end == run.END_TO_END_UNITS
        and per_layer == spans.LAYER_UNITS
        and workload_names == sorted(workloads.WORKLOADS)
    )
    print(f"{'PASS' if ok else 'FAIL'} BENCHMARK.json declares the reported metrics")
    return ok


def main() -> int:
    results = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            record = run.run_workload(name, SEED, 0, trace, tiny=True)
            metrics = spans.LAYER_UNITS if trace else run.END_TO_END_UNITS
            ok = record["correct"] and set(record["metrics"]) == set(metrics)
            print(f"{'PASS' if ok else 'FAIL'} {name} trace {trace}: "
                  f"{record['attempted']} iterations, {record['failed']} failed")
            for failure in record["failures"]:
                print(f"    {failure}")
            results.append(ok)
    results.append(
        gate_fires("uniform-50k", NnIndex, "successor_map", redirect_a_leaf, "level 0")
    )
    results.append(
        gate_fires(
            "detect-cox", stats, "detect_against_baseline", out_of_band, "detection level"
        )
    )
    results.append(declared_metrics_match())
    print(f"{sum(results)}/{len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
