"""The benchmark reaches into the package, so a change that breaks what it
reads fails here and not only under a benchmark run: the tracer
(bench/spans.py) wraps package functions by name, and every name it looks up
must exist where it looks; the workloads (bench/workloads.py) call the
package and read its results, and every workload must pass its own gate."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = BENCH / "workloads.py"


def test_every_traced_site_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.SITES
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans.SITES
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_workload_passes_its_gate_at_tiny_size(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    failures = {}
    for name in workloads.WORKLOADS:
        params = workloads.params_for(name, tiny=True)
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.make_inputs(params, 1, workdir)
        job = workloads.run_job(params, 1, workdir)
        while True:  # a generator that pauses between phases
            try:
                next(job)
            except StopIteration as done:
                out = done.value
                break
        failures[name] = workloads.check_job(params, out)[0]
    assert failures == {name: [] for name in workloads.WORKLOADS}
