"""The benchmark tracer (bench/spans.py) wraps package functions by name;
every name it looks up must exist where it looks, so that renaming a traced
function fails here and not only under a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
