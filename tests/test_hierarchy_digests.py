"""Bit-identity of whole hierarchies against recorded digests.

Each input below is rebuilt and hashed two ways. The array digest
(`conftest.hierarchy_array_digest`: every level's successors and pairs,
every merge column, the termination and the genealogy) is checked against
`data/hierarchy_array_digests.json`, for the built hierarchy and for the
one loaded back from its JSON. The `hierarchy_to_json` object, serialised
with `json.dumps`, is checked against `data/hierarchy_digests.json`. A
change to the total order or the exact-tie fallback moves both; a change
of the JSON layout moves only the second. Regenerate both files
(`PYTHONPATH=src python tests/test_hierarchy_digests.py`) only for a change
that is meant to alter hierarchies or the layout, and check in the diff
which of them moved.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from chn2.geometry import Metric, Window
from chn2.hierarchy import build_hierarchy, hierarchy_from_json, hierarchy_to_json
from chn2.pointprocess import Sample, gen_binomial
from conftest import hierarchy_array_digest

DIGESTS = Path(__file__).parent / "data" / "hierarchy_digests.json"
ARRAY_DIGESTS = Path(__file__).parent / "data" / "hierarchy_array_digests.json"
UNIT2 = Window([0.0, 0.0], [1.0, 1.0])


def _uniform(metric_kind):
    sample = gen_binomial(2000, UNIT2, 2, 7)
    metric = Metric.torus(UNIT2) if metric_kind == "torus" else Metric.euclidean()
    return sample, metric


def _quantised_torus():
    # The benchmark's quantised-torus input at its self-test size: uniform
    # points floored to the integer grid, duplicates dropped, ids shuffled.
    window = Window([0.0, 0.0], [95.0, 95.0])
    sample = gen_binomial(3000, window, 2, 101)
    grid = np.unique(np.floor(sample.points), axis=0)
    grid = grid[np.random.default_rng(101).permutation(len(grid))]
    return Sample(grid, window, 2, {"kind": "quantised"}, 101), Metric.torus(window)


def _lattice(metric_kind, side=30):
    xs, ys = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
    window = Window([0.0, 0.0], [float(side), float(side)])
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    sample = Sample(pts, window, 2, {"kind": "lattice"}, 0)
    metric = Metric.torus(window) if metric_kind == "torus" else Metric.euclidean()
    return sample, metric


def _d3():
    window = Window([0.0] * 3, [1.0] * 3)
    return gen_binomial(1000, window, 3, 11), Metric.euclidean()


def _line_repeated_gaps():
    gaps = np.tile([1.0, 2.0, 2.0, 1.0, 3.0], 40)
    pts = np.concatenate([[0.0], np.cumsum(gaps)]).reshape(-1, 1)
    window = Window([0.0], [float(pts[-1, 0])])
    return Sample(pts, window, 1, {"kind": "line"}, 0), Metric.euclidean()


INPUTS = {
    "uniform2k-euclidean": lambda: _uniform("euclidean"),
    "uniform2k-torus": lambda: _uniform("torus"),
    "quantised-torus-3k": _quantised_torus,
    "lattice30-euclidean": lambda: _lattice("euclidean"),
    "lattice30-torus": lambda: _lattice("torus"),
    "lattice100-euclidean": lambda: _lattice("euclidean", 100),
    "lattice100-torus": lambda: _lattice("torus", 100),
    "uniform1k-d3": _d3,
    "line-repeated-gaps": _line_repeated_gaps,
}


@functools.lru_cache(maxsize=1)
def built(name):
    return build_hierarchy(*INPUTS[name]())


def hierarchy_digest(name):
    text = json.dumps(hierarchy_to_json(built(name)))
    return hashlib.sha256(text.encode()).hexdigest()


def array_digest(name):
    return hierarchy_array_digest(built(name))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hierarchy_matches_recorded_digest(name):
    assert hierarchy_digest(name) == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hierarchy_arrays_match_recorded_digest(name):
    want = json.loads(ARRAY_DIGESTS.read_text())[name]
    assert array_digest(name) == want
    text = json.dumps(hierarchy_to_json(built(name)))
    assert hierarchy_array_digest(hierarchy_from_json(json.loads(text))) == want


if __name__ == "__main__":
    for path, digest in ((DIGESTS, hierarchy_digest), (ARRAY_DIGESTS, array_digest)):
        path.write_text(
            json.dumps({name: digest(name) for name in sorted(INPUTS)}, indent=1) + "\n"
        )
