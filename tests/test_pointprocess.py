import copy
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chn2.geometry import Window
from chn2.pointprocess import (
    CoxBallSpec,
    Sample,
    _first_draws,
    SampleError,
    derive_seed,
    gen_binomial,
    gen_cox_balls,
    gen_poisson,
    load_json,
    load_sample,
    save_sample,
)
from conftest import (
    PINNED_INDICES,
    PINNED_SEEDS,
    SECOND_WORD_INDICES,
    oracle_child_seed,
)

UNIT_SQ = Window([0.0, 0.0], [1.0, 1.0])


def test_poisson_zero_intensity_empty():
    s = gen_poisson(0.0, UNIT_SQ, 2, seed=1)
    assert s.n == 0


def test_poisson_negative_intensity_errors():
    with pytest.raises(SampleError):
        gen_poisson(-1.0, UNIT_SQ, 2, seed=1)


def test_poisson_mean_count_statistical():
    # lam=100 on the unit square: the mean count over 1000 seeds should sit
    # within 3 * sqrt(100)/sqrt(1000) of 100.
    counts = [gen_poisson(100.0, UNIT_SQ, 2, seed=s).n for s in range(1000)]
    mean = np.mean(counts)
    assert abs(mean - 100.0) <= 3 * math.sqrt(100.0) / math.sqrt(1000.0)


def test_poisson_determinism():
    a = gen_poisson(50.0, UNIT_SQ, 2, seed=42)
    b = gen_poisson(50.0, UNIT_SQ, 2, seed=42)
    assert a.n == b.n
    assert np.array_equal(a.points, b.points)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_binomial_counts():
    assert gen_binomial(0, UNIT_SQ, 2, seed=3).n == 0
    with pytest.raises(SampleError, match="count must be nonnegative"):
        gen_binomial(-1, UNIT_SQ, 2, seed=3)
    # about five floats wide: ten draws cannot all differ
    tiny = Window([1.0], [1.000000000000001])
    with pytest.raises(SampleError, match="only [0-9] of 10 uniform draws are distinct"):
        gen_binomial(10, tiny, 1, seed=3)
    one = gen_binomial(1, UNIT_SQ, 2, seed=3)
    assert one.n == 1
    assert one.window.contains(one.points).all()


def test_binomial_intensity_one():
    side = math.sqrt(12000.0)
    w = Window([0.0, 0.0], [side, side])
    s = gen_binomial(12000, w, 2, seed=5)
    assert s.n / w.volume == pytest.approx(1.0, rel=1e-9)


def test_cox_single_ball_mean_count():
    # One r=3 ball fully inside the window: mean count ~ lam * pi * r^2.
    w = Window([0.0, 0.0], [20.0, 20.0])
    spec = CoxBallSpec(lam=2.0, centers=np.array([[10.0, 10.0]]), radii=np.array([3.0]))
    counts = [gen_cox_balls(spec, w, 2, seed=s).n for s in range(300)]
    expect = 2.0 * math.pi * 9.0
    stderr = math.sqrt(expect / 300)
    assert abs(np.mean(counts) - expect) <= 3 * stderr


def test_cox_membership_invariant():
    w = Window([0.0, 0.0], [50.0, 50.0])
    spec = CoxBallSpec(
        lam=1.0,
        centers=np.array([[10.0, 10.0], [40.0, 35.0]]),
        radii=np.array([5.0, 8.0]),
    )
    s = gen_cox_balls(spec, w, 2, seed=9)
    assert s.n > 0
    d1 = np.linalg.norm(s.points - [10.0, 10.0], axis=1)
    d2 = np.linalg.norm(s.points - [40.0, 35.0], axis=1)
    assert np.all((d1 <= 5.0) | (d2 <= 8.0))


def test_cox_fixture_scale():
    from chn2.fixtures import cox_fixture

    s = cox_fixture("three_balls")
    assert 1700 <= s.n <= 2300
    s2 = cox_fixture("four_balls")
    assert 2200 <= s2.n <= 2800
    with pytest.raises(ValueError, match="unknown fixture 'nope'"):
        cox_fixture("nope")


def test_cox_empty_region_warns_not_raises():
    w = Window([0.0, 0.0], [10.0, 10.0])
    spec = CoxBallSpec(lam=1.0, centers=np.array([[50.0, 50.0]]), radii=np.array([2.0]))
    s = gen_cox_balls(spec, w, 2, seed=1)
    assert s.n == 0
    assert "warning" not in s.to_json()


def test_cox_random_mode_runs():
    w = Window([0.0, 0.0], [30.0, 30.0])
    spec = CoxBallSpec(lam=1.0, center_intensity=0.005, radius_range=(2.0, 4.0))
    a = gen_cox_balls(spec, w, 2, seed=7)
    b = gen_cox_balls(spec, w, 2, seed=7)
    assert np.array_equal(a.points, b.points)
    assert a.generator["mode"] == "random"


COX_SPEC_REFUSALS = [
    ({"centers": [[0.0, 0.0]]}, "fixed mode needs radii"),
    ({"radii": [2.0]}, "fixed mode needs centers"),
    ({"centers": np.array([[0.0, 0.0]]), "radii": np.array([1.0, 2.0])}, "one radius per center"),
    ({}, "random mode needs center_intensity and radius_range"),
    ({"centers": [[0.0, 0.0], [1.0, 1.0]], "radii": [1.0, 0.0]}, "radii positive and finite"),
    ({"centers": [[0.0, 0.0]], "radii": [-1.0]}, "radii positive and finite"),
    ({"centers": [[0.0, 0.0]], "radii": [math.inf]}, "radii positive and finite"),
    ({"centers": [[0.0, 0.0]], "radii": [math.nan]}, "radii positive and finite"),
    ({"centers": [[math.nan, math.nan]], "radii": [5.0]}, "centers must be finite"),
    ({"centers": [[0.0, 0.0], [math.inf, 1.0]], "radii": [1.0, 1.0]}, "centers must be finite"),
    ({"center_intensity": 0.1, "radius_range": (2.0, 1.0)}, "0 < r_min <= r_max < inf"),
    ({"center_intensity": 0.1, "radius_range": (0.0, 1.0)}, "0 < r_min <= r_max < inf"),
    ({"center_intensity": 0.1, "radius_range": (1.0, math.inf)}, "0 < r_min <= r_max < inf"),
    ({"center_intensity": 0.1, "radius_range": (1.0, math.nan)}, "0 < r_min <= r_max < inf"),
    ({"center_intensity": -1.0, "radius_range": (1.0, 2.0)}, "center_intensity must be nonneg"),
    ({"center_intensity": math.nan, "radius_range": (1.0, 2.0)}, "center_intensity must be"),
    # fields of both modes
    ({"centers": [[5.0, 5.0]], "radii": [2.0], "center_intensity": 5.0,
      "radius_range": (1.0, 2.0)}, "not both"),
    ({"centers": [[5.0, 5.0]], "radii": [2.0], "center_intensity": 5.0}, "not both"),
    ({"radii": [2.0], "radius_range": (1.0, 2.0)}, "not both"),
]


def test_cox_spec_validation():
    for fields, words in COX_SPEC_REFUSALS:
        with pytest.raises(SampleError, match=re.escape(words)):
            CoxBallSpec(lam=1.0, **fields)


def test_cox_center_dimension_must_match():
    spec = CoxBallSpec(lam=1.0, centers=[[1.0, 1.0, 1.0]], radii=[1.0])
    with pytest.raises(SampleError, match="center dimension does not match dim"):
        gen_cox_balls(spec, UNIT_SQ, 2, seed=1)


@pytest.mark.parametrize("generate", [
    lambda seed: gen_poisson(1.0, UNIT_SQ, 2, seed),
    lambda seed: gen_binomial(3, UNIT_SQ, 2, seed),
    lambda seed: gen_cox_balls(CoxBallSpec(lam=1.0, centers=[[0.5, 0.5]], radii=[0.5]),
                               UNIT_SQ, 2, seed),
    lambda seed: derive_seed(seed, 0),
])
def test_negative_seed_refused_in_own_words(generate):
    generate(0)
    with pytest.raises(SampleError, match="^seeds must be nonnegative, got -1$"):
        generate(-1)


def test_poisson_mean_beyond_numpy_range_refused_in_own_words():
    for lam in (math.inf, 1e300):
        with pytest.raises(SampleError, match="expected point count .* is too large to draw"):
            gen_poisson(lam, UNIT_SQ, 2, seed=1)
        with pytest.raises(SampleError, match="expected point count .* is too large to draw"):
            gen_cox_balls(CoxBallSpec(lam=lam, centers=[[0.5, 0.5]], radii=[0.5]),
                          UNIT_SQ, 2, seed=1)
    spec = CoxBallSpec(lam=1.0, center_intensity=1e300, radius_range=(1.0, 2.0))
    with pytest.raises(SampleError, match="expected center count .* is too large to draw"):
        gen_cox_balls(spec, UNIT_SQ, 2, seed=1)


@pytest.mark.parametrize("mode", [
    {"centers": np.array([[5.0, 5.0]]), "radii": np.array([2.0])},
    {"center_intensity": 0.05, "radius_range": (1.0, 2.0)},
])
def test_cox_intensity_zero_is_empty_negative_and_nan_refused(mode):
    # As gen_poisson: lam = 0 is an empty sample, not an error.
    s = gen_cox_balls(CoxBallSpec(lam=0.0, **mode), Window([0.0, 0.0], [10.0, 10.0]), 2, seed=3)
    assert s.n == 0 and s.generator["lambda"] == 0.0
    for lam in (-1.0, float("nan")):
        with pytest.raises(SampleError, match="cox intensity lam must be nonnegative"):
            CoxBallSpec(lam=lam, **mode)


def test_sample_json_roundtrip(tmp_path):
    # Points go to JSON as one flat row-major list, and come back as rows,
    # through the object and through a file alike.
    for d in (1, 2, 3):
        window = Window(np.zeros(d), np.ones(d))
        for n in (0, 1, 2000):
            s = gen_binomial(n, window, d, seed=11 + n)
            obj = json.loads(json.dumps(s.to_json()))
            assert set(obj) >= {"dim", "window", "seed", "generator", "points"}
            assert obj["points"] == s.points.ravel().tolist() and len(obj["points"]) == n * d
            save_sample(s, tmp_path / "s.json")
            for back in (Sample.from_json(obj), load_sample(tmp_path / "s.json")):
                assert back.points.shape == (n, d) and np.array_equal(back.points, s.points)
                assert back.seed == s.seed
                assert json.dumps(back.to_json()) == json.dumps(s.to_json())


def test_sample_seed_past_64_bits_round_trips(tmp_path):
    # orjson reads an integer past 2^64 as a float; the loader reads it as
    # json.loads does, an int, and keeps the file's text.
    seed = PINNED_SEEDS[-1]
    assert seed == 2**140 + 7
    s = gen_poisson(50.0, UNIT_SQ, 2, seed=seed)
    save_sample(s, tmp_path / "s.json")
    back = load_sample(tmp_path / "s.json")
    assert type(back.seed) is int and back.seed == seed
    assert back.points.tobytes() == s.points.tobytes()
    assert back.file_text == (tmp_path / "s.json").read_text().strip()


def test_generator_integers_past_64_bits_stay_ints(tmp_path):
    # orjson reads an integer outside [-2^63, 2^64) as a float; the loader
    # reads it as json.loads does, an int, at any depth of the generator.
    generator = {"wide": 2**64, "low": -2**63 - 1, "edges": [2**64 - 1, -2**63],
                 "deep": {"n": [2**140 + 7]}}
    save_sample(Sample(np.array([[0.25, 0.5]]), UNIT_SQ, 2, generator, 7), tmp_path / "s.json")
    back = load_sample(tmp_path / "s.json")
    assert back.generator == generator and back.file_text is not None
    assert type(back.generator["wide"]) is int and type(back.generator["deep"]["n"][0]) is int


def test_lone_surrogate_in_the_generator_loads(tmp_path):
    # json.loads reads the escape of a lone surrogate, which orjson refuses.
    (tmp_path / "s.json").write_text(
        '{"dim": 2, "window": {"lo": [0, 0], "hi": [1, 1]}, "seed": 7, '
        '"generator": {"note": "\\ud800x"}, "points": [0.25, 0.5]}'
    )
    back = load_sample(tmp_path / "s.json")
    assert back.generator == {"note": "\ud800x"}
    assert back.file_text == (tmp_path / "s.json").read_text()


def _same_json(a, b) -> bool:
    """Whether two decoded JSON values are equal, with the same types and
    floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same_json(a[k], b[k]) for k in a)
    return a == b


_WIDE_INTEGERS = st.one_of(
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 2**140 + 7]),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _WIDE_INTEGERS | st.floats()
    | st.text(st.characters(blacklist_categories=())),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(st.characters(blacklist_categories=()), max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    generator=st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4),
    seed=_WIDE_INTEGERS,
    points=st.lists(st.floats(0.0, 1.0), unique=True, max_size=6),
    ensure_ascii=st.booleans(),
)
def test_load_json_reads_what_json_loads_reads(generator, seed, points, ensure_ascii, tmp_path):
    # A sample file of any generator, seed and repr-float points: the object
    # the loader validates is the one json.loads decodes, floats bit for bit.
    doc = {"dim": 1, "window": {"lo": [0], "hi": [1]}, "seed": seed,
           "generator": generator, "points": points}
    text = json.dumps(doc, ensure_ascii=ensure_ascii)
    try:
        (tmp_path / "doc.json").write_text(text, encoding="utf-8")
    except UnicodeEncodeError:  # a lone surrogate is written only escaped
        assume(False)
    seen = []
    loaded = load_json(
        tmp_path / "doc.json",
        lambda obj, text: seen.append(obj) or Sample.from_json(obj),
        SampleError,
    )
    assert _same_json(seen[-1], json.loads(text))
    assert _same_json(loaded.generator, json.loads(text)["generator"])
    assert loaded.points.ravel().tobytes() == np.array(points, float).tobytes()


def test_loaded_sample_arrays_are_read_only(tmp_path):
    # The kept file text must stay true to the sample, so a loaded sample's
    # arrays refuse writes; a caller's own array is left writable.
    points = np.random.default_rng(3).uniform(0, 1, size=(20, 2))
    s = Sample(points, UNIT_SQ, 2, {"kind": "manual"}, 0)
    assert s.file_text is None and points.flags.writeable
    save_sample(s, tmp_path / "s.json")
    loaded = load_sample(tmp_path / "s.json")
    assert loaded.file_text is not None
    with pytest.raises(ValueError):
        loaded.points[0, 0] = 0.5
    with pytest.raises(ValueError):
        loaded.window.lo[0] = -1.0
    assert np.array_equal(loaded.points, points)


def test_sample_dimensions_must_match():
    with pytest.raises(SampleError, match=r"points must be an \(n, 3\) array"):
        Sample(np.zeros((2, 2)), UNIT_SQ, 3, {}, 0)
    with pytest.raises(SampleError, match="window dimension does not match sample dimension"):
        Sample(np.zeros((2, 3)), UNIT_SQ, 3, {}, 0)
    for generate in (gen_poisson, gen_binomial):
        with pytest.raises(SampleError, match="window dimension does not match dim"):
            generate(1, UNIT_SQ, 3, 0)
    spec = CoxBallSpec(lam=1.0, centers=[[0.5, 0.5]], radii=[0.5])
    with pytest.raises(SampleError, match="window dimension does not match dim"):
        gen_cox_balls(spec, UNIT_SQ, 3, 0)


def test_sample_reader_validates():
    s = gen_poisson(20.0, UNIT_SQ, 2, seed=11)
    obj = s.to_json()
    obj["points"][0:2] = [5.0, 5.0]  # outside the unit square
    with pytest.raises(SampleError):
        Sample.from_json(obj)
    obj2 = s.to_json()
    obj2["points"][2:4] = obj2["points"][0:2]
    with pytest.raises(SampleError):
        Sample.from_json(obj2)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(points=["0.5", True, False, "0.25"]),
        lambda obj: obj.update(points=[0.5, True, 0.0, 0.25]),
        lambda obj: obj.update(points=[0.5, None, 0.0, 0.25]),
        lambda obj: obj.update(points=[0.5, 0.75, 0.0]),  # three coordinates in 2-D
        lambda obj: obj.update(points=[10**400, 0.75]),  # no float holds it
        lambda obj: obj.update(points="0.5"),
        lambda obj: obj["window"].update(lo=["0", 0]),
        lambda obj: obj["window"].update(hi=[1, True]),
        lambda obj: obj.update(seed="7"),
        lambda obj: obj.update(seed=7.0),
        lambda obj: obj.update(dim=True),
        lambda obj: obj.update(generator=[["a", 1]]),
        # the nested layout of earlier files, also with rows of dim numbers
        lambda obj: obj.update(points=[[0.5, 0.75], [0, 0.25]]),
        lambda obj: obj.update(points=[[0.5, 0.75, 0, 0.25]]),
        lambda obj: obj.update(points=[[]]),
        # a length that is not a multiple of dim, and no dim at all
        lambda obj: obj.update(dim=3),
        lambda obj: obj.update(dim=0),
        lambda obj: obj.update(dim=-2),
        lambda obj: obj.update(dim=0, points=[]),
    ],
)
def test_sample_reader_takes_only_json_numbers(edit):
    obj = {
        "dim": 2, "window": {"lo": [0, 0], "hi": [1.0, 1]}, "seed": 7,
        "generator": {"kind": "manual"}, "points": [0.5, 0.75, 0, 0.25],
    }
    assert Sample.from_json(copy.deepcopy(obj)).points.tolist() == [[0.5, 0.75], [0.0, 0.25]]
    edit(obj)
    with pytest.raises(SampleError) as err:
        Sample.from_json(obj)
    assert "\n" not in str(err.value)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    assert derive_seed(5, 0) != derive_seed(5, 1)
    assert derive_seed(6, 0) != derive_seed(5, 0)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_derive_seed_is_numpys_seed_sequence(seed):
    indices = PINNED_INDICES + SECOND_WORD_INDICES
    want = [oracle_child_seed(seed, t) for t in indices]
    assert [derive_seed(seed, t) for t in indices] == want
    assert type(derive_seed(seed, 0)) is int


# An array of valid indices, and a bool, are refused too: one index a call.
@pytest.mark.parametrize("index", [-1, 2**64, 1.5, "7", np.array([3, -2]), np.arange(3), True])
def test_derive_seed_refuses_indices_outside_uint64(index):
    with pytest.raises(SampleError) as err:
        derive_seed(5, index)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_first_draws_match_numpy_unique(dim):
    # Tie-heavy rows: few distinct values per column, exact repeats, and
    # zeros of both signs, which compare equal. Then uniform rows with one
    # repeat; rows whose first coordinates all differ, which the first-column
    # sort settles alone; and rows that repeat only in the first coordinate,
    # some of them as -0.0 against 0.0, which it must hand on.
    rng = np.random.default_rng(dim)
    window = Window(np.full(dim, -3.0), np.full(dim, 3.0))
    refused = set()
    for trial in range(800):
        n = int(rng.integers(0, 60))
        pts = rng.integers(-2, 3, size=(n, dim)).astype(float) * rng.choice([0.5, 1.0])
        if trial % 4 == 1:
            pts = rng.uniform(-1, 1, size=(n, dim))
            if n > 1:
                pts[rng.integers(n)] = pts[rng.integers(n)]
        elif trial % 4 == 2:
            pts[:, 0] = (rng.permutation(n) - n // 2) / 32
        elif trial % 4 == 3:
            pts = rng.uniform(-1, 1, size=(n, dim))
            pts[:, 0] = rng.integers(-2, 3, size=n) / 2
        zeros = pts == 0
        pts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        want = np.sort(np.unique(pts, axis=0, return_index=True)[1]) if n else np.arange(0)
        assert np.array_equal(_first_draws(pts), want), pts
        repeats = n > 0 and len(np.unique(pts, axis=0)) != n
        refused.add(repeats)
        if repeats:
            with pytest.raises(SampleError, match="duplicate"):
                Sample(pts, window, dim, {"kind": "manual"}, 0)
        else:
            assert Sample(pts, window, dim, {"kind": "manual"}, 0).n == n
    assert refused == {True, False}
