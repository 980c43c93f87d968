"""Seeded generation of Poisson, fixed-count, and ball-union Cox samples.

Every generator is a pure function of (parameters, seed): the same inputs
reproduce the same sample bit for bit within one build of this package.
Cross-language or cross-numpy-version bit equality is not a goal. Fan-out
over many runs of one master seed (baseline seeds, chain trial groups) takes
child seeds from `derive_seed`, numpy's own SeedSequence spawn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import orjson

from .geometry import Metric, Window, is_json_numbers, sq_dist_many


class SampleError(ValueError):
    pass


def _check_seed(seed: int) -> int:
    """The seed itself; numpy seeds only nonnegative integers."""
    if seed < 0:
        raise SampleError(f"seeds must be nonnegative, got {seed!r}")
    return seed


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed `index` of `master_seed`, for fan-out over chain trial
    groups or baseline runs: numpy's
    `SeedSequence(master_seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]`.
    The index is one integer in [0, 2**64)."""
    if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
            or not 0 <= index < 2**64):
        raise SampleError("seed indices must be integers in [0, 2**64)")
    seq = np.random.SeedSequence(_check_seed(master_seed), spawn_key=(int(index),))
    return int(seq.generate_state(1, np.uint64)[0])


# The largest mean numpy's Poisson sampler accepts (its counts are int64).
_POISSON_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def _poisson_count(rng, mean: float, what: str) -> int:
    """A Poisson(mean) count of `what`s; a mean past _POISSON_MAX is refused."""
    if not mean <= _POISSON_MAX:
        raise SampleError(f"the expected {what} count {mean:.4g} is too large to draw")
    return int(rng.poisson(mean))


@dataclass(frozen=True)
class Sample:
    """A finite point configuration in a window plus generator metadata.

    Point ids are the row indices of `points` (0..n-1). All points lie in
    the window and are pairwise distinct. A sample read by `load_sample`
    may keep the file's text, which `json_text` then returns.
    """

    points: np.ndarray
    window: Window
    dim: int
    generator: dict
    seed: int
    file_text: str | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape == (0,):
            pts = pts.reshape(0, self.dim)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise SampleError(f"points must be an (n, {self.dim}) array")
        if self.window.dim != self.dim:
            raise SampleError("window dimension does not match sample dimension")
        if not np.all(np.isfinite(pts)):
            raise SampleError("points must be finite")
        if pts.shape[0] and not np.all(self.window.contains(pts)):
            raise SampleError("all points must lie inside the window")
        if len(_first_draws(pts)) != pts.shape[0]:
            raise SampleError("duplicate points are rejected at ingestion")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "window": self.window.to_json(),
            "seed": self.seed,
            "generator": self.generator,
            "points": self.points.ravel().tolist(),
        }

    def json_text(self) -> str:
        """The sample as JSON text: the text of the file it was read from,
        if any, else a fresh encoding of `to_json`, whose `points` is one
        flat row-major list [x0, y0, x1, y1, ...]."""
        if self.file_text is not None:
            return self.file_text
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "Sample":
        """The sample of a decoded sample object, whose `points` is one flat
        row-major list of `dim` numbers per point; SampleError, in one line,
        refuses anything else, the nested [[x, y], ...] layout included."""
        try:
            points, dim, seed = obj["points"], obj["dim"], obj["seed"]
            if type(dim) is not int or type(seed) is not int:
                raise TypeError("dim and seed must be integers")
            if dim < 1:
                raise SampleError(f"dim must be at least 1, got {dim}")
            if type(obj["generator"]) is not dict:
                raise TypeError("generator must be an object")
            if type(points) is not list or not is_json_numbers(points):
                raise TypeError("points must be one flat list of numbers [x0, y0, x1, y1, ...]")
            if len(points) % dim:
                raise SampleError(
                    f"points has length {len(points)}, not a multiple of dim {dim}"
                )
            return cls(
                points=np.array(points, float).reshape(-1, dim),
                window=Window.from_json(obj["window"]),
                dim=dim,
                generator=dict(obj["generator"]),
                seed=seed,
            )
        except SampleError:
            raise
        except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SampleError(
                f"malformed sample object: {type(exc).__name__}: {exc}"
            ) from exc


def _uniform_points(rng, n, window: Window) -> np.ndarray:
    return rng.uniform(window.lo, window.hi, size=(n, window.dim))


def _first_draws(pts) -> np.ndarray:
    """Ascending indices of the rows of the (n, d) array pts that repeat no
    earlier row. Rows compare by value, so -0.0 equals 0.0. Continuous
    coordinates rarely repeat, so one sort of the first column usually
    shows every row to be new."""
    first = np.sort(pts[:, 0])
    if np.all(first[1:] != first[:-1]):
        return np.arange(len(pts))
    order = np.lexsort(pts.T)  # stable: equal rows keep their draw order
    rows = pts[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.sort(order[new])


def _distinct(pts) -> np.ndarray:
    """The draws without those that repeat an earlier one, in draw order.
    Coincident draws have probability ~0 in a wide window but would create
    spurious zero-length cycles downstream; a redraw could loop forever in
    a window that holds only a few floats, or land outside a ball union."""
    return pts[_first_draws(pts)]


def gen_poisson(lam: float, window: Window, dim: int, seed: int) -> Sample:
    """Homogeneous Poisson sample: count ~ Poisson(lam * volume), uniform positions."""
    if not lam >= 0:
        raise SampleError(f"intensity must be nonnegative, got {lam!r}")
    if window.dim != dim:
        raise SampleError("window dimension does not match dim")
    rng = np.random.default_rng(_check_seed(seed))
    n = _poisson_count(rng, lam * window.volume, "point") if lam > 0 else 0
    pts = _distinct(_uniform_points(rng, n, window))
    gen = {"kind": "poisson", "lambda": lam}
    return Sample(pts, window, dim, gen, seed)


def gen_binomial(n: int, window: Window, dim: int, seed: int) -> Sample:
    """Exactly n i.i.d. uniform points in the window; SampleError if fewer
    than n of the draws are distinct."""
    if n < 0:
        raise SampleError("count must be nonnegative")
    if window.dim != dim:
        raise SampleError("window dimension does not match dim")
    rng = np.random.default_rng(_check_seed(seed))
    pts = _distinct(_uniform_points(rng, n, window))
    if pts.shape[0] < n:
        raise SampleError(f"only {pts.shape[0]} of {n} uniform draws are distinct in this window")
    gen = {"kind": "binomial", "count": n}
    return Sample(pts, window, dim, gen, seed)


@dataclass(frozen=True)
class CoxBallSpec:
    """Driving region for the ball-union Cox process.

    Fixed mode: `centers` and `radii` give the balls explicitly. Random mode:
    centers are drawn as a Poisson process of intensity `center_intensity`
    (on the window dilated by the largest possible radius, so balls whose
    centers fall just outside still contribute), with radii i.i.d. uniform
    in `radius_range`. A spec sets the fields of one mode only. `lam` is
    the point intensity inside the region.
    """

    lam: float
    centers: np.ndarray | None = None
    radii: np.ndarray | None = None
    center_intensity: float | None = None
    radius_range: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.lam >= 0:
            raise SampleError(f"cox intensity lam must be nonnegative, got {self.lam!r}")
        if (self.centers is not None or self.radii is not None) and (
            self.center_intensity is not None or self.radius_range is not None
        ):
            raise SampleError(
                "a cox spec is fixed (centers, radii) or random "
                "(center_intensity, radius_range), not both"
            )
        if self.fixed:
            if self.centers is None:
                raise SampleError("fixed mode needs centers")
            if self.radii is None:
                raise SampleError("fixed mode needs radii")
            centers = np.atleast_2d(np.asarray(self.centers, float))
            radii = np.asarray(self.radii, float)
            if centers.shape[0] != radii.size:
                raise SampleError("need one radius per center")
            if not (np.all(np.isfinite(centers)) and np.all((radii > 0) & (radii < np.inf))):
                raise SampleError("centers must be finite and radii positive and finite")
            object.__setattr__(self, "centers", centers)
            object.__setattr__(self, "radii", radii)
        else:
            if self.center_intensity is None or self.radius_range is None:
                raise SampleError("random mode needs center_intensity and radius_range")
            if not self.center_intensity >= 0:
                raise SampleError(
                    f"cox center_intensity must be nonnegative, got {self.center_intensity!r}"
                )
            r_min, r_max = self.radius_range
            if not (0 < r_min <= r_max < np.inf):
                raise SampleError("radius_range must satisfy 0 < r_min <= r_max < inf")

    @property
    def fixed(self) -> bool:
        return self.centers is not None or self.radii is not None


def _in_union_of_balls(pts, centers, radii) -> np.ndarray:
    inside = np.zeros(pts.shape[0], dtype=bool)
    for c, r in zip(centers, radii):
        inside |= sq_dist_many(pts, c, Metric()) <= r * r
    return inside


def gen_cox_balls(spec: CoxBallSpec, window: Window, dim: int, seed: int) -> Sample:
    """Cox sample: Poisson(lam) on the window, thinned to a union of balls.

    Conditioned on the balls, the result is a homogeneous Poisson process
    restricted to their union. The generator metadata records the balls
    actually used; a region that catches no point, whether or not it meets
    the window, yields an empty sample rather than an error.
    """
    if window.dim != dim:
        raise SampleError("window dimension does not match dim")
    rng = np.random.default_rng(_check_seed(seed))
    if spec.fixed:
        centers, radii = spec.centers, spec.radii
        if centers.shape[1] != dim:
            raise SampleError("center dimension does not match dim")
    else:
        r_min, r_max = spec.radius_range
        dilated = Window(window.lo - r_max, window.hi + r_max)
        m = _poisson_count(rng, spec.center_intensity * dilated.volume, "center")
        centers = _uniform_points(rng, m, dilated)
        radii = rng.uniform(r_min, r_max, size=m)

    n_all = _poisson_count(rng, spec.lam * window.volume, "point")
    candidates = _uniform_points(rng, n_all, window)
    pts = _distinct(candidates[_in_union_of_balls(candidates, centers, radii)])

    gen = {
        "kind": "cox_balls",
        "lambda": spec.lam,
        "mode": "fixed" if spec.fixed else "random",
        "centers": np.asarray(centers, float).tolist(),
        "radii": np.asarray(radii, float).tolist(),
    }
    if not spec.fixed:
        gen["center_intensity"] = spec.center_intensity
        gen["radius_range"] = list(spec.radius_range)
    return Sample(pts, window, dim, gen, seed)


_JSON_KEYS = {"dim", "window", "seed", "generator", "points"}


def load_json(path, validate, error, sample_of=lambda result: result):
    """`validate(obj, text)` of the JSON file `path`, whose UTF-8 `text`
    decodes to `obj`; `sample_of` finds the result's sample. `error` names
    the file when the text is not UTF-8 or not JSON.

    orjson decodes. `json.loads` is the reference, and decodes and validates
    again when orjson refuses the text (NaN, Infinity, 1e400, lone
    surrogates, malformed JSON), when `validate` refuses orjson's object,
    or when the sample's generator holds a float of magnitude 2^63 or more,
    which may be orjson's float for an integer outside [-2^63, 2^64). So a
    file loads, or fails in the same words, as under `json.loads` alone,
    except that nesting past `json.loads`' recursion limit is one `error`
    naming the file, not a RecursionError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        result = validate(orjson.loads(text), text)
        if not _holds_wide_float(sample_of(result).generator):
            return result
    except ValueError:
        pass
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{path}: nested too deeply: {exc}") from exc
    return validate(obj, text)


def _holds_wide_float(value) -> bool:
    """Whether decoded JSON `value` holds a float of magnitude 2^63 or more
    (every such float is integral)."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is float and abs(item) >= 2.0**63:
            return True
        if type(item) is dict:
            stack.extend(item.values())
        elif type(item) is list:
            stack.extend(item)
    return False


def load_sample(path) -> Sample:
    """Read a sample file, in the layout `Sample.from_json` reads. The
    sample keeps the file's text when the text holds just the keys
    `to_json` writes (in the window too), for it then says nothing the
    sample does not. Its point and window arrays are made read-only, so the
    text cannot go stale (its generator dict, like every field of a frozen
    sample, is not to be changed either)."""
    return load_json(path, _file_sample, SampleError)


def _file_sample(obj, text: str) -> Sample:
    sample = Sample.from_json(obj)
    for array in (sample.points, sample.window.lo, sample.window.hi):
        array.flags.writeable = False
    if obj.keys() == _JSON_KEYS and obj["window"].keys() == {"lo", "hi"}:
        object.__setattr__(sample, "file_text", text.strip(" \t\n\r"))
    return sample


def save_sample(sample: Sample, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sample.json_text() + "\n")
