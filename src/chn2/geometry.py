"""Windows, metrics, and squared distances over coordinate arrays.

All argmin-style operations in this package share one total order so that
every construction is deterministic even when floating-point distances tie
exactly: candidates are compared by (squared distance, source id, target id).
Squared distances are used for comparisons; reported values are true
distances.

`sq_dist_many` is the package's one squared distance; k-d trees only
gather candidates. It adds the axes left to right, as numpy's
`np.sum(delta ** 2, axis=-1)` does only for d < 8, so from d = 8 on the
two may differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    pass


def is_json_numbers(values) -> bool:
    """Whether every item of a decoded JSON list is a number. JSON true and
    false decode to Python bools, which numpy would read as 1 and 0, and
    strings such as "0.5" would be read as their value."""
    return set(map(type, values)) <= {int, float}


@dataclass(frozen=True)
class Window:
    """Axis-aligned box [lo, hi] with positive volume."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise GeometryError("window lo/hi must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GeometryError("window bounds must be finite")
        if not np.all(lo < hi):
            raise GeometryError("window requires lo < hi on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def side_lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        """The product of the sides. It underflows to 0 or overflows to inf
        for valid windows of tiny or huge sides; it is refused when read, not
        when the window is built, as `stats._block_series` lifts such
        windows and never reads their volume."""
        with np.errstate(over="ignore"):
            volume = float(np.prod(self.side_lengths))
        if not 0 < volume < np.inf:
            raise GeometryError(f"the window's volume is {volume}, not positive and finite")
        return volume

    def contains(self, coords) -> np.ndarray:
        c = np.atleast_2d(np.asarray(coords, dtype=float))
        return np.all((c >= self.lo) & (c <= self.hi), axis=1)

    def to_json(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Window":
        lo, hi = obj["lo"], obj["hi"]
        if not all(type(b) is list and is_json_numbers(b) for b in (lo, hi)):
            raise GeometryError("window lo and hi must be lists of numbers")
        return cls(np.asarray(lo, float), np.asarray(hi, float))


EUCLIDEAN = "euclidean"
TORUS = "torus"


@dataclass(frozen=True)
class Metric:
    """Base distance: plain Euclidean, or Euclidean on the torus of a window.

    The torus variant wraps each axis before the norm, so distances never
    exceed half the window side per axis; it is used to suppress boundary
    effects in stationarity-sensitive statistics.
    """

    kind: str = EUCLIDEAN
    window: Window | None = field(default=None)

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, TORUS):
            raise GeometryError(f"unknown metric kind: {self.kind!r}")
        if self.kind == TORUS and self.window is None:
            raise GeometryError("torus metric requires a window")

    @classmethod
    def euclidean(cls) -> "Metric":
        return cls(EUCLIDEAN)

    @classmethod
    def torus(cls, window: Window) -> "Metric":
        return cls(TORUS, window)

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        if self.window is not None:
            obj["window"] = self.window.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Metric":
        window = Window.from_json(obj["window"]) if "window" in obj else None
        return cls(obj["kind"], window)


def axis_gaps(coords_a, coords_b, metric: Metric) -> np.ndarray:
    """Per-axis distances between rows of coords_a and coords_b
    (broadcasting), each axis wrapped on the torus."""
    delta = np.abs(np.asarray(coords_a, dtype=float) - np.asarray(coords_b, dtype=float))
    if metric.kind == TORUS:
        period = metric.window.side_lengths
        delta = np.minimum(delta, period - delta)
    return delta


def sq_dist_many(coords_a, coords_b, metric: Metric) -> np.ndarray:
    """Squared distances between rows of coords_a and coords_b (broadcasting),
    the squared `axis_gaps` added left to right (see the module note)."""
    delta = axis_gaps(coords_a, coords_b, metric)
    sq = delta * delta
    total = sq[..., 0]
    for j in range(1, sq.shape[-1]):
        total = total + sq[..., j]
    return total
