"""Clustroid hierarchical nearest-neighbor clustering on spatial point
patterns, with descending-chain statistics and aggregation detection."""

from .geometry import Metric, Window
from .hierarchy import Hierarchy, LevelGraph, build_hierarchy
from .pointprocess import CoxBallSpec, Sample, gen_binomial, gen_cox_balls, gen_poisson
from .stats import (
    DetectorConfig,
    detect_against_baseline,
    level_stats,
    mean_distance_series,
    poisson_baseline,
)

__version__ = "0.3.0"

__all__ = [
    "Metric",
    "Window",
    "Hierarchy",
    "LevelGraph",
    "build_hierarchy",
    "CoxBallSpec",
    "Sample",
    "gen_binomial",
    "gen_cox_balls",
    "gen_poisson",
    "DetectorConfig",
    "detect_against_baseline",
    "level_stats",
    "mean_distance_series",
    "poisson_baseline",
    "__version__",
]
