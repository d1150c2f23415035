"""Sampled path container and time-grid check shared by the bridge and process samplers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SamplePath", "check_grid"]


def check_grid(times, start: float = -math.inf, end: float = math.inf) -> np.ndarray:
    """``times`` as floats if a non-empty, increasing 1-d grid in (start, end]; a NaN time fails."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("need a non-empty 1-d time grid")
    if not np.all(np.diff(times) > 0):
        raise DomainError("time grid must be strictly increasing")
    if not (times[0] > start and times[-1] <= end):
        raise DomainError(f"time grid must lie inside ({start}, {end}]")
    return times


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A path observed on a strictly increasing time grid.

    ``values[k]`` is the state at ``times[k]``. Arrays are stored as float64
    and should be treated as immutable.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times, values = check_grid(self.times), np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise DomainError("times and values must be 1-d arrays of equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.times.size)
