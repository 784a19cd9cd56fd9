"""Sample grids in time.

The standard grid mixes a uniform sweep of the diffusive range, a
logarithmic sweep of small times, and explicit multiples of each eps so
that sup-norms see both the fast transient and the tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "standard_grid"]


def _distinct_sorted(times) -> np.ndarray:
    """The distinct values of times in increasing order: np.unique for finite
    times, without the numpy.ma import that np.unique makes on its first call."""
    t = np.sort(times)
    return t[np.concatenate(([True], t[1:] != t[:-1]))]


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two sample times")
        if t[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])


def standard_grid(
    eps_values=(),
    t_max: float = 20.0,
    linear_count: int = 2000,
    log_count: int = 200,
    log_floor: float = 1e-6,
) -> TimeGrid:
    """Layer-refined grid: uniform + logarithmic times + multiples of eps."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    pieces = [np.linspace(0.0, t_max, linear_count)]
    if log_count > 0:
        top = min(1.0, t_max)
        pieces.append(np.geomspace(log_floor, top, log_count))
    for eps in eps_values:
        pieces.append(np.array([eps, 2 * eps, 5 * eps, 10 * eps]))
    times = _distinct_sorted(np.concatenate(pieces))
    times = times[(times >= 0.0) & (times <= t_max)]
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
    return TimeGrid(times)
