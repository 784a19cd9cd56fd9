"""Finite spectral model of a nonnegative self-adjoint operator.

The operator is known only through its eigenvalues, and a vector is the
read-only float array of its coefficients in the eigenbasis: every
operator function (a fractional power lam**s * f, the resolvent
f / (1 + eps * lam)) acts coefficientwise, and the ambient Hilbert norm is
the Euclidean norm of the coefficients.  profiles.ProblemData validates
the initial data where they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "inner", "norm", "sample_norms", "squared_norms"]


@dataclass(frozen=True)
class Spectrum:
    """Ordered finite multiset of eigenvalues of the operator.

    Zero eigenvalues are allowed: the operator is nonnegative but not
    assumed coercive, so stationary kernel modes are part of the model.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=float)
        ev.setflags(write=False)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("spectrum must be a nonempty 1-d list of eigenvalues")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if np.any(ev < 0):
            raise ValueError("eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", ev)

    def __len__(self) -> int:
        return self.eigenvalues.size

    @property
    def min_positive(self) -> float | None:
        """Smallest strictly positive eigenvalue, or None if all are zero."""
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos.min()) if pos.size else None


def inner(f: np.ndarray, g: np.ndarray) -> float:
    """Inner product, accumulated strictly left to right for reproducibility."""
    total = 0.0
    for a, b in zip(f, g, strict=True):
        total += a * b
    return total


def norm(f: np.ndarray) -> float:
    """sqrt(inner(f, f)): the sample_norms of f's one row, so a finite norm
    reads finite where the sum of squares overflows."""
    return float(sample_norms(np.array(f, dtype=float, ndmin=2))[0])


def squared_norms(samples: np.ndarray) -> np.ndarray:
    """|x(t)|^2 for each time of samples (n_times, n_modes), which are left
    as they are: the squares added over the modes one mode at a time, in
    mode order, whatever the memory layout.  profiles.squared_norms_together
    adds the same squares as each mode is evaluated, with the same bits."""
    total = np.zeros(samples.shape[0])
    for column in samples.T:
        total += column * column
    return total


def sample_norms(samples: np.ndarray) -> np.ndarray:
    """|x(t)| at each time of samples (n_times, n_modes), which are left as
    they are: the square roots of squared_norms, except at a time whose sum
    of squares overflows.  That time is taken again of its samples over
    their largest entry max|x_i| and scaled back, max|x_i| * |x / max|x_i||,
    so a finite norm reads finite and one above the float range reads inf;
    the other times keep their bits.  Only when some sample is large enough
    to overflow a sum are the rows at risk looked for.
    profiles.norms_together gives the same norms of samples it reduces
    mode by mode."""
    limit = math.sqrt(np.finfo(float).max / (2 * max(samples.shape[1], 1)))
    if max(samples.max(initial=0.0), -samples.min(initial=0.0)) <= limit:
        return np.sqrt(squared_norms(samples))
    big = np.maximum(samples.max(axis=1), -samples.min(axis=1))
    risky = np.flatnonzero((big > limit) & np.isfinite(big))
    with np.errstate(over="ignore"):  # an overflowed sum is redone below
        norms = np.sqrt(squared_norms(samples))
        over = risky[np.isinf(norms[risky])]
        scale = big[over]
        norms[over] = scale * np.sqrt(squared_norms(samples[over] / scale[:, None]))
    return norms
