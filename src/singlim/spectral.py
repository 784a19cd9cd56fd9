"""Finite spectral model of a nonnegative self-adjoint operator.

The operator is known only through its eigenvalues; vectors live in the
eigenbasis, so every operator function (fractional powers, resolvent)
acts coefficientwise and the ambient Hilbert norm is the Euclidean norm
of the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "SpecVector",
    "apply_power",
    "resolvent",
    "inner",
    "norm",
    "sample_norms",
    "squared_norms",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Spectrum:
    """Ordered finite multiset of eigenvalues of the operator.

    Zero eigenvalues are allowed: the operator is nonnegative but not
    assumed coercive, so stationary kernel modes are part of the model.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = _readonly(self.eigenvalues)
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


@dataclass(frozen=True)
class SpecVector:
    """Coefficient vector in the eigenbasis; Euclidean norm is the H-norm."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = _readonly(self.coefficients)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size

    def __sub__(self, other: "SpecVector") -> "SpecVector":
        _check_lengths(self, other)
        return SpecVector(self.coefficients - other.coefficients)


def _check_lengths(f: SpecVector, g: SpecVector) -> None:
    if len(f) != len(g):
        raise ValueError(f"vector length mismatch: {len(f)} vs {len(g)}")


def _check_compat(spec: Spectrum, f: SpecVector) -> None:
    if len(spec) != len(f):
        raise ValueError(
            f"vector length {len(f)} does not match spectrum length {len(spec)}"
        )


def apply_power(spec: Spectrum, s: float, f: SpecVector) -> SpecVector:
    """Fractional power of the operator: coefficient i becomes lam_i**s * c_i.

    s must be >= 0; negative powers are undefined on the kernel.  The
    convention 0**0 = 1 makes s = 0 the identity on every mode.
    """
    if s < 0:
        raise ValueError("negative operator powers are not defined (kernel modes)")
    _check_compat(spec, f)
    if s == 0:
        return f
    return SpecVector(spec.eigenvalues**s * f.coefficients)


def resolvent(spec: Spectrum, eps: float, f: SpecVector) -> SpecVector:
    """Smoothing resolvent (I + eps*A)^{-1}: divides mode i by 1 + eps*lam_i."""
    if eps <= 0:
        raise ValueError("resolvent parameter must be positive")
    _check_compat(spec, f)
    return SpecVector(f.coefficients / (1.0 + eps * spec.eigenvalues))


def inner(f: SpecVector, g: SpecVector) -> float:
    """Inner product, accumulated strictly left to right for reproducibility."""
    _check_lengths(f, g)
    total = 0.0
    for a, b in zip(f.coefficients, g.coefficients):
        total += a * b
    return total


def norm(f: SpecVector) -> float:
    """sqrt(inner(f, f)): the sample_norms of f's one row, so a finite norm
    reads finite where the sum of squares overflows."""
    return float(sample_norms(np.array(f.coefficients, ndmin=2))[0])


def squared_norms(samples: np.ndarray) -> np.ndarray:
    """|x(t)|^2 for each time of samples (n_times, n_modes): the squares
    added over the modes one mode at a time, in mode order, whatever the
    memory layout.  The samples are squared in place, so no second wide
    array is made: callers pass a buffer they own and no longer need."""
    samples *= samples
    total = np.zeros(samples.shape[0])
    for column in samples.T:
        total += column
    return total


def sample_norms(samples: np.ndarray) -> np.ndarray:
    """|x(t)| at each time of samples (n_times, n_modes), which are squared
    in place (squared_norms).  A time whose sum of squares overflows is
    taken again of its samples over their largest entry max|x_i| and scaled
    back, max|x_i| * |x / max|x_i||, so a finite norm reads finite and one
    above the float range reads inf; the other times keep their bits.  Only
    when some sample is large enough to overflow a sum are its rows found
    and copied."""
    limit = math.sqrt(np.finfo(float).max / (2 * max(samples.shape[1], 1)))
    if max(samples.max(initial=0.0), -samples.min(initial=0.0)) <= limit:
        return np.sqrt(squared_norms(samples))
    big = np.maximum(samples.max(axis=1), -samples.min(axis=1))
    risky = np.flatnonzero((big > limit) & np.isfinite(big))
    kept = samples[risky]
    with np.errstate(over="ignore"):  # an overflowed sum is redone below
        norms = np.sqrt(squared_norms(samples))
        over = np.isinf(norms[risky])
        scale = big[risky[over]]
        norms[risky[over]] = scale * np.sqrt(squared_norms(kept[over] / scale[:, None]))
    return norms
