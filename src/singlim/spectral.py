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

    def __add__(self, other: "SpecVector") -> "SpecVector":
        _check_lengths(self, other)
        return SpecVector(self.coefficients + other.coefficients)

    def __sub__(self, other: "SpecVector") -> "SpecVector":
        _check_lengths(self, other)
        return SpecVector(self.coefficients - other.coefficients)

    def scale(self, alpha: float) -> "SpecVector":
        return SpecVector(alpha * self.coefficients)


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
    """sqrt(inner(f, f)); where that sum overflows, max|c| * norm(f / max|c|)."""
    with np.errstate(over="ignore"):  # an overflowed sum is redone below
        total = inner(f, f)
    if math.isfinite(total):
        return math.sqrt(total)
    big = float(np.max(np.abs(f.coefficients)))
    return big * norm(f.scale(1.0 / big))
