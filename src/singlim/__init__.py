"""Spectral simulation and verification of the vanishing-inertia limit.

The damped second-order problem eps*u'' + A u + u' = 0 relaxes, as
eps -> 0, to the first-order flow v' + A v = 0.  This package realizes
a nonnegative self-adjoint operator A by a finite eigenvalue list, solves
every mode in closed form, builds the limit profiles, initial layer, and
corrector functions, and verifies the decomposition identities, energy
bounds with explicit constants, and convergence rates numerically.
"""

__version__ = "0.1.0"

from .spectral import (
    SpecVector,
    Spectrum,
    apply_power,
    inner,
    norm,
    resolvent,
    semigroup,
)
from .modes import (
    ForcingTerm,
    ModeParams,
    ModeTrajectory,
    RootPair,
    characteristic_roots,
    solve_forced,
    solve_homogeneous,
)
from .profiles import ProblemData, ProfileFunction
from .timegrid import TimeGrid, standard_grid
from .verification import CheckReport, ErrorCurve, RateFit

__all__ = [
    "__version__",
    "Spectrum",
    "SpecVector",
    "apply_power",
    "resolvent",
    "semigroup",
    "inner",
    "norm",
    "ModeParams",
    "RootPair",
    "ForcingTerm",
    "ModeTrajectory",
    "characteristic_roots",
    "solve_homogeneous",
    "solve_forced",
    "ProblemData",
    "ProfileFunction",
    "TimeGrid",
    "standard_grid",
    "CheckReport",
    "ErrorCurve",
    "RateFit",
]
