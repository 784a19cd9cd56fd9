"""Spectral simulation and verification of the vanishing-inertia limit.

The damped second-order problem eps*u'' + A u + u' = 0 relaxes, as
eps -> 0, to the first-order flow v' + A v = 0.  This package realizes
a nonnegative self-adjoint operator A by a finite eigenvalue list, solves
every mode in closed form, builds the limit profiles, initial layer, and
corrector functions, and verifies the decomposition identities, energy
bounds with explicit constants, and convergence rates numerically.
"""

__version__ = "0.1.0"
