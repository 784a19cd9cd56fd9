import os
from pathlib import Path

import numpy as np
import pytest

from singlim.spectral import SpecVector, Spectrum
from singlim.profiles import ProblemData, corrector_remainder


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env() -> dict:
    """Environment for a CLI subprocess, with src/ on its import path."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def decay_vector(n: int, p: float = 2.0) -> SpecVector:
    return SpecVector(np.array([(1.0 + i) ** (-p) for i in range(n)]))


def make_problem(lams, eps, p=2.0, il0=False) -> ProblemData:
    spec = Spectrum(np.array(lams, dtype=float))
    u0 = decay_vector(len(lams), p)
    if il0:
        u1 = SpecVector(-spec.eigenvalues * u0.coefficients)
    else:
        u1 = decay_vector(len(lams), p)
    return ProblemData(spec, eps, u0, u1)


def remainders(pd: ProblemData):
    """Both remainder correctors, as the check functions take them."""
    return corrector_remainder(pd, 1), corrector_remainder(pd, 2)


@pytest.fixture
def three_mode() -> Spectrum:
    return Spectrum(np.array([0.0, 1.0, 4.0]))


@pytest.fixture
def single_mode() -> Spectrum:
    return Spectrum(np.array([1.0]))
