"""Print the oracle's worst error against the closed form per t/eps decade.

    python tools/oracle_range.py

The oracle is singlim.modes.rk_reference_path, the matrix exponential of
the augmented 4x4 system; its rounding error grows with t/eps, through the
squarings.  The modes are those of the stress grid in tests/test_modes.py,
whose forcing keeps the solution O(1): lam in {0, 1, 10, 50}, data
(y0, y1) = (2, -2), forcing (a, b) in {(2, 2), (-2, 2), (2, 0)} at the rate
nu in {0, 0.01, 1}; here eps runs over 1e-1, ..., 1e-8.  Each mode is
sampled at t = r eps for r = 1, 2, 5 times 10^k up to 1e9, with t <= 100.
The error of a sample is |oracle - closed| / max(1, |closed|, |oracle|),
the measure of the oracle-equivalence acceptance test, and each row gives
the worst over the modes at r = 10^k, 2 10^k and 5 10^k.  It takes a few
seconds.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from singlim.modes import ForcingTerm, ModeParams, rk_reference_path, solve_forced  # noqa: E402

DECADES = 10
MULTIPLES = (1.0, 2.0, 5.0)
T_MAX = 100.0


def worst_errors() -> np.ndarray:
    """worst[k, i]: the worst error at t/eps = MULTIPLES[i] 10^k (NaN if no
    mode is sampled there)."""
    ratios = np.outer(10.0 ** np.arange(DECADES), MULTIPLES)
    worst = np.full(ratios.shape, np.nan)
    for eps, lam, nu, (a, b) in itertools.product(
        10.0 ** -np.arange(1, 9),
        (0.0, 1.0, 10.0, 50.0),
        (0.0, 0.01, 1.0),
        ((2.0, 2.0), (-2.0, 2.0), (2.0, 0.0)),
    ):
        p, f = ModeParams(eps, lam, 2.0, -2.0), ForcingTerm(a, b, nu)
        sampled = (ratios * eps <= T_MAX) & (ratios <= 10.0 ** (DECADES - 1))
        ts = ratios[sampled] * eps
        closed = solve_forced(p, f).poly.value(ts)
        oracle = rk_reference_path(p, f, ts, 1e-11)[0]
        scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(oracle)))
        err = np.abs(closed - oracle) / scale
        worst[sampled] = np.fmax(worst[sampled], err)
    return worst


def main() -> int:
    worst = worst_errors()
    print("t/eps  " + "".join(f"{f'x {m:g}':>11}" for m in MULTIPLES))
    for k, row in enumerate(worst):
        cells = "".join(f"{'-' if np.isnan(e) else f'{e:.2e}':>11}" for e in row)
        print(f"1e{k:<4} {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
