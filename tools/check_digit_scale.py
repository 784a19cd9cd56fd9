"""Check the fixed-point digit rule of singlim.csvformat.csv_bytes on every x < 10^9.

    python tools/check_digit_scale.py [--stop N]

The CSV writer takes the nine decimal digits of an integer x < 10^9 as
t = x * ceil(2^57 / 10^8), then, nine times, the digit t >> 57 and
t = (t & (2^57 - 1)) * 10.  This script runs that rule, with the
constants singlim.csvformat uses, on every x in [0, N) (N = 10^9 by default) in
blocks of 2^20, and checks that every digit is at most 9 and that the
digits spell x.  Decimal digits are unique, so that is the same as the
digits of x.  It prints the first x that fails and exits 1, or exits 0.
It takes about a minute and 60 MB.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from singlim.csvformat import _DIGIT_SCALE, _FRACTION  # noqa: E402


def first_failure(start: int, stop: int) -> int | None:
    """The least x in [start, stop) whose digits the rule gets wrong, or None."""
    x = np.arange(start, stop, dtype=np.uint64)
    t = x * _DIGIT_SCALE
    spelled = np.zeros_like(x)
    bad = np.zeros(x.shape, dtype=bool)
    for _ in range(9):
        digit = t >> np.uint64(57)
        bad |= digit > 9
        spelled = spelled * np.uint64(10) + digit
        t &= _FRACTION
        t *= np.uint64(10)
    bad |= spelled != x
    return start + int(np.argmax(bad)) if bad.any() else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stop", type=int, default=10**9)
    stop = parser.parse_args().stop
    block = 2**20
    for start in range(0, stop, block):
        failed = first_failure(start, min(start + block, stop))
        if failed is not None:
            print(f"x = {failed}: the digits are wrong")
            return 1
    print(f"all {stop} inputs give their decimal digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
