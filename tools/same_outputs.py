"""Check that the working tree's singlim writes the same outputs as a git revision.

    python tools/same_outputs.py REF

REF is any revision git names (HEAD, a branch, a commit).  It is exported
with ``git archive`` into a temporary directory; the working tree is used
as it is.  Both run a fixed matrix of 44 invocations: ``singlim verify``,
``simulate`` and ``rates`` on each of

- the spectra three-mode, dirichlet-32 and neumann-33, each with the data
  of configs/default.json, with ``"u1": "il0"`` and all six comparisons,
  and with eps {1e-6, 1e-7, 1e-8, 1e-9};
- three-mode with all six comparisons on incompatible data;
- dirichlet-32 il0 with eps in shuffled order [0.01, 0.1, 0.001, 0.05];
- the overflow data: spectrum [1e-300, 1] with u1 [1e200, 0] and u0
  [1, 1] or [0, 0], where w1 = A^{-1/2} u1 overflows (no half-power range
  record) and the squared norms give ``not finite:`` FAILs;
- spectrum [1e250, 1] with u0 [1, 1], u1 [0, 0] and eps [0.5], where the
  powers of the eigenvalues and the data records' tolerance overflow;

and ``singlim verify`` alone on two stiff dissipation cross-checks:

- spectrum [1e6] with the data of configs/default.json and checks
  ["maxreg"];
- dirichlet-32 with the data of configs/default.json and no logarithmic
  grid times (``"log_count": 0``).

Every invocation's exit code, stdout, stderr (with the tree and output
paths replaced by placeholders) and data files must be byte-identical, and
so must manifest.json once its ``timestamp`` and ``timings``, which differ
from run to run, are removed: its file list, config hash, tool version and
environment are compared.  Each difference is printed, and the exit code
is 1 if there is any, else 0.  The runs are serial and
take about half a minute on a 2-core machine.

    python tools/same_outputs.py REF --rtol 1e-14

compares numbers instead of bytes, for a change that moves the last
digits on purpose.  Each output that is not byte-identical is split into
its numbers (CSV cells, report.json values, numbers in notes and streams)
and the text between them.  The text must be the same; the line of the
invocation gives, per output, the largest relative difference of its
numbers, |a - b| / max(|a|, |b|).  An invocation differs if some text
differs or some relative difference is above the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("verify", "simulate", "rates")
COMPARISONS = ["order0_thm11i", "order0_thm11ii", "order1_theta",
               "order2_mainthm", "cor1", "cor2"]


def matrix() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """{name: (config, the commands that run on it)} of the 16 configs."""
    default = json.loads((ROOT / "configs" / "default.json").read_text())
    configs = {}
    for spectrum in ("three-mode", "dirichlet-32", "neumann-33"):
        base = dict(default, spectrum=spectrum)
        configs[f"{spectrum}-default"] = base
        configs[f"{spectrum}-il0"] = dict(base, u1="il0", comparisons=COMPARISONS)
        configs[f"{spectrum}-small-eps"] = dict(base, epsilons=[1e-6, 1e-7, 1e-8, 1e-9])
    configs["three-mode-incompatible"] = dict(
        default, spectrum="three-mode", comparisons=COMPARISONS
    )
    configs["dirichlet-32-il0-shuffled"] = dict(
        configs["dirichlet-32-il0"], epsilons=[0.01, 0.1, 0.001, 0.05]
    )
    for name, u0 in (("ones", [1.0, 1.0]), ("zero", [0.0, 0.0])):
        configs[f"overflow-u0-{name}"] = dict(
            default, spectrum=[1e-300, 1.0], u0=u0, u1=[1e200, 0.0]
        )
    configs["overflow-large-eigenvalue"] = dict(
        default, spectrum=[1e250, 1.0], u0=[1.0, 1.0], u1=[0.0, 0.0], epsilons=[0.5]
    )
    stiff = {
        "stiff-1e6-maxreg": dict(default, spectrum=[1e6], checks=["maxreg"]),
        "dirichlet-32-no-log-grid": dict(
            default, spectrum="dirichlet-32", grid=dict(default["grid"], log_count=0)
        ),
    }
    return ({name: (config, COMMANDS) for name, config in configs.items()}
            | {name: (config, ("verify",)) for name, config in stiff.items()})


def run(tree: Path, command: str, config: Path, out: Path) -> dict[str, bytes]:
    """What one invocation leaves: its exit code, streams and data files."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "singlim.cli", command, "--config", str(config),
         "--out", str(out)],
        capture_output=True, env=env, cwd=out.parent,
    )

    def masked(text: bytes) -> bytes:
        for path, placeholder in ((out, b"<out>"), (tree, b"<tree>")):
            text = text.replace(str(path).encode(), placeholder)
        return text

    found = {
        "exit code": str(result.returncode).encode(),
        "stdout": masked(result.stdout),
        "stderr": masked(result.stderr),
    }
    if out.is_dir():
        for path in sorted(out.iterdir()):
            found[path.name] = path.read_bytes()
    if "manifest.json" in found:
        manifest = json.loads(found["manifest.json"])
        for key in ("timestamp", "timings"):
            manifest.pop(key, None)
        found["manifest.json"] = json.dumps(manifest, indent=2).encode()
    return found


# a decimal number as %.17g, repr or JSON writes it; inf and nan stay text
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def largest_relative_difference(ref: bytes, new: bytes) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numbers of two outputs
    taken in order (0 where a == b), or None if the text between the
    numbers differs."""
    ref_parts, new_parts = NUMBER.split(ref), NUMBER.split(new)
    if len(ref_parts) != len(new_parts) or ref_parts[::2] != new_parts[::2]:
        return None
    largest = 0.0
    for a, b in zip(map(float, ref_parts[1::2]), map(float, new_parts[1::2])):
        if a != b:
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    return largest


def compare(ref: dict[str, bytes], new: dict[str, bytes], rtol: float | None) -> tuple[bool, str]:
    """(whether the invocation differs, its line): the outputs that are not
    byte-identical, or with rtol, each one's largest relative difference."""
    changed = sorted(k for k in ref.keys() | new.keys() if ref.get(k) != new.get(k))
    if not changed:
        return False, "same"
    if rtol is None:
        return True, "differs in " + ", ".join(changed)
    differs, notes = False, []
    for key in changed:
        found = None
        if key in ref and key in new:
            found = largest_relative_difference(ref[key], new[key])
        if found is None:
            differs = True
            notes.append(f"{key} differs in text")
        else:
            differs = differs or found > rtol
            notes.append(f"{key} {found:.3g}" + (f" > {rtol:g}" if found > rtol else ""))
    return differs, ", ".join(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git revision to compare the working tree with")
    parser.add_argument(
        "--rtol", type=float, metavar="BOUND",
        help="compare numbers to this relative difference instead of bytes, "
             "and report the largest relative difference per output",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        scratch = Path(scratch)
        ref_tree = scratch / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.ref],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive, check=True)
        configs, invocations, differences = matrix(), 0, 0
        for name, (config, commands) in configs.items():
            path = scratch / f"{name}.json"
            path.write_text(json.dumps(config))
            for command in commands:
                label = f"{command} {name}"
                work = scratch / label.replace(" ", "_")
                outputs = []
                for side, tree in (("ref", ref_tree), ("tree", ROOT)):
                    (work / side).mkdir(parents=True)
                    outputs.append(run(tree, command, path, work / side / "out"))
                differs, line = compare(*outputs, args.rtol)
                invocations += 1
                differences += differs
                print(f"{label}: {line}")
    within = "" if args.rtol is None else f" beyond relative {args.rtol:g}"
    print(f"{differences} of {invocations} invocations differ from "
          f"{args.ref}{within}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
