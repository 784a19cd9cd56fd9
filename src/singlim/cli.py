"""Configuration-driven experiment runner with deterministic outputs.

Subcommands: simulate (trajectory tables), verify (check reports with an
exit-code contract), rates (eps sweeps with log-log fits), presets.  All
numeric output is printed with 17 significant digits so binary64 values
round-trip; identical configs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .profiles import ProblemData, norms_together
from .spectral import Spectrum, norm
from .timegrid import TimeGrid, standard_grid
from .verification import (
    COMPARISONS,
    TOLERANCES,
    CheckReport,
    duhamel_residual,
    energy_inequality_checks,
    identity_checks,
    inequality_checks,
    max_reg_checks,
    rate_checks,
    rate_errors,
    remainder_data_checks,
    run_rate_experiment,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FIELDS",
    "SPECTRUM_PRESETS",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


SPECTRUM_PRESETS: dict[str, list[float]] = {
    "single-mode": [1.0],
    "three-mode": [0.0, 1.0, 4.0],
    "dirichlet-32": [(k * math.pi) ** 2 for k in range(1, 33)],
    "neumann-33": [(k * math.pi) ** 2 for k in range(0, 33)],
}


def fmt(x: float) -> str:
    """17-significant-digit formatting: lossless for binary64."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# check groups


def _timed(timings: dict[str, float], name: str, run):
    """run(), with its wall time in seconds stored as timings[name]: the
    stage timings of manifest.json."""
    start = time.perf_counter()
    result = run()
    timings[name] = time.perf_counter() - start
    return result


# Every check group, in config order; maxreg and rates run once, after every eps.
CHECK_GROUPS = ("identities", "data", "inequalities", "energy", "maxreg", "duhamel", "rates")


def _run_checks(config: ExperimentConfig) -> tuple[list[CheckReport], dict[str, float]]:
    """The records of the configured check groups, sorted by id, and the
    wall time in seconds of each group that ran.  Per eps, one problem runs
    the per-eps groups, whose ids and timings are tagged with the eps, and
    gives its rate errors on the run-wide grid (timed as rates[eps=...]);
    with no comparison, or fewer than the 3 eps a fit needs (rate_checks
    reports that), none are sampled.  Then maxreg runs on the run-wide
    grid, and rates fits the errors."""
    spec, u0, u1 = config.data()
    checks, tol = config["checks"], config.to_dict()["tolerances"]
    comparisons = config["comparisons"] if "rates" in checks else ()
    sampled = bool(comparisons) and len(config["epsilons"]) >= 3
    run_grid = config.time_grid(config["epsilons"])
    reports: list[CheckReport] = []
    timings: dict[str, float] = {}
    # The per-eps groups in run order, name -> group(pd, grid, tol): the records
    # of one eps's problem on its grid.  Made per run, so that a wrapper set on
    # these names of the module (perfbench's span tracer) is what runs.  energy
    # runs first: its exact integrals take the most memory of any group, and
    # before it samples, the problem holds no evaluation table to add to them.
    per_eps_groups = {"energy": energy_inequality_checks, "identities": identity_checks,
                      "data": remainder_data_checks, "inequalities": inequality_checks,
                      "duhamel": duhamel_residual}

    per_eps = []  # (eps, its rate errors)
    for eps in config["epsilons"]:
        pd, grid = ProblemData(spec, eps, u0, u1), config.time_grid([eps])
        tag = f"[eps={eps:g}]"
        for name, group in per_eps_groups.items():
            if name in checks:
                for report in _timed(timings, name + tag, lambda: group(pd, grid, tol)):
                    report.check_id += tag
                    reports.append(report)
        if sampled:
            errors = _timed(timings, "rates" + tag,
                            lambda: rate_errors(pd, comparisons, run_grid.times))
            per_eps.append((eps, errors))
    if "maxreg" in checks:
        f = u0 if norm(u0) > 0 else u1
        reports += _timed(timings, "maxreg", lambda: max_reg_checks(spec, f, run_grid))
    if "rates" in checks:
        reports += _timed(timings, "rates", lambda: rate_checks(per_eps, comparisons))
    reports.sort(key=lambda r: r.check_id)
    return reports, timings


# ---------------------------------------------------------------------------
# the config schema

_REQUIRED = object()  # the default of a field every config must give


def _finite(value, ok=lambda x: True) -> float:
    """A finite JSON number (not a bool or a string) that passes ok, as a float."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # False for NaN and infinities
        and ok(value)
    ):
        return float(value)
    raise ValueError


def _name(choices, value) -> str:
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError


def _numbers(value, ok=lambda x: True, nonempty=False) -> tuple[float, ...]:
    """A JSON list of finite numbers that pass ok, as a tuple of floats."""
    if isinstance(value, list) and (value or not nonempty):
        return tuple(_finite(x, ok) for x in value)
    raise ValueError


def _names(choices, value, nonempty=False) -> tuple[str, ...]:
    """A JSON list of distinct names from choices, as a tuple."""
    if not isinstance(value, list) or (nonempty and not value):
        raise ValueError
    names = tuple(_name(choices, x) for x in value)
    repeated = sorted({x for x in names if names.count(x) > 1})
    if repeated:
        raise ValueError(f"{repeated} appear more than once")
    return names


def _data(value, path):
    if isinstance(value, dict):
        return _parse_fields(value, _FAMILY, path + ".")
    return _numbers(value)


def _epsilons(value, path):
    eps = _numbers(value, lambda e: 0 < e <= 1, nonempty=True)
    labels = [f"{e:g}" for e in eps]  # they name trajectory files and check ids
    clash = [e for e, label in zip(eps, labels) if labels.count(label) > 1]
    if clash:
        raise ValueError(f"{clash} are not distinct")
    return eps


def _positive(value, path):
    return _finite(value, lambda x: x > 0)


def _nonnegative(value, path):
    return _finite(value, lambda x: x >= 0)


_DATA_DOC = (
    'a list of finite numbers, one per eigenvalue, or {"family": "decay", '
    '"p": <finite number>} for the coefficients (1+i)^-p'
)

# The config schema, one row per field: (path, default, accepted values,
# parser).  A dotted path is a field of a nested object.  Parsing, the
# rejection of unknown keys, to_dict, the --help epilog and the README's
# field list all come from this table.  A parser takes (value, path) and
# returns the parsed value; a ValueError it raises is a ConfigError that
# names the field, its accepted values and the value given.
FIELDS = (
    ("schema_version", _REQUIRED, "1", lambda v, p: int(_finite(v, lambda x: x == 1))),
    ("spectrum", "three-mode",
     "a preset name (single-mode, three-mode, dirichlet-32, neumann-33) or "
     "a nonempty list of finite numbers >= 0, the eigenvalues of A",
     lambda v, p: _name(SPECTRUM_PRESETS, v) if isinstance(v, str)
     else _numbers(v, lambda x: x >= 0, nonempty=True)),
    ("u0", _REQUIRED, _DATA_DOC, _data),
    ("u1", _REQUIRED,
     _DATA_DOC + ', or "il0" for u1 = -A u0, which removes the initial layer',
     lambda v, p: v if v == "il0" else _data(v, p)),
    ("epsilons", _REQUIRED,
     "a nonempty list of numbers in (0, 1], distinct to 6 significant digits "
     "(they name the trajectory files and the check ids)", _epsilons),
    ("grid.t_max", 20.0, "a finite number > 0", _positive),
    ("grid.linear_count", 2000, "an integer >= 2",
     lambda v, p: int(_finite(v, lambda n: n == int(n) and n >= 2))),
    ("grid.log_count", 200, "an integer >= 0",
     lambda v, p: int(_finite(v, lambda n: n == int(n) and n >= 0))),
    ("grid.log_floor", 1e-6,
     "a finite number > 0, and < min(1, t_max) when log_count > 0", _positive),
    ("checks", "all",
     f'"all" or a nonempty list of distinct check groups from '
     f'{", ".join(CHECK_GROUPS)} (a run with no check would assert nothing)',
     lambda v, p: CHECK_GROUPS if v == "all"
     else _names(CHECK_GROUPS, v, nonempty=True)),
    ("comparisons", [],
     f"a list of distinct comparisons for rates from {', '.join(COMPARISONS)} "
     '(cor1 and cor2 need "u1": "il0")',
     lambda v, p: _names(COMPARISONS, v)),
    ("tolerances.identity", TOLERANCES["identity"],
     "a finite number >= 0: the identity records' tolerance, relative to "
     "|u0| + |u1|", _nonnegative),
    ("tolerances.superposition", TOLERANCES["superposition"],
     "a finite number >= 0: identity.superposition's tolerance, relative to "
     "|u0| + |u1|", _nonnegative),
    ("tolerances.inequality_slack", TOLERANCES["inequality_slack"],
     "a finite number >= 0: the slack of the L2, by-parts and energy bounds, "
     "relative to max(1, bound)", _nonnegative),
    ("tolerances.sup_bound_slack", TOLERANCES["sup_bound_slack"],
     "a finite number >= 0: the absolute slack of the sup bound", _nonnegative),
    ("tolerances.duhamel", TOLERANCES["duhamel"],
     "a finite number >= 0: duhamel.representation's tolerance, relative to "
     "|v1|", _nonnegative),
)

# The fields of the decay family object of u0 and u1.
_FAMILY = (
    ("family", _REQUIRED, '"decay"', lambda v, p: _name(("decay",), v)),
    ("p", _REQUIRED, "a finite number", lambda v, p: _finite(v)),
)


def _parse_fields(node, fields, prefix: str = "") -> dict:
    """{path: value} for each row of fields, read from the JSON object node,
    whose own path is prefix; a dotted path reads a field of a nested
    object.  A key that no row names, at any level, is a ConfigError, and
    so are a missing required field and a value that its parser rejects."""
    keys = {"": set()}  # object path -> the keys its rows name
    for path, *_ in fields:
        head, _, key = path.rpartition(".")
        keys.setdefault(head, set()).add(key)
        keys[""].add(path.partition(".")[0])
    for head, known in keys.items():
        obj = node.get(head, {}) if head else node
        if not isinstance(obj, dict):
            name = prefix + head if head else prefix[:-1] or "config"
            raise ConfigError(f"{name} must be a JSON object, got {obj!r}")
        unknown = [prefix + (head + "." if head else "") + k for k in obj if k not in known]
        if unknown:
            raise ConfigError(f"unknown config fields {unknown}")
    values = {}
    for path, default, doc, parse in fields:
        head, _, key = path.rpartition(".")
        value = (node.get(head, {}) if head else node).get(key, default)
        name = prefix + path
        if value is _REQUIRED:
            raise ConfigError(f"{name} is required")
        try:
            values[path] = parse(value, name)
        except ConfigError:
            raise
        except ValueError as exc:
            detail = f"; {exc}" if str(exc) else ""
            raise ConfigError(f"{name} must be {doc}, got {value!r}{detail}") from None
    return values


def _field_reference() -> str:
    """Every field of FIELDS with its default and accepted values: the
    --help epilog, and the field list in README.md."""
    lines = []
    for path, default, doc, _ in FIELDS:
        shown = "required" if default is _REQUIRED else f"default {json.dumps(default)}"
        lines += [f"{path} ({shown})", f"    {doc}"]
    return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, {path: value} for every row of FIELDS, read as
    config["epsilons"] or config["grid.t_max"]; round-trips losslessly
    through JSON."""

    values: dict

    def __getitem__(self, path: str):
        return self.values[path]

    @staticmethod
    def parse(raw) -> ExperimentConfig:
        values = _parse_fields(raw, FIELDS)
        floor = values["grid.log_floor"]
        if values["grid.log_count"] and floor >= min(1.0, values["grid.t_max"]):
            raise ConfigError(  # the log points run from log_floor to min(1, t_max)
                f"grid.log_floor must be < min(1, t_max) when log_count > 0, got {floor!r}"
            )
        return ExperimentConfig(values)

    def to_dict(self) -> dict:
        """Canonical, losslessly reparseable form of the config."""
        out = {}
        for path, value in self.values.items():
            head, _, key = path.rpartition(".")
            node = out.setdefault(head, {}) if head else out
            node[key] = list(value) if isinstance(value, tuple) else value
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def time_grid(self, eps_values=()) -> TimeGrid:
        return standard_grid(eps_values, **self.to_dict()["grid"])

    def data(self) -> tuple[Spectrum, np.ndarray, np.ndarray]:
        """The spectrum and the coefficients of the initial data u0, u1."""
        values = self["spectrum"]
        spec = Spectrum(np.array(SPECTRUM_PRESETS.get(values, values), dtype=float))
        n = len(spec)

        def realize(name: str) -> np.ndarray:
            node = self[name]
            if isinstance(node, dict):  # the decay family
                try:
                    return np.array([(1.0 + i) ** (-node["p"]) for i in range(n)])
                except OverflowError:
                    raise ConfigError(
                        f"{name}.p = {node['p']!r} makes the decay coefficients "
                        f"(1+i)^-p overflow for {n} eigenvalues"
                    ) from None
            if len(node) != n:
                raise ConfigError(
                    f"explicit data length {len(node)} does not match "
                    f"spectrum length {n}"
                )
            return np.array(node)

        u0 = realize("u0")
        with np.errstate(over="ignore"):  # an overflow is a ConfigError below
            if self["u1"] == "il0":
                minus_au0 = -spec.eigenvalues * u0
                if not np.all(np.isfinite(minus_au0)):
                    raise ConfigError('u1 "il0" is -A u0, which is not finite')
                return spec, u0, minus_au0
            u1 = realize("u1")
            if not np.all(np.isfinite(spec.eigenvalues * u0 + u1)):
                raise ConfigError("the layer slope A u0 + u1 is not finite")
        return spec, u0, u1


def _load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.parse(raw)


def _write_outputs(out_dir: Path, files, config: ExperimentConfig, timings=None):
    """Write the data files, (name, bytes) pairs, each one as it comes, then a
    manifest listing them, with the stage timings {stage: seconds} if given."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, content in files:
        (out_dir / name).write_bytes(content)
        names.append(name)
    manifest = {
        "tool_version": __version__,
        "config_hash": config.config_hash(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": sorted(names) + ["manifest.json"],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if timings is not None:
        manifest["timings"] = timings
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _trajectory_norms(pd: ProblemData, ts: np.ndarray) -> list[np.ndarray]:
    """The norms of simulate's columns at the times ts: the solution u, the
    parabolic profile v and the layer theta, then the errors u - v,
    u - (v + theta) and u - (the second-order expansion), all from one
    norms_together call."""
    return norms_together(
        (pd.solution, pd.parabolic, pd.theta, pd.main_expansion), ts,
        lambda i, s: [s[0], s[1], s[2], s[0] - s[1], s[0] - (s[1] + s[2]), s[0] - s[3]],
    )


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    """Trajectory norms and profile errors, one CSV per eps, each written as
    soon as it is made.  The manifest's timings give, per eps, the time of
    the norms (norms[eps=...]) and of formatting and writing the CSV
    (csv[eps=...])."""
    from .csvformat import csv_bytes  # not compiled for verify: see csvformat

    spec, u0, u1 = config.data()
    timings: dict[str, float] = {}

    def trajectories():
        for eps in config["epsilons"]:
            tag = f"[eps={eps:g}]"
            pd = ProblemData(spec, eps, u0, u1)
            ts = config.time_grid([eps]).times
            norms = _timed(timings, "norms" + tag, lambda: _trajectory_norms(pd, ts))
            start = time.perf_counter()
            header = "t,norm_u,norm_v,norm_theta,err_order0,err_theta,err_order2"
            yield f"trajectory_eps{eps:g}.csv", csv_bytes(header, [ts, *norms])
            # resumed once the file is written
            timings["csv" + tag] = time.perf_counter() - start

    _write_outputs(out_dir, trajectories(), config, timings)
    return EXIT_OK


def cmd_verify(config: ExperimentConfig, out_dir: Path | None) -> int:
    """Run the configured checks; exit 0 iff every check passes."""
    reports, timings = _run_checks(config)
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if out_dir is not None:
        _write_outputs(out_dir, [("report.json", payload.encode())], config, timings)
    else:
        sys.stdout.write(payload)
    failed = [r.check_id for r in reports if not r.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_rates(config: ExperimentConfig, out_dir: Path) -> int:
    """One eps sweep for every comparison: two-column CSVs plus fitted rates.
    Each eps's problem is built in turn, and its exact solution is sampled
    once for all the comparisons (rate_errors).  The manifest's timings
    name the stages as verify does: each eps's rate errors as
    rates[eps=...], then the fits as rates."""
    from .csvformat import csv_bytes  # not compiled for verify: see csvformat

    epsilons, comparisons = config["epsilons"], config["comparisons"]
    if len(epsilons) < 3:
        raise ConfigError("rates need at least 3 eps values")
    spec, u0, u1 = config.data()
    ts = config.time_grid(epsilons).times
    timings: dict[str, float] = {}
    per_eps = []
    for eps in epsilons:
        pd = ProblemData(spec, eps, u0, u1)  # one problem at a time
        errors = _timed(timings, f"rates[eps={eps:g}]", lambda: rate_errors(pd, comparisons, ts))
        per_eps.append((eps, errors))
    results = _timed(timings, "rates", lambda: run_rate_experiment(per_eps, comparisons))
    files: dict[str, bytes] = {}
    fits = []
    for comp, result in results.items():
        if isinstance(result, ValueError):
            raise ConfigError(f"comparison {comp!r}: {result}") from result
        curve, fit = result
        files[f"rates_{comp}.csv"] = csv_bytes(
            "epsilon,error", [curve.epsilons, curve.errors]
        )
        fits.append(
            {
                "comparison": comp,
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r2": fit.r_squared,
            }
        )
    files["report.json"] = (json.dumps(fits, indent=2) + "\n").encode()
    # written once all are made, so that a failed fit above writes nothing
    _write_outputs(out_dir, files.items(), config, timings)
    return EXIT_OK


def cmd_presets() -> int:
    print("spectrum presets:")
    for name, values in SPECTRUM_PRESETS.items():
        if len(values) <= 4:
            shown = ", ".join(fmt(v) for v in values)
        else:
            shown = (
                f"{fmt(values[0])}, {fmt(values[1])}, ... ({len(values)} eigenvalues)"
            )
        print(f"  {name}: [{shown}]")
    print("data (u0, u1):")
    print("  " + next(doc for path, _, doc, _ in FIELDS if path == "u1"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlim",
        description="simulate and verify the vanishing-inertia limit of damped\n"
        "second-order evolution equations at finite spectral resolution",
        epilog="config fields (a JSON object; a dotted name is a field of a "
        "nested object):\n" + _field_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, out_required in (
        ("simulate", "write trajectory CSVs", True),
        ("verify", "run checks, write report.json (stdout without --out)", False),
        ("rates", "eps sweeps with log-log rate fits", True),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("--config", required=True)
        command.add_argument("--out", required=out_required)
    sub.add_parser("presets", help="list spectrum presets and data families")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets()
        config = _load_config(args.config)
        out = Path(args.out) if args.out else None
        run = {"simulate": cmd_simulate, "verify": cmd_verify, "rates": cmd_rates}
        return run[args.command](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
