"""Configuration-driven experiment runner with deterministic outputs.

Subcommands: simulate (trajectory tables), verify (check reports with an
exit-code contract), rates (eps sweeps with log-log fits), presets.  All
numeric output is printed with 17 significant digits so binary64 values
round-trip; identical configs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .profiles import (
    ProblemData,
    corrector_remainder,
    exact_solution,
    main_expansion_profile,
    parabolic_profile,
    sample_together,
    theta_layer,
)
from .spectral import SpecVector, Spectrum, apply_power, norm
from .timegrid import TimeGrid, standard_grid
from .verification import (
    COMPARISON_EXPONENTS,
    COMPARISONS,
    CheckReport,
    ErrorCurve,
    byparts_convolution_bound,
    duhamel_residual,
    energy_inequality_checks,
    explicit_sup_bound,
    fit_rate,
    identity_checks,
    l2_deviation_bounds,
    max_reg_checks,
    remainder_data_checks,
    resolvent_bound_margin,
    run_rate_experiment,
    squared_norms,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "SPECTRUM_PRESETS",
    "main",
]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

CHECK_GROUPS = (
    "identities",
    "data",
    "inequalities",
    "energy",
    "maxreg",
    "duhamel",
    "rates",
)

_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


def _number(value, field: str, check=lambda x: True, expect="a finite number") -> float:
    """A finite JSON number that passes ``check``, as a float; anything else
    is a ConfigError that names the field and the expected range."""
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # False for NaN and infinities
        and check(value)
    ):
        return float(value)
    raise ConfigError(f"{field} must be {expect}, got {value!r}")


def _count(value, field: str, least: int) -> int:
    expect = f"an integer >= {least}"
    return int(_number(value, field, lambda n: n == int(n) and n >= least, expect))


def _preset_dirichlet(count: int) -> list[float]:
    return [(k * math.pi) ** 2 for k in range(1, count + 1)]


def _preset_neumann(count: int) -> list[float]:
    return [(k * math.pi) ** 2 for k in range(0, count)]


SPECTRUM_PRESETS: dict[str, list[float]] = {
    "single-mode": [1.0],
    "three-mode": [0.0, 1.0, 4.0],
    "dirichlet-32": _preset_dirichlet(32),
    "neumann-33": _preset_neumann(33),
}


def fmt(x: float) -> str:
    """17-significant-digit formatting: lossless for binary64."""
    return f"{float(x):.17g}"


def _csv(header: str, columns) -> str:
    """CSV text: the header, then row i of the columns formatted like fmt."""
    row = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join([header, *(row % r for r in rows)]) + "\n"


@dataclass(frozen=True)
class GridParams:
    t_max: float = 20.0
    linear_count: int = 2000
    log_count: int = 200
    log_floor: float = 1e-6

    def build(self, eps_values=()) -> TimeGrid:
        return standard_grid(
            eps_values,
            t_max=self.t_max,
            linear_count=self.linear_count,
            log_count=self.log_count,
            log_floor=self.log_floor,
        )


_DEFAULT_TOLERANCES = {
    "identity": 1e-8,
    "superposition": 1e-10,
    "inequality_slack": 1e-8,
    "sup_bound_slack": 1e-10,
    "duhamel": 1e-6,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; round-trips losslessly through JSON."""

    spectrum: str | tuple[float, ...]
    u0: dict | tuple[float, ...]
    u1: dict | tuple[float, ...] | str
    epsilons: tuple[float, ...]
    grid: GridParams
    checks: tuple[str, ...]
    comparisons: tuple[str, ...]
    tolerances: dict[str, float]
    synthetic_exponent: float | None

    @staticmethod
    def parse(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        version = raw.get("schema_version")
        if version != _SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version!r}; expected {_SCHEMA_VERSION}"
            )
        known = {
            "schema_version",
            "spectrum",
            "u0",
            "u1",
            "epsilons",
            "grid",
            "checks",
            "comparisons",
            "tolerances",
            "synthetic_exponent",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")

        spectrum = raw.get("spectrum", "three-mode")
        if isinstance(spectrum, str):
            if spectrum not in SPECTRUM_PRESETS:
                raise ConfigError(
                    f"unknown spectrum preset {spectrum!r}; "
                    f"available: {sorted(SPECTRUM_PRESETS)}"
                )
        elif isinstance(spectrum, list) and spectrum:
            spectrum = tuple(
                _number(x, "spectrum", lambda x: x >= 0, "finite numbers >= 0")
                for x in spectrum
            )
        else:
            raise ConfigError("spectrum must be a preset name or a nonempty list")

        u0 = ExperimentConfig._parse_data_spec(raw.get("u0"), "u0", allow_il0=False)
        u1 = ExperimentConfig._parse_data_spec(raw.get("u1"), "u1", allow_il0=True)

        eps_raw = raw.get("epsilons")
        if not isinstance(eps_raw, list) or not eps_raw:
            raise ConfigError("epsilons must be a nonempty list")
        epsilons = tuple(
            _number(e, "epsilons", lambda e: 0 < e <= 1, "numbers in (0, 1]")
            for e in eps_raw
        )
        labels = [f"{e:g}" for e in epsilons]  # name trajectory files and check ids
        clash = [e for e, label in zip(epsilons, labels) if labels.count(label) > 1]
        if clash:
            raise ConfigError(
                f"epsilons must be distinct to 6 significant digits, the "
                f"precision of file names and check ids; {clash} are not"
            )

        grid_raw = raw.get("grid", {})
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object")
        unknown = set(grid_raw) - {"t_max", "linear_count", "log_count", "log_floor"}
        if unknown:
            raise ConfigError(f"unknown grid fields: {sorted(unknown)}")
        get = grid_raw.get
        positive = (lambda x: x > 0, "a finite number > 0")
        grid = GridParams(
            t_max=_number(get("t_max", 20.0), "grid.t_max", *positive),
            linear_count=_count(get("linear_count", 2000), "grid.linear_count", 2),
            log_count=_count(get("log_count", 200), "grid.log_count", 0),
            log_floor=_number(get("log_floor", 1e-6), "grid.log_floor", *positive),
        )
        if grid.log_count and grid.log_floor >= min(1.0, grid.t_max):
            raise ConfigError(  # the log points run from log_floor to min(1, t_max)
                f"grid.log_floor must be < min(1, t_max), got {grid.log_floor!r}"
            )

        checks_raw = raw.get("checks", "all")
        if checks_raw == "all":
            checks = CHECK_GROUPS
        elif isinstance(checks_raw, list):
            bad = [c for c in checks_raw if c not in CHECK_GROUPS]
            if bad:
                raise ConfigError(
                    f"unknown check groups {bad}; available: {list(CHECK_GROUPS)}"
                )
            checks = tuple(checks_raw)
        else:
            raise ConfigError('checks must be "all" or a list of group names')

        comp_raw = raw.get("comparisons", [])
        if not isinstance(comp_raw, list):
            raise ConfigError("comparisons must be a list")
        bad = [c for c in comp_raw if c not in COMPARISONS]
        if bad:
            raise ConfigError(
                f"unknown comparisons {bad}; available: {list(COMPARISONS)}"
            )
        comparisons = tuple(comp_raw)

        tol_raw = raw.get("tolerances", {})
        if not isinstance(tol_raw, dict):
            raise ConfigError("tolerances must be an object")
        bad = [k for k in tol_raw if k not in _DEFAULT_TOLERANCES]
        if bad:
            raise ConfigError(
                f"unknown tolerance keys {bad}; "
                f"available: {sorted(_DEFAULT_TOLERANCES)}"
            )
        tolerances = dict(_DEFAULT_TOLERANCES)
        for k, v in tol_raw.items():
            tolerances[k] = _number(
                v, f"tolerances.{k}", lambda x: x >= 0, "a finite number >= 0"
            )

        synthetic = raw.get("synthetic_exponent")
        if synthetic is not None:
            synthetic = _number(synthetic, "synthetic_exponent")

        return ExperimentConfig(
            spectrum=spectrum,
            u0=u0,
            u1=u1,
            epsilons=epsilons,
            grid=grid,
            checks=checks,
            comparisons=comparisons,
            tolerances=tolerances,
            synthetic_exponent=synthetic,
        )

    @staticmethod
    def _parse_data_spec(node, name: str, allow_il0: bool):
        if node is None:
            raise ConfigError(f"{name} is required")
        if isinstance(node, str):
            if node == "il0" and allow_il0:
                return "il0"
            raise ConfigError(
                f'{name} must be a list, a decay family, or "il0" (u1 only)'
            )
        if isinstance(node, list):
            return tuple(_number(x, name, expect="finite numbers") for x in node)
        if isinstance(node, dict):
            if node.get("family") != "decay" or "p" not in node:
                raise ConfigError(
                    f'{name} family spec must be {{"family": "decay", "p": <num>}}'
                )
            return {"family": "decay", "p": _number(node["p"], f"{name}.p")}
        raise ConfigError(f"{name} has unsupported type {type(node).__name__}")

    def to_dict(self) -> dict:
        """Canonical, losslessly reparseable form of the config."""
        spectrum = (
            self.spectrum if isinstance(self.spectrum, str) else list(self.spectrum)
        )

        return {
            "schema_version": _SCHEMA_VERSION,
            "spectrum": spectrum,
            "u0": list(self.u0) if isinstance(self.u0, tuple) else self.u0,
            "u1": list(self.u1) if isinstance(self.u1, tuple) else self.u1,
            "epsilons": list(self.epsilons),
            "grid": {
                "t_max": self.grid.t_max,
                "linear_count": self.grid.linear_count,
                "log_count": self.grid.log_count,
                "log_floor": self.grid.log_floor,
            },
            "checks": list(self.checks),
            "comparisons": list(self.comparisons),
            "tolerances": dict(sorted(self.tolerances.items())),
            "synthetic_exponent": self.synthetic_exponent,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def build_spectrum(self) -> Spectrum:
        values = (
            SPECTRUM_PRESETS[self.spectrum]
            if isinstance(self.spectrum, str)
            else self.spectrum
        )
        return Spectrum(np.array(values, dtype=float))

    def build_data(self, spec: Spectrum) -> tuple[SpecVector, SpecVector]:
        u0 = self._realize(self.u0, spec, None)
        u1 = self._realize(self.u1, spec, u0)
        return u0, u1

    @staticmethod
    def _realize(node, spec: Spectrum, u0: SpecVector | None) -> SpecVector:
        n = len(spec)
        if node == "il0":
            assert u0 is not None
            return SpecVector(-spec.eigenvalues * u0.coefficients)
        if isinstance(node, tuple):
            if len(node) != n:
                raise ConfigError(
                    f"explicit data length {len(node)} does not match "
                    f"spectrum length {n}"
                )
            return SpecVector(np.array(node))
        p = node["p"]
        return SpecVector(np.array([(1.0 + i) ** (-p) for i in range(n)]))

    def problem(self, eps: float) -> ProblemData:
        spec = self.build_spectrum()
        u0, u1 = self.build_data(spec)
        return ProblemData(spec, eps, u0, u1)


@dataclass(frozen=True)
class RunManifest:
    tool_version: str
    config_hash: str
    timestamp: str
    files: tuple[str, ...]
    environment: dict[str, str]  # python, numpy and scipy versions

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config_hash": self.config_hash,
            "timestamp": self.timestamp,
            "files": list(self.files),
            "environment": self.environment,
        }


def _load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return ExperimentConfig.parse(raw)


def _write_outputs(out_dir: Path, files: dict[str, str], config: ExperimentConfig):
    """Write data files plus a manifest listing them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out_dir / name).write_text(content)
    manifest = RunManifest(
        tool_version=__version__,
        config_hash=config.config_hash(),
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        files=tuple(sorted(files) + ["manifest.json"]),
        environment={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> int:
    """Trajectory norms and profile errors, one CSV per eps.

    Per eps the solution, the parabolic profile, the layer and the
    second-order expansion are sampled together in one sample_together call.
    """
    spec = config.build_spectrum()
    u0, u1 = config.build_data(spec)
    files: dict[str, str] = {}
    for eps in config.epsilons:
        pd = ProblemData(spec, eps, u0, u1)
        ts = config.grid.build([eps]).times
        su, sv, sth, sexp = sample_together(
            (
                exact_solution(pd),
                parabolic_profile(pd),
                theta_layer(pd),
                main_expansion_profile(pd),
            ),
            ts,
        )
        # every sample and difference is squared in place, after its last use
        errors = [
            squared_norms(su - sv),
            squared_norms(su - (sv + sth)),
            squared_norms(su - sexp),
        ]
        sizes = [squared_norms(x) for x in (su, sv, sth)]
        columns = [ts] + [np.sqrt(x) for x in sizes + errors]
        del su, sv, sth, sexp  # free this eps's samples before the next are made
        header = "t,norm_u,norm_v,norm_theta,err_order0,err_theta,err_order2"
        files[f"trajectory_eps{eps:g}.csv"] = _csv(header, columns)
    _write_outputs(out_dir, files, config)
    return EXIT_OK


def _rate_reports(config: ExperimentConfig, spec, u0, u1, grid) -> list[CheckReport]:
    """Slope checks for the requested comparisons (one-sided thresholds)."""
    results = run_rate_experiment(
        spec, u0, u1, config.epsilons, config.comparisons, grid
    )
    reports = []
    for comp in config.comparisons:
        result = results[comp]
        threshold = COMPARISON_EXPONENTS[comp] - 0.05
        if isinstance(result, ValueError):
            reports.append(
                CheckReport(
                    check_id=f"rate.slope_{comp}",
                    passed=False,
                    margin=float("-inf"),
                    tolerance=threshold,
                    note=f"precondition violated: {result}",
                )
            )
            continue
        _, fit = result
        ok = fit.slope >= threshold and fit.r_squared >= 0.99
        reports.append(
            CheckReport(
                check_id=f"rate.slope_{comp}",
                passed=ok,
                margin=min(fit.slope - threshold, fit.r_squared - 0.99),
                tolerance=threshold,
                note=f"fitted slope {fit.slope:.4f} (threshold {threshold:g}), "
                f"r^2 {fit.r_squared:.6f}",
            )
        )
    return reports


def _run_checks(config: ExperimentConfig) -> list[CheckReport]:
    spec = config.build_spectrum()
    u0, u1 = config.build_data(spec)
    tol = config.tolerances
    reports: list[CheckReport] = []

    base_grid = config.grid.build(config.epsilons)
    for eps in config.epsilons:
        pd = ProblemData(spec, eps, u0, u1)
        grid = config.grid.build([eps])
        suffix = f"[eps={eps:g}]"
        # corrector_remainder(pd, j), built at most once per eps
        remainder = functools.cache(functools.partial(corrector_remainder, pd))

        def tagged(rs):
            for r in rs:
                r.check_id += suffix
            return rs

        if "identities" in config.checks:
            reports.extend(
                tagged(
                    identity_checks(
                        pd, grid, (remainder(1), remainder(2)), tol=tol["identity"]
                    )
                )
            )
        if "data" in config.checks:
            reports.extend(
                tagged(remainder_data_checks(pd, (remainder(1), remainder(2))))
            )
        if "inequalities" in config.checks:
            margin = min(
                resolvent_bound_margin(spec, eps, f)
                for f in (u0, u1, pd.v1)
            )
            reports.append(
                CheckReport(
                    check_id="bound.resolvent_halfpower" + suffix,
                    passed=margin >= 0.0,
                    margin=margin,
                    tolerance=0.0,
                    note="smoothed half-power norm stays below |f|^2/eps "
                    "for the initial data and the layer slope",
                )
            )
            reports.extend(
                tagged([explicit_sup_bound(pd, grid, slack=tol["sup_bound_slack"])])
            )
            w1 = _certify_halfpower_range(spec, u1)
            reports.extend(
                tagged(
                    l2_deviation_bounds(
                        pd, grid, w1=w1, slack=tol["inequality_slack"]
                    )
                )
            )
            if w1 is None and np.any(
                (spec.eigenvalues == 0) & (u1.coefficients != 0)
            ):
                reports.append(
                    CheckReport(
                        check_id="bound.l2_semigroup_range_half" + suffix,
                        passed=True,
                        margin=0.0,
                        tolerance=0.0,
                        note="skipped: u1 has a stationary kernel component, "
                        "so it is not in the half-power range and its "
                        "semigroup flow is not square integrable in time",
                    )
                )
            reports.extend(
                tagged(
                    [byparts_convolution_bound(pd, grid, slack=tol["inequality_slack"])]
                )
            )
        if "energy" in config.checks:
            reports.extend(
                tagged(
                    energy_inequality_checks(
                        pd,
                        grid,
                        slack=tol["inequality_slack"],
                        remainders=(remainder(1), remainder(2)),
                    )
                )
            )
        if "duhamel" in config.checks:
            reports.extend(
                tagged(
                    duhamel_residual(
                        pd,
                        grid,
                        remainder(2),
                        tol=tol["duhamel"],
                        include_byparts="inequalities" not in config.checks,
                    )
                )
            )

    if "maxreg" in config.checks:
        f = u0 if norm(u0) > 0 else u1
        reports.extend(max_reg_checks(spec, f, base_grid))
    if "rates" in config.checks and config.comparisons:
        reports.extend(_rate_reports(config, spec, u0, u1, base_grid))

    reports.sort(key=lambda r: r.check_id)
    return reports


def _certify_halfpower_range(spec: Spectrum, u1: SpecVector) -> SpecVector | None:
    """w1 with A^{1/2} w1 = u1, if u1 has no kernel component."""
    lam = spec.eigenvalues
    if np.any((lam == 0) & (u1.coefficients != 0)):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(lam > 0, u1.coefficients / np.sqrt(np.where(lam > 0, lam, 1.0)), 0.0)
    w1 = SpecVector(coeffs)
    if norm(apply_power(spec, 0.5, w1) - u1) > 1e-12 * max(1.0, norm(u1)):
        return None
    return w1


def cmd_verify(config: ExperimentConfig, out_dir: Path | None) -> int:
    """Run the configured checks; exit 0 iff every check passes."""
    reports = _run_checks(config)
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    if out_dir is not None:
        _write_outputs(out_dir, {"report.json": payload}, config)
    else:
        sys.stdout.write(payload)
    failed = [r.check_id for r in reports if not r.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_rates(config: ExperimentConfig, out_dir: Path) -> int:
    """One eps sweep for every comparison: two-column CSVs plus fitted rates.

    The sweep (run_rate_experiment) builds and samples each eps's exact
    solution once for all the requested comparisons.
    """
    if len(config.epsilons) < 3:
        raise ConfigError("rates need at least 3 eps values")
    spec = config.build_spectrum()
    u0, u1 = config.build_data(spec)
    grid = config.grid.build(config.epsilons)
    results = run_rate_experiment(
        spec, u0, u1, config.epsilons, config.comparisons, grid
    )
    experiments = [(comp, results[comp]) for comp in config.comparisons]
    if config.synthetic_exponent is not None:
        eps = np.array(sorted(config.epsilons, reverse=True))
        try:
            curve = ErrorCurve(eps, eps**config.synthetic_exponent)
            synthetic = curve, fit_rate(curve)
        except ValueError as exc:
            synthetic = exc
        experiments.append(("synthetic", synthetic))
    files: dict[str, str] = {}
    fits = []
    for comp, result in experiments:
        if isinstance(result, ValueError):
            raise ConfigError(f"comparison {comp!r}: {result}") from result
        curve, fit = result
        files[f"rates_{comp}.csv"] = _csv(
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
    files["report.json"] = json.dumps(fits, indent=2) + "\n"
    _write_outputs(out_dir, files, config)
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
    print("data families:")
    print('  explicit list of coefficients, e.g. "u0": [1.0, 0.5]')
    print('  decay-p family: {"family": "decay", "p": 2.0} gives c_i = (1+i)^-p')
    print('  "il0" (u1 only): sets u1 = -A u0 so the layer slope vanishes')
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlim",
        description="simulate and verify the vanishing-inertia limit of "
        "damped second-order evolution equations at finite spectral "
        "resolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write trajectory CSVs")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run checks, write report.json")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out")

    p_rate = sub.add_parser("rates", help="eps sweeps with log-log rate fits")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--out", required=True)

    sub.add_parser("presets", help="list spectrum presets and data families")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return cmd_presets()
        config = _load_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(config, Path(args.out))
        if args.command == "verify":
            out = Path(args.out) if args.out else None
            return cmd_verify(config, out)
        if args.command == "rates":
            return cmd_rates(config, Path(args.out))
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
