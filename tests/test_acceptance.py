"""Acceptance suite: one test per criterion, one printed line per criterion."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from singlim.modes import rk_reference_path, solve_forced
from singlim.profiles import ProblemData
from singlim.spectral import SpecVector, Spectrum, norm
from singlim.timegrid import standard_grid
from singlim.verification import (
    byparts_convolution_bound,
    energy_inequality_checks,
    explicit_sup_bound,
    identity_checks,
    l2_deviation_bounds,
    max_reg_checks,
    rate_errors,
    resolvent_bound,
    run_rate_experiment,
)

from conftest import (
    cli_env,
    decay_vector,
    oracle_generator_cases,
    oracle_rel_err,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = REPO_ROOT / "configs" / "default.json"

ACCEPTANCE_PRESETS = {
    "single-mode": [1.0],
    "three-mode": [0.0, 1.0, 4.0],
    "neumann-33": [(k * math.pi) ** 2 for k in range(0, 33)],
}


def _problem(lams, eps, il0=False) -> ProblemData:
    spec = Spectrum(np.array(lams, dtype=float))
    u0 = decay_vector(len(lams), 2.0)
    if il0:
        u1 = SpecVector(-spec.eigenvalues * u0.coefficients)
    else:
        u1 = decay_vector(len(lams), 2.0)
    return ProblemData(spec, eps, u0, u1)


def _announce(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {verdict} ({elapsed:.1f}s){detail}")


def test_criterion_1_identity_suite():
    start = time.time()
    failures = []
    for name, lams in ACCEPTANCE_PRESETS.items():
        for eps in (1e-1, 1e-2, 1e-3):
            pd = _problem(lams, eps)
            grid = standard_grid([eps])
            for report in identity_checks(pd, grid, tol=1e-8):
                if not report.passed:
                    failures.append(f"{name}/eps={eps:g}/{report.check_id}")
    elapsed = time.time() - start
    ok = not failures and elapsed <= 30.0
    _announce(1, "identity suite", ok, elapsed, f" failures={failures}" if failures else "")
    assert not failures, failures
    assert elapsed <= 30.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_explicit_inequality_suite():
    start = time.time()
    failures = []
    for name, lams in ACCEPTANCE_PRESETS.items():
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            pd = _problem(lams, eps)
            grid = standard_grid([eps])
            reports = [resolvent_bound(pd.spec, eps, f) for f in (pd.u0, pd.u1, pd.v1)]
            reports.extend(
                energy_inequality_checks(pd, grid)
            )
            reports.append(explicit_sup_bound(pd, grid))
            reports.extend(l2_deviation_bounds(pd, grid))
            reports.append(byparts_convolution_bound(pd, grid))
            for report in reports:
                if not report.passed:
                    failures.append(f"{name}/eps={eps:g}/{report.check_id}")
    elapsed = time.time() - start
    ok = not failures and elapsed <= 30.0
    _announce(2, "explicit-constant inequalities", ok, elapsed, f" failures={failures}" if failures else "")
    assert not failures, failures
    assert elapsed <= 30.0, f"inequality suite took {elapsed:.1f}s"


def test_criterion_3_dissipation_functional():
    start = time.time()
    failures = []
    documented = 0
    for name in ("three-mode", "neumann-33"):
        lams = ACCEPTANCE_PRESETS[name]
        spec = Spectrum(np.array(lams))
        f = decay_vector(len(lams), 2.0)
        grid = standard_grid([])
        for report in max_reg_checks(spec, f, grid):
            if "finite_time_gap" in report.check_id:
                documented += 1
                if report.margin <= 0:
                    failures.append(f"{name}/{report.check_id}: no gap measured")
            elif not report.passed:
                failures.append(f"{name}/{report.check_id}")
    elapsed = time.time() - start
    ok = not failures and documented == 4 and elapsed <= 5.0
    _announce(3, "dissipation functionals", ok, elapsed, f" failures={failures}" if failures else "")
    assert not failures, failures
    assert documented == 4
    assert elapsed <= 5.0, f"dissipation checks took {elapsed:.1f}s"


def test_criterion_4_rate_reproduction():
    start = time.time()
    spec = Spectrum(np.array(ACCEPTANCE_PRESETS["three-mode"]))
    u0 = decay_vector(3, 2.0)
    u1 = decay_vector(3, 2.0)
    u1_compatible = SpecVector(-spec.eigenvalues * u0.coefficients)
    eps_list = [10.0 ** (-1.0 - 0.5 * k) for k in range(7)]  # 1e-1 .. 1e-4
    grid = standard_grid(eps_list)
    failures = []
    results = {}
    thresholds = {
        "order0_thm11ii": 0.95,
        "order2_mainthm": 1.45,
        "cor1": 1.45,
        "cor2": 1.45,
    }
    # one sweep per u1: the cor comparisons need compatible data
    sweeps = (
        (u1, ("order0_thm11ii", "order2_mainthm")),
        (u1_compatible, ("cor1", "cor2")),
    )
    for data_u1, comparisons in sweeps:
        per_eps = [
            (eps, rate_errors(ProblemData(spec, eps, u0, data_u1), comparisons, grid.times))
            for eps in eps_list
        ]
        sweep = run_rate_experiment(per_eps, comparisons)
        for comparison in comparisons:
            _, fit = sweep[comparison]
            threshold = thresholds[comparison]
            results[comparison] = (fit.slope, fit.r_squared)
            if fit.slope < threshold:
                failures.append(f"{comparison}: slope {fit.slope:.3f} < {threshold}")
            if fit.r_squared < 0.99:
                failures.append(f"{comparison}: r2 {fit.r_squared:.4f} < 0.99")
    elapsed = time.time() - start
    detail = " " + ", ".join(
        f"{c}: slope={s:.3f} r2={r:.4f}" for c, (s, r) in results.items()
    )
    ok = not failures and elapsed <= 60.0
    _announce(4, "rate reproduction", ok, elapsed, detail)
    assert not failures, failures
    assert elapsed <= 60.0, f"rate suite took {elapsed:.1f}s"


def test_criterion_5_oracle_equivalence():
    start = time.time()
    failures = []
    for case, (params, forcing, ts) in enumerate(oracle_generator_cases()):
        ys, dys = rk_reference_path(params, forcing, ts, 1e-11)
        closed = solve_forced(params, forcing).poly.value(ts)
        worst = oracle_rel_err(closed, ys)
        if worst > 1e-8:
            failures.append(
                f"case {case}: eps={params.eps:.2e} lam={params.lam:.2e} "
                f"rel err {worst:.2e}"
            )
    elapsed = time.time() - start
    ok = not failures and elapsed <= 30.0
    _announce(5, "oracle equivalence", ok, elapsed, f" failures={failures}" if failures else "")
    assert not failures, failures
    assert elapsed <= 30.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_6_cli_contract(tmp_path):
    start = time.time()

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "singlim.cli", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=cli_env(),
        )

    failures = []

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    r1 = run("verify", "--config", str(DEFAULT_CONFIG), "--out", str(out1))
    if r1.returncode != 0:
        failures.append(f"default verify exited {r1.returncode}: {r1.stderr[-300:]}")
    r2 = run("verify", "--config", str(DEFAULT_CONFIG), "--out", str(out2))
    if r2.returncode != 0:
        failures.append(f"repeat verify exited {r2.returncode}")
    if not failures:
        b1 = (out1 / "report.json").read_bytes()
        b2 = (out2 / "report.json").read_bytes()
        if b1 != b2:
            failures.append("report.json differs across repeated runs")

    # corrupting one identity tolerance must flip the exit code
    corrupted = json.loads(DEFAULT_CONFIG.read_text())
    corrupted["tolerances"] = {"identity": 1e-20}
    bad_cfg = tmp_path / "corrupted.json"
    bad_cfg.write_text(json.dumps(corrupted))
    r3 = run("verify", "--config", str(bad_cfg), "--out", str(tmp_path / "bad"))
    if r3.returncode != 1:
        failures.append(f"corrupted tolerance exited {r3.returncode}, expected 1")

    # simulate and rates outputs are byte-identical across runs
    sim1, sim2 = tmp_path / "sim1", tmp_path / "sim2"
    run("simulate", "--config", str(DEFAULT_CONFIG), "--out", str(sim1))
    run("simulate", "--config", str(DEFAULT_CONFIG), "--out", str(sim2))
    for csv in sorted(sim1.glob("trajectory_*.csv")):
        if (sim1 / csv.name).read_bytes() != (sim2 / csv.name).read_bytes():
            failures.append(f"{csv.name} differs across repeated runs")

    elapsed = time.time() - start
    ok = not failures
    _announce(6, "cli contract", ok, elapsed, f" failures={failures}" if failures else "")
    assert not failures, failures
