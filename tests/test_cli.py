import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from singlim.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    SPECTRUM_PRESETS,
    main,
)

from conftest import cli_env

BASE_CONFIG = {
    "schema_version": 1,
    "spectrum": "single-mode",
    "u0": [1.0],
    "u1": [0.0],
    "epsilons": [0.1, 0.01],
    "grid": {"t_max": 20.0, "linear_count": 400, "log_count": 80, "log_floor": 1e-6},
    "checks": ["identities"],
    "comparisons": [],
    "tolerances": {},
}


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestPresets:
    def test_listing_names(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("single-mode", "three-mode", "dirichlet-32", "neumann-33"):
            assert name in out
        assert "il0" in out
        assert "decay" in out

    def test_dirichlet_first_eigenvalue(self):
        assert SPECTRUM_PRESETS["dirichlet-32"][0] == pytest.approx(
            math.pi**2, rel=1e-12
        )
        assert len(SPECTRUM_PRESETS["dirichlet-32"]) == 32

    def test_neumann_has_kernel_mode(self):
        assert SPECTRUM_PRESETS["neumann-33"][0] == 0.0
        assert len(SPECTRUM_PRESETS["neumann-33"]) == 33

    def test_three_mode_is_noncoercive(self):
        assert 0.0 in SPECTRUM_PRESETS["three-mode"]


class TestConfig:
    def test_round_trip_idempotent(self, tmp_path):
        cfg = ExperimentConfig.parse(dict(BASE_CONFIG))
        again = ExperimentConfig.parse(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()
        assert cfg.config_hash() == again.config_hash()

    def test_rejects_unknown_preset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse({**BASE_CONFIG, "spectrum": "mystery"})

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse({**BASE_CONFIG, "epsilons": [2.0]})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse({**BASE_CONFIG, "surprise": 1})

    def test_rejects_bad_schema_version(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse({**BASE_CONFIG, "schema_version": 99})

    def test_length_mismatch(self):
        cfg = ExperimentConfig.parse({**BASE_CONFIG, "u0": [1.0, 2.0]})
        with pytest.raises(ConfigError):
            cfg.problem(0.1)

    def test_il0_data(self):
        cfg = ExperimentConfig.parse(
            {**BASE_CONFIG, "spectrum": "three-mode", "u0": [1.0, 1.0, 1.0], "u1": "il0"}
        )
        pd = cfg.problem(0.1)
        assert pd.il0_satisfied

    def test_decay_family(self):
        cfg = ExperimentConfig.parse(
            {
                **BASE_CONFIG,
                "spectrum": "three-mode",
                "u0": {"family": "decay", "p": 2.0},
                "u1": {"family": "decay", "p": 2.0},
            }
        )
        pd = cfg.problem(0.1)
        np.testing.assert_allclose(
            pd.u0.coefficients, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15
        )


class TestSimulate:
    def test_csv_structure(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        csv1 = out / "trajectory_eps0.1.csv"
        assert csv1.exists()
        lines = csv1.read_text().splitlines()
        assert lines[0] == "t,norm_u,norm_v,norm_theta,err_order0,err_theta,err_order2"
        first = lines[1].split(",")
        # t = 0 row: profile errors vanish exactly
        assert float(first[0]) == 0.0
        assert float(first[4]) == 0.0
        assert float(first[6]) == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trajectory_eps0.1.csv" in manifest["files"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_zero_data_gives_zero_errors(self, tmp_path):
        cfg = write_config(tmp_path, u0=[0.0], u1=[0.0])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for line in (out / "trajectory_eps0.1.csv").read_text().splitlines()[1:]:
            cells = [float(x) for x in line.split(",")]
            assert cells[1:] == [0.0] * 6

    def test_error_scale_tracks_eps(self, tmp_path):
        cfg = write_config(tmp_path, epsilons=[0.01])
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        rows = (out / "trajectory_eps0.01.csv").read_text().splitlines()[1:]
        err0 = max(float(r.split(",")[4]) for r in rows)
        assert err0 == pytest.approx(0.01, rel=0.5)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        for name in ("trajectory_eps0.1.csv", "trajectory_eps0.01.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trajectory_eps0.1.csv").read_text().splitlines()
        # values round-trip exactly through the printed representation
        for line in lines[1:50]:
            for cell in line.split(","):
                assert f"{float(cell):.17g}" == cell


class TestVerify:
    def test_exit_zero_and_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report
        assert all(set(r) == {"id", "pass", "margin", "tolerance", "note"} for r in report)
        assert all(r["pass"] for r in report)
        ids = [r["id"] for r in report]
        assert ids == sorted(ids)

    def test_corrupted_tolerance_flips_exit(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"identity": 1e-20})
        out = tmp_path / "out"
        assert (
            main(["verify", "--config", str(cfg), "--out", str(out)])
            == EXIT_CHECK_FAILURE
        )
        report = json.loads((out / "report.json").read_text())
        assert any(not r["pass"] for r in report)

    def test_stdout_when_no_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", str(cfg)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)

    def test_precondition_failure_is_reported(self, tmp_path):
        cfg = write_config(
            tmp_path, checks=["rates"], comparisons=["cor2"], epsilons=[0.1, 0.05, 0.01]
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CHECK_FAILURE
        report = json.loads((out / "report.json").read_text())
        assert any("precondition" in r["note"] for r in report)

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", str(cfg), "--out", str(out1)])
        main(["verify", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestRates:
    def test_synthetic_self_test(self, tmp_path):
        cfg = write_config(
            tmp_path,
            epsilons=[0.1, 0.05, 0.01, 0.005],
            comparisons=[],
            synthetic_exponent=2.0,
        )
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        fits = json.loads((out / "report.json").read_text())
        syn = next(f for f in fits if f["comparison"] == "synthetic")
        assert syn["slope"] == pytest.approx(2.0, abs=1e-10)
        csv = (out / "rates_synthetic.csv").read_text().splitlines()
        assert csv[0] == "epsilon,error"

    def test_comparison_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[0.1, 0.01, 0.001],
            comparisons=["order0_thm11ii"],
        )
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "rates_order0_thm11ii.csv").exists()
        fits = json.loads((out / "report.json").read_text())
        assert fits[0]["slope"] >= 0.95

    def test_too_few_eps(self, tmp_path):
        cfg = write_config(tmp_path, epsilons=[0.1, 0.01])
        out = tmp_path / "out"
        assert (
            main(["rates", "--config", str(cfg), "--out", str(out)])
            == EXIT_CONFIG_ERROR
        )


class TestExitCodes:
    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["verify", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO_ERROR

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG_ERROR

    # output goes to --out only; output_dir is an unknown field.  The other
    # rows are malformed values, each of which once gave a traceback, a
    # run on bad input, or a silent exit 0.
    @pytest.mark.parametrize(
        "overrides",
        [
            {"output_dir": "out"},
            {"output_dir": None},
            {"grid": {**BASE_CONFIG["grid"], "linear_count": -5}},
            {"u0": {"family": "decay", "p": "x"}},
            {"spectrum": [1.0, math.nan], "u0": [1.0, 1.0], "u1": [0.0, 0.0]},
            {"epsilons": ["a", 0.1, 0.01]},
            {"tolerances": {"identity": "x"}},
            {"grid": {**BASE_CONFIG["grid"], "t_max": math.inf}},
            {"epsilons": [0.1, 0.1, 0.01]},
            {"grid": {**BASE_CONFIG["grid"], "log_floor": math.nan}},
            {"synthetic_exponent": math.inf},
            {"u0": [math.nan]},
            {"u1": [math.inf]},
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, overrides):
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("grid.linear_count", {"grid": {"linear_count": -5}}),
            ("grid.linear_count", {"grid": {"linear_count": 2.5}}),
            ("grid.log_count", {"grid": {"log_count": True}}),
            ("grid.t_max", {"grid": {"t_max": math.inf}}),
            ("grid.log_floor", {"grid": {"log_floor": 0.0}}),
            ("u0.p", {"u0": {"family": "decay", "p": "x"}}),
            ("u1", {"u1": [10**400]}),
            ("spectrum", {"spectrum": [1.0, -2.0]}),
            ("epsilons", {"epsilons": [0.1, 0.1, 0.01]}),
            ("epsilons", {"epsilons": [0.1, "0.01"]}),
            ("tolerances.identity", {"tolerances": {"identity": -1.0}}),
            ("synthetic_exponent", {"synthetic_exponent": math.nan}),
        ],
    )
    def test_config_error_names_the_field(self, field, overrides):
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            ExperimentConfig.parse({**BASE_CONFIG, **overrides})

    def test_config_file_that_is_not_text_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG_ERROR

    def test_dissipation_breakdown_is_a_fail_record(self, tmp_path):
        # at lam = 1e12 the grid quadrature cannot resolve e^{-2 lam t}, so
        # the closed form fails its 1e-6 cross-check
        cfg = write_config(
            tmp_path,
            spectrum=[1e12, 1.0],
            u0=[1.0, 1.0],
            u1=[0.0, 0.0],
            checks=["maxreg"],
        )
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "singlim.cli", "verify", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        report = {r["id"]: r for r in json.loads((out / "report.json").read_text())}
        record = report["maxreg.constant_n0"]
        assert not record["pass"]
        assert record["margin"] == -math.inf
        assert "disagree by 1.667e+05" in record["note"]

    def test_undecayed_integrand_is_a_fail_record(self, tmp_path):
        # at eps = 1e-9 the squared deviation is rounding noise that has not
        # fallen below 1e-14 of its peak by t_max
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[1e-9],
            checks=["inequalities"],
        )
        out = tmp_path / "out"
        result = subprocess.run(
            [sys.executable, "-m", "singlim.cli", "verify", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        report = json.loads((out / "report.json").read_text())
        record = next(
            r for r in report if r["id"] == "bound.l2_deviation_constants_2_7[eps=1e-09]"
        )
        assert not record["pass"]
        assert "extend the grid" in record["note"]

    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # start-up time: the oracle is a matrix exponential, not an ODE solver
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, singlim.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_cli_entrypoint_subprocess(self, tmp_path):
        cfg = write_config(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "singlim.cli", "presets"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert result.returncode == 0
        assert "three-mode" in result.stdout
