import collections
import json
import math
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlim.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_IO_ERROR,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    FIELDS,
    SPECTRUM_PRESETS,
    _field_reference,
    fmt,
    main,
)
import singlim.cli as cli
import singlim.csvformat as csvformat
import singlim.profiles as profiles
import singlim.verification as verification
from singlim.csvformat import csv_bytes
from singlim.profiles import ProblemData
from singlim.timegrid import standard_grid

from conftest import cli_env, make_problem, run_cli, sample

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

    def test_rejects_eps_that_share_a_label(self):
        # f"{eps:g}" names the trajectory files and the verify check ids
        with pytest.raises(ConfigError, match=r"\[0\.1, 0\.10000001\]"):
            ExperimentConfig.parse({**BASE_CONFIG, "epsilons": [0.1, 0.10000001, 0.01]})

    def test_log_floor_bounds_only_the_log_points(self):
        # the log points run from log_floor up to min(1, t_max); without
        # them log_floor is not used
        grid = {"t_max": 0.5, "log_count": 0, "log_floor": 5.0}
        assert ExperimentConfig.parse({**BASE_CONFIG, "grid": grid})["grid.log_floor"] == 5.0
        with pytest.raises(ConfigError, match=r"grid\.log_floor"):
            ExperimentConfig.parse({**BASE_CONFIG, "grid": {**grid, "log_count": 10}})

    def test_rejects_bad_schema_version(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.parse({**BASE_CONFIG, "schema_version": 99})

    def test_length_mismatch(self):
        cfg = ExperimentConfig.parse({**BASE_CONFIG, "u0": [1.0, 2.0]})
        with pytest.raises(ConfigError):
            cfg.data()

    def test_il0_data(self):
        cfg = ExperimentConfig.parse(
            {**BASE_CONFIG, "spectrum": "three-mode", "u0": [1.0, 1.0, 1.0], "u1": "il0"}
        )
        spec, u0, u1 = cfg.data()
        assert ProblemData(spec, 0.1, u0, u1).il0_satisfied

    def test_decay_family(self):
        cfg = ExperimentConfig.parse(
            {
                **BASE_CONFIG,
                "spectrum": "three-mode",
                "u0": {"family": "decay", "p": 2.0},
                "u1": {"family": "decay", "p": 2.0},
            }
        )
        _, u0, _ = cfg.data()
        np.testing.assert_allclose(u0, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)


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

    def test_norms_peak_below_one_wide_sample(self):
        # one eps of neumann-33: the six norms are reduced mode by mode, so
        # no (n_times, n_modes) array is made
        pd = make_problem(SPECTRUM_PRESETS["neumann-33"], 0.1, il0=True)
        ts = standard_grid([0.1]).times
        tracemalloc.start()
        try:
            norms = cli._trajectory_norms(pd, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms) == 6
        assert peak < ts.size * len(pd.spec) * 8

    def test_seventeen_digit_floats(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        lines = (out / "trajectory_eps0.1.csv").read_text().splitlines()
        # values round-trip exactly through the printed representation
        for line in lines[1:50]:
            for cell in line.split(","):
                assert f"{float(cell):.17g}" == cell


def test_csv_rows_match_fmt():
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, math.nan]
    columns = [
        np.array(special + list(rng.lognormal(0.0, 40.0, 200))),
        -rng.lognormal(0.0, 40.0, 206),
        rng.lognormal(0.0, 1.0, 206),
    ]
    text = csv_bytes("a,b,c", columns).decode()
    rows = [",".join(fmt(x) for x in row) for row in zip(*columns)]
    assert text == "\n".join(["a,b,c", *rows]) + "\n"
    for line, row in zip(text.splitlines()[1:], zip(*columns)):
        for cell, x in zip(line.split(","), row):
            if math.isfinite(x):
                assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()


def _printf_rows(columns) -> bytes:
    """The CSV rows of columns with each cell from '%.17g' itself."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows).encode()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60))
def test_csv_bytes_is_printf_on_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    columns = [values, values[::-1].copy()]
    assert csv_bytes("x,y", columns) == b"x,y\n" + _printf_rows(columns)


def _near_ties() -> list[float]:
    """Doubles a = m 2^-(s+k) with a 10^k = m 5^k 2^-s at 2^-s from a
    half-integer (m 5^k = 2^(s-1) +- 1 mod 2^s): nearer to a tie than the
    error of the writer's scaled value, so only '%.17g' itself rounds them
    right; 4.9741483709103481e-09 is one."""
    found = []
    for k in range(17, 80):
        for s in range(50, 64):
            for target in (2 ** (s - 1) + 1, 2 ** (s - 1) - 1):
                m = target * pow(5**k, -1, 2**s) % 2**s
                if 2**52 <= m < 2**53:
                    found.append(math.ldexp(m, -s - k))
    return found


def test_csv_bytes_edge_classes():
    powers = [10.0**k for k in range(-323, 309)]  # 1e-243, for one, rounds up to it
    edges = (
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, sys.float_info.max]
        + powers
        + [float(np.nextafter(p, to)) for p in powers for to in (0.0, math.inf)]
        # where %g switches between %f and %e, and numbers with 17 digits there
        + [1e-4, 1e-5, 1e16, 1e17, 0.00012345678901234567, 1.2345678901234567e-5,
           12345678901234567.0, 1.2345678901234568e17, 2.5, 0.5, 100.0]
        # the exact tie 2.98023223876953125e-08, printed by round-half-even
        + [2.0**-25, -(2.0**-25), 2.0**-26 * 3]
        + _near_ties()
        # past the scaled range of 1e-290 to 1e290, on both sides
        + [1e-290, 9.999999999999999e-291, 1.5e-300, 1e290, 9.999999999999999e289, 3e300]
    )
    values = np.array(edges)
    columns = [values, -values]
    text = csv_bytes("a,b", columns)
    assert text == b"a,b\n" + _printf_rows(columns)
    rows = text.decode().splitlines()
    assert rows[1:4] == ["0,-0", "-0,0", "inf,-inf"]
    assert rows[1 + edges.index(2.0**-25)] == "2.9802322387695312e-08,-2.9802322387695312e-08"
    assert len(_near_ties()) > 100


@pytest.mark.parametrize("ncols", [1, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [0, 1, 2])
def test_csv_bytes_rows_at_chunk_boundaries(chunks, extra, ncols):
    rows = max(chunks * csvformat._CHUNK_ROWS + extra, 0)
    rng = np.random.default_rng(rows + ncols)
    columns = [rng.lognormal(0.0, 30.0, rows) * rng.choice([-1.0, 1.0], rows)
               for _ in range(ncols)]
    header = ",".join("c" * (i + 1) for i in range(ncols))
    text = csv_bytes(header, columns)
    assert text == header.encode() + b"\n" + _printf_rows(columns)
    assert text.count(b"\n") == rows + 1


def test_csv_bytes_peak_is_one_chunk_beyond_the_text():
    # one sweep-n33 trajectory CSV: the writer holds the text twice (its
    # chunks, then their join) and one chunk of 512 rows at a time, at
    # most 200 bytes a cell
    config = ExperimentConfig.parse({
        "schema_version": 1, "spectrum": "neumann-33", "u0": {"family": "decay", "p": 2.0},
        "u1": "il0", "epsilons": [0.01],
    })
    spec, u0, u1 = config.data()
    ts = config.time_grid([0.01]).times
    columns = [ts, *cli._trajectory_norms(ProblemData(spec, 0.01, u0, u1), ts)]
    csv_bytes("t", columns[:1])  # the writer makes its tables once
    tracemalloc.start()
    try:
        text = csv_bytes("t,norm_u,norm_v,norm_theta,err_order0,err_theta,err_order2", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.size > 4 * csvformat._CHUNK_ROWS  # several chunks
    assert peak < 2 * len(text) + 200 * csvformat._CHUNK_ROWS * len(columns)


@pytest.mark.parametrize("command, stages", [
    ("simulate", ["norms[eps={}]", "csv[eps={}]"]),
    ("rates", ["rates[eps={}]", "rates"]),
])
def test_manifest_times_each_stage(tmp_path, command, stages):
    epsilons = [0.1, 0.05, 0.01]
    cfg = write_config(tmp_path, epsilons=epsilons, comparisons=["order0_thm11i"])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest)[-2:] == ["environment", "timings"]
    want = {stage.format(f"{e:g}") for stage in stages for e in epsilons}
    assert set(manifest["timings"]) == want
    assert all(isinstance(s, float) and s >= 0.0 for s in manifest["timings"].values())


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

    def test_each_forced_profile_is_built_once_per_eps(self, tmp_path, monkeypatch):
        # per mode and eps, 9 profiles: the solution, the two split
        # components, the primary and half-power correctors, the two split
        # correctors and the two remainders, each solved once for every
        # group, the rate errors included
        forced = collections.Counter()
        solve_forced = profiles.solve_forced
        monkeypatch.setattr(
            profiles, "solve_forced",
            lambda p, f: forced.update([p.lam]) or solve_forced(p, f),
        )
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[0.1, 0.01, 0.001],
            checks="all",
            comparisons=["order0_thm11i", "order0_thm11ii", "order1_theta", "order2_mainthm"],
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert forced == {0.0: 27, 1.0: 27, 4.0: 27}

    def test_corrupted_tolerance_flips_exit(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"identity": 1e-20})
        out = tmp_path / "out"
        assert (
            main(["verify", "--config", str(cfg), "--out", str(out)])
            == EXIT_CHECK_FAILURE
        )
        report = json.loads((out / "report.json").read_text())
        assert any(not r["pass"] for r in report)

    @pytest.mark.parametrize(
        "checks, groups",
        [
            (["identities"], ["identities[eps={}]"]),
            (["data", "energy", "maxreg", "rates"],
             ["data[eps={}]", "energy[eps={}]", "rates[eps={}]", "maxreg", "rates"]),
        ],
    )
    def test_manifest_times_every_group_that_ran(self, tmp_path, checks, groups):
        epsilons = [0.1, 0.05, 0.01]
        cfg = write_config(
            tmp_path, checks=checks, comparisons=["order0_thm11i"], epsilons=epsilons
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest)[-2:] == ["environment", "timings"]
        timings = manifest["timings"]
        want = {g.format(f"{e:g}") for g in groups for e in epsilons}
        assert set(timings) == want
        assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())

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

    def test_fewer_than_three_eps_sample_no_rate_errors(self, tmp_path, monkeypatch):
        # the fit needs 3 eps; with 2 every comparison FAILs with the reason,
        # and no eps's errors are sampled for it
        calls = []
        monkeypatch.setattr(cli, "rate_errors", lambda *args: calls.append(args))
        cfg = write_config(
            tmp_path, checks=["rates"], comparisons=["order0_thm11i", "order1_theta"]
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CHECK_FAILURE
        assert calls == []
        report = json.loads((out / "report.json").read_text())
        assert [r["id"] for r in report] == ["rate.slope_order0_thm11i", "rate.slope_order1_theta"]
        for r in report:
            assert not r["pass"] and r["margin"] == -math.inf
            assert r["note"] == "precondition violated: need at least 3 eps values for a rate fit"

    def test_small_eps_initial_data_checks_pass(self, tmp_path):
        # the remainders' initial slopes at eps down to 1e-11: the fast-root
        # form of the mode solution missed w'(0) by 5.7e-6 and 1.1e-5 at
        # eps = 1e-11, against a tolerance of 3.3e-7
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[1e-9, 1e-10, 1e-11],
            checks=["identities", "data", "inequalities", "energy"],
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert {"data.remainder1_initial[eps=1e-11]", "data.remainder2_initial[eps=1e-11]"} <= {
            r["id"] for r in report
        }

    def test_superposition_tolerance_is_honoured(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"superposition": 0.0})
        out = tmp_path / "out"
        main(["verify", "--config", str(cfg), "--out", str(out)])
        report = {r["id"]: r for r in json.loads((out / "report.json").read_text())}
        for eps in ("0.1", "0.01"):
            assert report[f"identity.superposition[eps={eps}]"]["tolerance"] == 0.0

    def test_byparts_bound_belongs_to_the_inequalities_group(self, tmp_path):
        # one record, from the inequalities group, with the configured slack
        def byparts_records(checks):
            cfg = write_config(
                tmp_path, checks=checks, epsilons=[0.1],
                tolerances={"inequality_slack": 0.0},
            )
            out = tmp_path / "-".join(checks)
            main(["verify", "--config", str(cfg), "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            return [r for r in report if r["id"].startswith("bound.byparts")]

        assert byparts_records(["duhamel"]) == []
        (record,) = byparts_records(["inequalities", "duhamel"])
        assert record["tolerance"] == 0.0

    def test_default_config_writes_every_record_id(self, tmp_path):
        # the per-eps groups' 20 ids at each eps, tagged with it, then
        # maxreg's 7 and the 4 rate slopes once for the run
        per_eps = [
            "bound.byparts_convolution", "bound.l2_deviation_constants_2_7",
            "bound.l2_semigroup_range_half", "bound.resolvent_halfpower",
            "bound.sup_error_explicit", "data.remainder1_initial",
            "data.remainder2_initial", "duhamel.representation",
            "energy.halfpower_constant_half", "energy.primary_constant3",
            "energy.remainder1_measured", "energy.remainder2_measured",
            "identity.halfpower_decomposition", "identity.layer_relaxation",
            "identity.primary_decomposition", "identity.remainder_reconstruction_1",
            "identity.remainder_reconstruction_2", "identity.split_corrector_1",
            "identity.split_corrector_2", "identity.superposition",
        ]
        run_wide = [
            "maxreg.constant_n0", "maxreg.finite_time_gap_n1",
            "maxreg.finite_time_gap_n2", "maxreg.limit_n1", "maxreg.limit_n2",
            "maxreg.monotone_bounded_n1", "maxreg.monotone_bounded_n2",
            "rate.slope_order0_thm11i", "rate.slope_order0_thm11ii",
            "rate.slope_order1_theta", "rate.slope_order2_mainthm",
        ]
        cfg = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        ids = [r["id"] for r in json.loads((out / "report.json").read_text())]
        tagged = [f"{i}[eps={eps}]" for i in per_eps for eps in ("0.1", "0.01", "0.001")]
        assert len(ids) == 71
        assert ids == sorted(tagged + run_wide)

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--config", str(cfg), "--out", str(out1)])
        main(["verify", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestRates:
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

    def test_failed_fit_writes_nothing(self, tmp_path):
        # order0_thm11i fits, then cor1 fails its precondition (no il0 data)
        cfg = write_config(
            tmp_path, epsilons=[0.1, 0.05, 0.01], comparisons=["order0_thm11i", "cor1"]
        )
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    # three-mode at small eps: the order-2 errors of the last two eps are
    # rounding, below the noise floor, so the fit cannot run on valid data
    SMALL_EPS = {"spectrum": "three-mode", "u0": {"family": "decay", "p": 2.0},
                 "u1": {"family": "decay", "p": 2.0}, "epsilons": [1e-6, 1e-7, 1e-8, 1e-9]}

    def test_fit_that_cannot_run_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.SMALL_EPS,
                           comparisons=["order0_thm11i", "order2_mainthm"])
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            "rate fit failed: comparison 'order2_mainthm': need at least 3 error "
            "values above the noise floor, got 2"
        ]
        assert not out.exists()

    def test_violated_precondition_exits_2_before_a_failed_fit(self, tmp_path, capsys):
        # cor1 without compatible data is a config error, whichever comes first
        cfg = write_config(tmp_path, **self.SMALL_EPS, comparisons=["order2_mainthm", "cor1"])
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: comparison 'cor1': ")
        assert not out.exists()

    def test_cor1_is_the_main_expansion_curve(self, tmp_path):
        # under compatible data v1 = 0, and cor1's profile is the main
        # expansion term for term: one curve and one fit
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1="il0",
            epsilons=[0.1, 0.01, 0.001],
            comparisons=["order2_mainthm", "cor1"],
        )
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        main_curve = (out / "rates_order2_mainthm.csv").read_text()
        assert (out / "rates_cor1.csv").read_text() == main_curve
        fits = {f.pop("comparison"): f for f in json.loads((out / "report.json").read_text())}
        assert fits["cor1"] == fits["order2_mainthm"]

    def test_cor1_of_nearly_compatible_data_keeps_the_layer_terms(self, tmp_path):
        # il0_satisfied holds v1 to a tolerance: for a typed-in u1 that is
        # -A u0 only to within it, cor1 still reads the main expansion, so its
        # curve carries eps v1 (e^{-tA} - e^{-t/eps}) with v1 != 0
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0=[1.0, 1.0, 1.0],
            u1=[0.0, -1.0, -4.0 + 1e-13],
            epsilons=[0.1, 0.01, 0.001],
            comparisons=["order2_mainthm", "cor1"],
        )
        spec, u0, u1 = cli._load_config(str(cfg)).data()
        pd = ProblemData(spec, 0.1, u0, u1)
        assert pd.il0_satisfied and np.any(pd.v1 != 0.0)
        ts = np.linspace(0.0, 2.0, 41)
        layer_free = pd.parabolic - profiles.kernel_profile(spec, u0, 1, 2.0, 0.1)
        assert not np.array_equal(sample(pd.main_expansion, ts), sample(layer_free, ts))
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        main_curve = (out / "rates_order2_mainthm.csv").read_text()
        assert (out / "rates_cor1.csv").read_text() == main_curve
        fits = {f.pop("comparison"): f for f in json.loads((out / "report.json").read_text())}
        assert fits["cor1"] == fits["order2_mainthm"]

    def test_too_few_eps(self, tmp_path):
        cfg = write_config(tmp_path, epsilons=[0.1, 0.01])
        out = tmp_path / "out"
        assert (
            main(["rates", "--config", str(cfg), "--out", str(out)])
            == EXIT_CONFIG_ERROR
        )


def test_help_and_readme_list_every_field(capsys):
    # both come from the field table: --help prints it, README.md holds a copy
    reference = _field_reference()
    heads = [line.split(" (")[0] for line in reference.splitlines() if line[0] != " "]
    assert heads == [path for path, *_ in FIELDS]
    with pytest.raises(SystemExit):
        main(["--help"])
    assert reference in capsys.readouterr().out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    begin = "<!-- config fields: generated from singlim.cli.FIELDS -->\n```text\n"
    assert readme.split(begin)[1].split("\n```\n")[0] == reference


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
            {"grid": {**BASE_CONFIG["grid"], "t_mx": 5.0}},
            {"epsilons": [0.1, 0.10000001, 0.01]},
            {"grid": {**BASE_CONFIG["grid"], "log_floor": 5.0}},
            {"u0": {"family": "decay", "p": 2, "bogus": 1}},
            {"checks": ["identities", "identities"]},
            {"comparisons": ["order0_thm11i", "order0_thm11i"]},
            {"checks": []},
            # (1+i)^2000 overflows a float; this once ended in an OverflowError
            {"spectrum": "three-mode", "u0": {"family": "decay", "p": -2000},
             "u1": [0.0, 0.0, 0.0]},
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
            ("t_mx", {"grid": {"t_mx": 5.0}}),
            ("grid.log_floor", {"grid": {"t_max": 1.0, "log_floor": 1.0}}),
            ("u0.bogus", {"u0": {"family": "decay", "p": 2, "bogus": 1}}),
            ("checks", {"checks": ["identities", "identities"]}),
            ("comparisons", {"comparisons": ["order0_thm11i", "order0_thm11i"]}),
            ("tolerances.identiy", {"tolerances": {"identiy": 1e-8}}),
            ("checks", {"checks": []}),
        ],
    )
    def test_config_error_names_the_field(self, field, overrides):
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
            ExperimentConfig.parse({**BASE_CONFIG, **overrides})

    # data whose derived vectors overflow: -A u0 under "il0", and the layer
    # slope A u0 + u1; each once ended in a ValueError traceback
    @pytest.mark.parametrize(
        "u1, named", [("il0", 'u1 "il0"'), ([0.0], "layer slope")], ids=["il0", "slope"]
    )
    @pytest.mark.parametrize("command", ["verify", "simulate", "rates"])
    def test_overflowing_derived_data_exit_2(self, tmp_path, capsys, command, u1, named):
        cfg = write_config(
            tmp_path, spectrum=[1e308], u0=[2.0], u1=u1, epsilons=[0.5, 0.25, 0.125],
            checks="all", comparisons=["order0_thm11i"],
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and named in line

    @pytest.mark.parametrize("name", ["u0", "u1"])
    def test_decay_overflow_names_the_field(self, name):
        config = ExperimentConfig.parse({
            **BASE_CONFIG, "spectrum": "three-mode", "u0": [1.0, 1.0, 1.0],
            "u1": [0.0, 0.0, 0.0], name: {"family": "decay", "p": -2000},
        })
        with pytest.raises(ConfigError, match=rf"{name}\.p = -2000"):
            config.data()

    # eigenvalues whose powers overflow: with checks "all" a derived vector
    # once raised a ValueError, with ["data"] the data records' tolerance an
    # OverflowError; the data records now FAIL with a reason, and the
    # overflows raise no numpy warning (run_cli makes one an error)
    @pytest.mark.parametrize("checks", ["all", ["data"]], ids=["all", "data"])
    def test_overflowing_eigenvalue_powers_give_fail_records(self, tmp_path, checks):
        cfg = write_config(
            tmp_path, spectrum=[1e250, 1.0], u0=[1.0, 1.0], u1=[0.0, 0.0],
            epsilons=[0.5], checks=checks,
        )
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        records = {r["id"]: r for r in json.loads((out / "report.json").read_text())}
        for j in (1, 2):
            record = records[f"data.remainder{j}_initial[eps=0.5]"]
            assert not record["pass"] and record["margin"] == -math.inf
            assert record["note"].startswith("not finite: ")

    def test_config_file_that_is_not_text_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG_ERROR

    def test_dissipation_breakdown_is_a_fail_record(self, tmp_path, monkeypatch, capsys):
        # a closed-form dissipation 1e-5 too large fails its 1e-6 cross-check
        exact = verification.squared_integrals
        monkeypatch.setattr(
            verification, "squared_integrals",
            lambda *args: [x * (1.0 + 1e-5) for x in exact(*args)],
        )
        cfg = write_config(
            tmp_path,
            spectrum=[1.0, 4.0],
            u0=[1.0, 1.0],
            u1=[0.0, 0.0],
            checks=["maxreg"],
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILURE
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 7
        # the record's tolerance is the gate the note quotes, to the bit
        gate = verification._dissipation_gate(np.array([1.0, 1.0]))
        note = f"disagree by 1.000e-05, not within the cross-check gate {gate:.3e}"
        for record in report:
            assert not record["pass"]
            assert record["margin"] == -math.inf
            assert record["tolerance"] == gate
            assert note in record["note"]

    @pytest.mark.parametrize(
        "spectrum, data, grid",
        [
            ([3e5], [1.0], {}),
            ([1e6], [1.0], {}),
            ([1e8], [1.0], {}),
            ([1e12, 1.0], [1.0, 1.0], {}),
            ([(k * math.pi) ** 2 for k in range(1, 257)], [1.0] * 256, {}),
            ("dirichlet-32", {"family": "decay", "p": 2.0}, {"log_count": 0}),
            ("neumann-33", {"family": "decay", "p": 2.0}, {"log_count": 0}),
        ],
        ids=["3e5", "1e6", "1e8", "1e12-and-1", "dirichlet-256", "dirichlet-32-log0",
             "neumann-33-log0"],
    )
    def test_stiff_dissipation_passes_its_cross_check(self, tmp_path, spectrum, data, grid):
        # the fastest mode decays within one interval of the grid, and the
        # cross-check resolves it all the same
        cfg = write_config(
            tmp_path,
            spectrum=spectrum,
            u0=data,
            u1=data if isinstance(data, dict) else [0.0] * len(data),
            grid={"t_max": 20.0, "linear_count": 2000, "log_count": 200,
                  "log_floor": 1e-6, **grid},
            checks=["maxreg"],
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 7 and all(record["pass"] for record in report)

    def test_undecayed_integrand_is_a_fail_record(self, tmp_path):
        # on a grid that ends at t = 5 the squared deviation, of order
        # eps^2 t^2 e^{-2t}, is still 1e-3 of its peak: far above 1e-14 of
        # it and above the rounding envelope of the cancelling coefficients
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[1e-9],
            grid={**BASE_CONFIG["grid"], "t_max": 5.0},
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

    def test_overflowing_bound_is_a_fail_record(self, tmp_path):
        # |u1|^2 overflows, so the L2 and resolvent bounds are inf; they
        # once passed with margin NaN, and the resolvent bound of u1 with a
        # finite margin, the least of those of u0, u1 and v1.  The explicit
        # sup bound is finite, about 2.7e199, though its squares overflow,
        # and it once failed as not finite too.
        cfg = write_config(
            tmp_path,
            spectrum=[1e-300, 1.0],
            u0=[1.0, 1.0],
            u1=[1e200, 0.0],
            epsilons=[0.1],
            checks=["inequalities"],
        )
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        text = (out / "report.json").read_text()
        assert "NaN" not in text
        records = {r["id"]: r for r in json.loads(text)}
        failed = {k: r for k, r in records.items() if not r["pass"]}
        assert sorted(failed) == [
            "bound.l2_deviation_constants_2_7[eps=0.1]",
            "bound.resolvent_halfpower[eps=0.1]",
        ]
        assert all(r["note"].startswith("not finite: ") for r in failed.values())
        sup = records["bound.sup_error_explicit[eps=0.1]"]
        assert sup["pass"] and 0.0 < sup["margin"] < math.inf

    def test_data_whose_norm_squares_overflow_keeps_finite_tolerances(self, tmp_path):
        # |u1| = 1e200 is finite though |u1|^2 is not: the identity and data
        # records once read tolerance inf and failed as not finite, with
        # residuals at rounding level
        cfg = write_config(
            tmp_path,
            spectrum=[1e-300, 1.0],
            u0=[1.0, 1.0],
            u1=[1e200, 0.0],
            epsilons=[0.1],
            checks=["identities", "data"],
        )
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_OK, result.stderr
        report = json.loads((out / "report.json").read_text())
        assert {r["id"].split(".")[0] for r in report} == {"identity", "data"}
        assert all(math.isfinite(r["tolerance"]) for r in report)

    def test_duhamel_residual_of_data_whose_samples_square_overflow(self, tmp_path):
        # the samples of about 1e200 are finite, and so is the residual's
        # norm; it once read inf, its square having overflowed
        cfg = write_config(
            tmp_path,
            spectrum=[1e-300, 1.0],
            u0=[1.0, 1.0],
            u1=[1e200, 0.0],
            epsilons=[0.1],
            checks=["duhamel"],
        )
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_OK, result.stderr
        assert "RuntimeWarning" not in result.stderr
        (record,) = json.loads((out / "report.json").read_text())
        assert record["id"] == "duhamel.representation[eps=0.1]"
        assert record["pass"] and math.isfinite(record["margin"])

    def test_data_whose_squares_overflow_run_without_warnings(self, tmp_path):
        # |u1| = 1e200: the norms are finite though their squares are not.
        # Under -W error a RuntimeWarning would end either run in a
        # traceback; simulate's norms once read inf, and only the records
        # whose own values overflow may FAIL
        cfg = write_config(
            tmp_path,
            spectrum=[1e-300, 1.0],
            u0=[1.0, 1.0],
            u1=[1e200, 0.0],
            epsilons=[0.1, 0.01, 0.001],
            checks="all",
        )
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"))
        assert result.returncode == EXIT_OK, result.stderr
        tables = sorted((tmp_path / "sim").glob("trajectory_eps*.csv"))
        assert len(tables) == 3
        for table in tables:
            rows = table.read_text().splitlines()[1:]
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        failed = [r for r in json.loads((out / "report.json").read_text()) if not r["pass"]]
        assert sorted(r["id"] for r in failed) == sorted(
            f"{check_id}[eps={eps}]"
            for check_id in (
                "bound.l2_deviation_constants_2_7",
                "bound.resolvent_halfpower",
                "energy.primary_constant3",
            )
            for eps in ("0.1", "0.01", "0.001")
        )
        assert all(r["note"].startswith("not finite: ") for r in failed)

    def test_norm_above_the_float_range_reads_inf(self, tmp_path):
        # |u0| = 2.1e308: its scale-back once overflowed with a warning
        cfg = write_config(
            tmp_path, spectrum=[0.0, 1.0], u0=[1.5e308, 1.5e308], u1=[0.0, 0.0],
            epsilons=[0.1],
        )
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"))
        assert result.returncode == EXIT_OK, result.stderr
        rows = (tmp_path / "sim" / "trajectory_eps0.1.csv").read_text().splitlines()
        assert rows[0].split(",")[:2] == ["t", "norm_u"]
        t, norm_u = rows[1].split(",")[:2]
        assert float(t) == 0.0 and float(norm_u) == math.inf

    @pytest.mark.parametrize(
        "u0, checks, failing",
        [
            # u0 = 0, so the dissipation functionals take f = u1, whose
            # square overflows: their curves are NaN, and the NaN cross-check
            # gap once passed it, leaving records with margin NaN
            ([0.0, 0.0], ["maxreg", "inequalities"], [
                "maxreg.finite_time_gap_n1", "maxreg.finite_time_gap_n2",
                "maxreg.monotone_bounded_n1", "maxreg.monotone_bounded_n2",
            ]),
            # every group: the resolvent bound of u1 is inf, and the least
            # margin over u0, u1 and v1 once hid it
            ([1.0, 1.0], "all", ["bound.resolvent_halfpower[eps=0.1]"]),
        ],
    )
    def test_nonfinite_data_gives_fail_records_with_a_reason(
        self, tmp_path, u0, checks, failing
    ):
        cfg = write_config(
            tmp_path,
            spectrum=[1e-300, 1.0],
            u0=u0,
            u1=[1e200, 0.0],
            epsilons=[0.1],
            checks=checks,
        )
        out = tmp_path / "out"
        result = run_cli("verify", "--config", str(cfg), "--out", str(out))
        assert result.returncode == EXIT_CHECK_FAILURE
        assert "Traceback" not in result.stderr
        text = (out / "report.json").read_text()
        assert "NaN" not in text
        records = {r["id"]: r for r in json.loads(text)}
        for check_id in failing:
            record = records[check_id]
            assert not record["pass"]
            assert record["margin"] == -math.inf
            assert record["note"].startswith(
                ("not finite: ", "analytic and quadrature dissipation curves disagree")
            )

    def test_overflowed_energy_reads_inf_not_nan(self, tmp_path):
        # the squared coefficient of the primary corrector's slope overflows;
        # its dissipated integral read NaN at t = 0 (inf times a zero moment)
        cfg = write_config(
            tmp_path, spectrum=[1e-300, 1.0], u0=[1.0, 1.0], u1=[1e200, 0.0],
            epsilons=[0.1], checks=["energy"],
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILURE
        records = {r["id"]: r for r in json.loads((out / "report.json").read_text())}
        note = records["energy.primary_constant3[eps=0.1]"]["note"]
        assert note.startswith("not finite: value inf, bound inf,")

    def test_cli_and_modes_imports_load_no_scipy(self):
        # start-up time: no module of singlim needs scipy, the oracle's
        # matrix exponential included
        for module in ("singlim.cli", "singlim.modes"):
            result = subprocess.run(
                [sys.executable, "-c",
                 f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
                capture_output=True,
                text=True,
                env=cli_env(),
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "[]", module

    def test_runs_import_no_numpy_or_scipy_module(self, tmp_path):
        # a module that a run imports first is paid for inside every run
        # (np.unique imports numpy.ma, leggauss numpy.polynomial)
        cfg = write_config(
            tmp_path,
            spectrum="three-mode",
            u0={"family": "decay", "p": 2.0},
            u1={"family": "decay", "p": 2.0},
            epsilons=[0.1, 0.05, 0.02],
            grid={"t_max": 5.0, "linear_count": 60, "log_count": 10, "log_floor": 1e-4},
            checks="all",
            comparisons=["order0_thm11i", "order1_theta"],
        )
        script = (
            "import sys, singlim.cli\n"
            "before = set(sys.modules)\n"
            "for cmd in ('simulate', 'rates', 'verify'):\n"
            f"    singlim.cli.main([cmd, '--config', {str(cfg)!r},\n"
            f"                      '--out', {str(tmp_path / 'out-')!r} + cmd])\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.startswith(('numpy', 'scipy'))))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=cli_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        for cmd in ("simulate", "rates", "verify"):
            assert (tmp_path / f"out-{cmd}" / "manifest.json").exists()

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
