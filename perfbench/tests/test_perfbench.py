"""Tests of the benchmark harness on tiny inputs.

Run from the repository root:

    python3 -m pytest -p no:cacheprovider perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

TINY_CONFIG = {
    "schema_version": 1,
    "spectrum": "three-mode",
    "u0": {"family": "decay", "p": 2.0},
    "u1": {"family": "decay", "p": 2.0},
    "epsilons": [0.1, 0.05, 0.02],
    "grid": {"t_max": 5.0, "linear_count": 60, "log_count": 10, "log_floor": 1e-4},
    "checks": ["identities", "maxreg", "rates"],
    "comparisons": ["order0_thm11i", "order1_theta"],
    "tolerances": {},
}
TINY_CLI = workloads.CliWorkload(
    "tiny-cli", (("verify", TINY_CONFIG), ("rates", TINY_CONFIG)), Path("unused")
)
TINY_ORACLE = workloads.OracleWorkload("tiny-oracle", strata=1)


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.OUT_DIR / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def tiny_reference():
    path = run.OUT_DIR / "test-reference"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    refs = run.record_reference(TINY_CLI, path)
    shutil.rmtree(path, ignore_errors=True)
    return refs


def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


@pytest.mark.parametrize("trace", [False, True])
def test_cli_run_reports_every_declared_metric(work, tiny_reference, trace):
    record = run.run(TINY_CLI, 1, 1, trace, work, references=tiny_reference)
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] == 4 if trace else record["attempted"] >= 2
    end_to_end, per_layer = declared()
    want = per_layer if trace else end_to_end
    assert set(record["metrics"]) == set(want)
    assert all(run.unit_of(name) == unit for name, unit in want.items())
    if trace:
        assert record["metrics"]["exppoly.value.calls"] > 0
        assert record["metrics"]["verification.fit_rate.calls"] == 4
        assert record["metrics"]["import.singlim_s"] > 0
        assert "singlim.exppoly.ExpPoly.value" in record["layer_table"]
        assert list(work.glob("spans-traced-*.tsv.gz"))


@pytest.mark.parametrize("trace", [False, True])
def test_oracle_run_reports_every_declared_metric(work, trace):
    record = run.run(TINY_ORACLE, 3, 1, trace, work)
    assert record["failed"] == 0, record["problems"]
    end_to_end, per_layer = declared()
    assert set(record["metrics"]) == set(per_layer if trace else end_to_end)
    if trace:
        assert record["metrics"]["modes.rk_reference_path.calls"] == 4
        assert 0 < record["metrics"]["modes.oracle.worst_rel_err"] <= workloads.ORACLE_GATE


def test_corrupted_reference_value_counts_as_failure(work, tiny_reference):
    refs = json.loads(json.dumps(tiny_reference))
    csv = refs[1]["files"]["rates_order0_thm11i.csv"]
    csv["samples"][1][1][1] *= 1.0 + 1e-6
    record = run.run(TINY_CLI, 1, 1, False, work, references=refs)
    assert record["failed"] >= 1
    assert any("rates_order0_thm11i.csv" in p for p in record["problems"])


def test_corrupted_output_file_counts_as_failure(work, tiny_reference):
    runner = run.Runner(work, deadline=float("inf"))
    proc, out = run.cli_invoke(TINY_CLI, runner, 1, "rates", False)
    ref = tiny_reference[1]
    assert workloads.check_invocation(ref, proc.result["exit_code"], proc.stderr, out) == []
    target = out / "rates_order1_theta.csv"
    lines = target.read_text().splitlines()
    eps, err = lines[2].split(",")
    lines[2] = f"{eps},{float(err) * 1.001!r}"
    target.write_text("\n".join(lines) + "\n")
    problems = workloads.check_invocation(ref, proc.result["exit_code"], proc.stderr, out)
    assert any("rates_order1_theta.csv" in p for p in problems)
    assert workloads.check_invocation(ref, 3, "Traceback (most recent call last)", out)


def test_report_flips(work):
    ref = {"exit_code": 1, "files": {"report.json": {"kind": "report", "records": {
        "a": [True, 0.5, 1.0], "b": [False, -0.5, 1.0]}}}}

    def check(records, exit_code):
        (work / "report.json").write_text(json.dumps(
            [{"id": k, "pass": p, "margin": m, "tolerance": t} for k, (p, m, t) in records.items()]
        ))
        (work / "manifest.json").write_text(json.dumps({"files": ["manifest.json", "report.json"]}))
        return workloads.check_invocation(ref, exit_code, "", work)

    assert check({"a": [True, 0.5, 1.0], "b": [False, -0.5, 1.0]}, 1) == []
    # FAIL -> PASS is a fix, and exit 0 is then the expected code
    assert check({"a": [True, 0.5, 1.0], "b": [True, 0.5, 1.0]}, 0) == []
    # PASS -> FAIL, a missing check, or a moved margin is a failure
    assert check({"a": [False, 0.5, 1.0], "b": [False, -0.5, 1.0]}, 1)
    assert check({"a": [True, 0.5, 1.0]}, 0)
    assert check({"a": [True, 0.6, 1.0], "b": [False, -0.5, 1.0]}, 1)


def test_oracle_cases_are_seeded_and_in_range():
    a = workloads.oracle_cases(5, 3)
    assert a == workloads.oracle_cases(5, 3)
    assert a != workloads.oracle_cases(6, 3)
    assert len(a) == 12
    for c in a:
        assert 1e-4 <= c["eps"] <= 1.0
        assert c["lam"] == 0.0 or 1e-2 <= c["lam"] <= 10 ** 1.7
        assert 0.0 <= c["nu"] <= 5.0
        assert c["ts"] == sorted(c["ts"]) and 0.0 <= c["ts"][0] and c["ts"][-1] <= 5.0
    # the seed draws only the sample times; the cost-setting t_end is fixed
    for c, d in zip(a, workloads.oracle_cases(6, 3)):
        assert {k: v for k, v in c.items() if k != "ts"} == {k: v for k, v in d.items() if k != "ts"}
        assert c["ts"][-1] == d["ts"][-1]


def test_exits_nonzero_without_the_package(work):
    """In a directory holding only BENCHMARK.json and perfbench/, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(BENCH, work / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-d32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_slices_during_the_operation_only():
    import time

    import speed

    sampler = speed.Sampler()
    sampler.calibrate(4)
    sampler.start()
    end = time.perf_counter() + 1.0
    while time.perf_counter() < end:
        sum(range(1000))
    sampler.stop()
    time.sleep(2 * speed.SAMPLE_EVERY_S)  # no slice after stop
    result = sampler.result()
    assert len(result["calibration_s"]) == 4
    assert len(result["sampled_s"]) >= speed.MIN_SAMPLED
    assert 0 < result["during_s"] < result["wall_s"]
    assert result["cpu_s"] == pytest.approx(sum(result["calibration_s"] + result["sampled_s"]))
    assert result["setup_scale"] > 0 and result["run_scale"] > 0
    assert speed.trimmed_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0]) == 5.5
