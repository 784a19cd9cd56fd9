"""singlim benchmark: fresh-process CLI and oracle workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-d32 --seed 1 --seconds 40 --trace 0

Every operation runs in a fresh child process, as a user pays one on every
CLI call.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
one untraced and one traced repetition and reports the per-layer metrics
from the spans.  Outputs are checked against the seed reference in
``perfbench/reference``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every
sample, the environment, the problems found, the layer table and the raw
spans) go to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spantrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"

SETUP_PROBES = 3  # import-only processes per run, after one warm-up
RUN_LIMIT_S = 150.0  # hard stop for one benchmark run, children included
BLAS_THREADS = "1"


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("rel_err"):
        return "rel"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class Proc:
    """One finished child process."""

    exit_status: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str
    result: dict | None

    @property
    def setup_s(self):
        return None if self.result is None else self.result["setup_s"]

    def scale(self, kind: str) -> float:
        """Machine-speed factor ("setup" or "run") of this process (see speed.py).

        1 without a result.
        """
        return 1.0 if self.result is None else self.result["speed"][f"{kind}_scale"]


@dataclass
class Rep:
    """One execution of a workload: its processes and its operations."""

    procs: list[Proc]
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed_ops: int = 0
    digests: list[str | None] = field(default_factory=list)
    case_s: list[float] = field(default_factory=list)
    worst_rel_err: float = 0.0
    bytes_written: int = 0

    def run_s(self, scaled: bool = True):
        if not all(p.result for p in self.procs):
            return None
        return sum(p.result["run_s"] * (p.scale("run") if scaled else 1.0) for p in self.procs)

    def wall_s(self, scaled: bool = True):
        return sum(p.wall_s * (p.scale("run") if scaled else 1.0) for p in self.procs)

    def cpu_s(self, scaled: bool = True):
        return sum(p.cpu_s * (p.scale("run") if scaled else 1.0) for p in self.procs)

    @property
    def peak_rss_mb(self):
        return max(p.maxrss_mb for p in self.procs)


class Runner:
    """Starts child processes, measures them and reaps every one."""

    def __init__(self, work: Path, deadline: float, sample: bool = True):
        self.work = work
        self.deadline = deadline
        self.sample = sample  # machine-speed slices during untraced operations
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def spawn(self, tag: str, spec: dict, importtime: bool = False) -> Proc:
        spec = dict(spec, src=str(ROOT / "src"), result=str(self.work / f"{tag}.result.json"),
                    sample=self.sample and not spec["trace"])
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        err_path = self.work / f"{tag}.stderr"
        with open(self.work / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd + [str(CHILD), str(spec_path), repr(t0)],
                stdout=out, stderr=err, env=self.env, cwd=self.work,
            )
            status, usage = self._reap(proc)
            wall = time.monotonic() - t0
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        result = result if status == 0 else None
        # the machine-speed slices are not the operation's time
        kernel = result["speed"] if result else {"wall_s": 0.0, "cpu_s": 0.0}
        return Proc(
            exit_status=status,
            wall_s=wall - kernel["wall_s"],
            cpu_s=usage.ru_utime + usage.ru_stime - kernel["cpu_s"],
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stderr=err_path.read_text(errors="replace"),
            result=result,
        )

    def _reap(self, proc: subprocess.Popen):
        """wait4 for the child's rusage; kill it at the run deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            time.sleep(0.002)


# ---------------------------------------------------------------------------
# one repetition of a workload


def module_of(wl) -> str:
    return "singlim.cli" if isinstance(wl, workloads.CliWorkload) else "singlim.modes"


def cli_invoke(wl: workloads.CliWorkload, runner: Runner, step: int, tag: str,
               trace: bool) -> tuple[Proc, Path]:
    """Run one CLI step of the workload in a fresh process; return it and its --out."""
    cmd, config = wl.steps[step]
    cfg_path = runner.work / f"{wl.name}-{step}.config.json"
    cfg_path.write_text(json.dumps(config))
    out = runner.work / tag
    spec = {
        "kind": "cli", "module": "singlim.cli", "trace": trace,
        "argv": [cmd, "--config", str(cfg_path), "--out", str(out)],
        "spans": str(runner.work / f"spans-{tag}.tsv.gz"),
    }
    return runner.spawn(tag, spec, importtime=trace), out


def cli_rep(wl: workloads.CliWorkload, runner: Runner, tag: str, trace: bool,
            references: list[dict]) -> Rep:
    rep = Rep([], attempted=len(wl.steps))
    for i, (cmd, _) in enumerate(wl.steps):
        step_tag = f"{tag}-{i}-{cmd}"
        proc, out = cli_invoke(wl, runner, i, step_tag, trace)
        rep.procs.append(proc)
        if proc.result is None:
            problems = [f"process exited {proc.exit_status} without a result"]
            rep.digests.append(None)
        else:
            problems = workloads.check_invocation(
                references[i], proc.result["exit_code"], proc.stderr, out
            )
            files = workloads.data_files(out) if out.is_dir() else {}
            rep.digests.append(workloads.digest(files))
            rep.bytes_written += sum(len(c) for c in files.values())
        if problems:
            rep.failed_ops += 1
            rep.problems += [f"{step_tag}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
    return rep


def oracle_rep(wl: workloads.OracleWorkload, runner: Runner, tag: str, trace: bool,
               cases_path: Path, n_cases: int) -> Rep:
    spec = {
        "kind": "oracle", "module": "singlim.modes", "trace": trace,
        "cases": str(cases_path), "spans": str(runner.work / f"spans-{tag}.tsv.gz"),
    }
    proc = runner.spawn(tag, spec, importtime=trace)
    rep = Rep([proc], attempted=n_cases)
    if proc.result is None:
        rep.failed_ops = n_cases
        rep.problems.append(f"{tag}: process exited {proc.exit_status} without a result")
        return rep
    errs = proc.result["rel_err"]
    rep.case_s = proc.result["case_s"]
    for i, err in enumerate(errs):
        if err is None or not err <= workloads.ORACLE_GATE:
            rep.failed_ops += 1
            rep.problems.append(f"{tag}: case {i} relative error {err} (gate {workloads.ORACLE_GATE:g})")
    rep.problems += [f"{tag}: {t}" for t in proc.result["tracebacks"]]
    rep.worst_rel_err = max((e for e in errs if e is not None), default=0.0)
    return rep


# ---------------------------------------------------------------------------
# statistics


def tail(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(x for x in samples if x is not None)
    out = {"n": len(s), "median": statistics.median(s) if s else None}
    if len(s) >= 11:
        out[f"p{100.0 * (len(s) - 10) / len(s):.1f}"] = s[-11]
    return out


def import_times(stderr: str, module: str) -> dict:
    """Cumulative -X importtime seconds of the workload's module and of scipy.integrate."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {
        "import.singlim_s": found.get(module, 0.0),
        "import.scipy_integrate_s": found.get("scipy.integrate", 0.0),
    }


def environment(seed: int, wl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: BLAS_THREADS for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
        "input_size": wl.input_size(),
    }


def layer_table(funcs: dict, overhead_s: float) -> str:
    rows = sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [
        f"tracing overhead (traced run_s - untraced run_s): {overhead_s:.4f} s",
        f"{'span':58} {'calls':>9} {'self_s':>10} {'total_s':>10} {'extra':>12}",
    ]
    for name, f in rows:
        lines.append(
            f"{name:58} {f['calls']:9d} {f['self_s']:10.4f} {f['total_s']:10.4f} {f['extra']:12.0f}"
        )
    return "\n".join(lines) + "\n"


def merge_functions(procs: list[Proc]) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for p in procs:
        for name, f in (p.result or {}).get("functions", {}).items():
            acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0})
            for k in acc:
                acc[k] += f[k]
    return merged


# ---------------------------------------------------------------------------
# one benchmark run


def run(wl, seed: int, seconds: int, trace: bool, work: Path, references=None) -> dict:
    """Run a workload for about ``seconds`` seconds; return the full record."""
    start = time.monotonic()
    # traced runs take no slices during the operation: they would count in spans
    runner = Runner(work, start + RUN_LIMIT_S, sample=not trace)
    module = module_of(wl)
    is_cli = isinstance(wl, workloads.CliWorkload)
    if is_cli and references is None:
        references = [workloads.load_reference(wl, i) for i in range(len(wl.steps))]
    if not is_cli:
        cases = workloads.oracle_cases(seed, wl.strata)
        cases_path = work / "cases.json"
        cases_path.write_text(json.dumps(cases))

    def rep(tag: str, traced: bool) -> Rep:
        if is_cli:
            return cli_rep(wl, runner, tag, traced, references)
        return oracle_rep(wl, runner, tag, traced, cases_path, len(cases))

    runner.spawn("warmup", {"kind": "probe", "module": module, "trace": False})
    probes = [runner.spawn(f"probe{i}", {"kind": "probe", "module": module, "trace": False})
              for i in range(SETUP_PROBES)]
    reps: list[Rep] = []
    traced_rep = None
    if trace:
        reps.append(rep("rep0", False))
        traced_rep = rep("traced", True)
    else:
        while True:
            r0 = time.monotonic()
            reps.append(rep(f"rep{len(reps)}", False))
            now = time.monotonic()
            if now - start + (now - r0) > seconds or now - start > RUN_LIMIT_S / 2:
                break
    all_reps = reps + ([traced_rep] if traced_rep else [])

    problems = [p for r in all_reps for p in r.problems]
    failed = sum(r.failed_ops for r in all_reps)
    # data files must be byte-identical across repetitions of one commit
    first = all_reps[0].digests
    for r in all_reps[1:]:
        for i, d in enumerate(r.digests):
            if d is not None and first[i] is not None and d != first[i]:
                failed += 1
                problems.append(f"step {i}: data files differ between repetitions")
    attempted = sum(r.attempted for r in all_reps)

    procs = [p for p in probes + [p for r in all_reps for p in r.procs] if p.result]

    def timings(scaled: bool) -> dict:
        return {
            "setup_s": [p.setup_s * (p.scale("setup") if scaled else 1.0) for p in procs],
            "run_s": [r.run_s(scaled) for r in reps if r.run_s() is not None],
            "wall_s": [r.wall_s(scaled) for r in reps],
            "cpu_s": [r.cpu_s(scaled) for r in reps],
        }

    samples = dict(timings(True), peak_rss_mb=[r.peak_rss_mb for r in reps])
    raw = timings(False)
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, wl),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems[:50],
        "samples": samples,
        "summary": {k: tail(v) for k, v in samples.items()},
        "unscaled": {"samples": raw, "summary": {k: tail(v) for k, v in raw.items()}},
        "speed": {
            "ref_slice_s": speed.REF_SLICE_S,
            "calibration_s": tail(s for p in procs for s in p.result["speed"]["calibration_s"]),
            "sampled_s": tail(s for p in procs for s in p.result["speed"]["sampled_s"]),
            "setup_scale": [p.scale("setup") for p in procs],
            "run_scale": [p.scale("run") for p in procs],
        },
        "elapsed_s": time.monotonic() - start,
    }
    if not is_cli:
        case_s = [c for r in reps for c in r.case_s]
        record["case_s"] = tail(case_s)
    if not samples["run_s"] or not samples["setup_s"]:
        record["metrics"] = None
        return record
    if not trace:
        # timings at the reference machine speed; the unscaled ones are in "unscaled"
        record["metrics"] = {
            k: statistics.median(samples[k]) for k in ("setup_s", "run_s", "wall_s", "cpu_s")
        }
        record["metrics"]["peak_rss_mb"] = max(samples["peak_rss_mb"])
        return record
    funcs = merge_functions(traced_rep.procs)
    results = [p.result or {} for p in traced_rep.procs]
    metrics = spantrace.layer_metrics(
        funcs,
        sum(r.get("unique_constructions", 0) for r in results),
        sum(r.get("remainder_eps", 0) for r in results),
    )
    metrics["modes.oracle.worst_rel_err"] = max(r.worst_rel_err for r in all_reps)
    metrics["cli.bytes_written"] = traced_rep.bytes_written
    imports = [import_times(p.stderr, module) for p in traced_rep.procs]
    for key in imports[0]:
        metrics[key] = sum(i[key] for i in imports)
    untraced = reps[0].run_s(False)
    overhead = (traced_rep.run_s(False) or 0.0) - untraced if untraced is not None else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = sum(r.get("spans", 0) for r in results)
    record["metrics"] = metrics
    record["layer_table"] = layer_table(funcs, overhead)
    return record


def record_reference(wl: workloads.CliWorkload, work: Path) -> list[dict]:
    """Summaries of one fresh run of each step, as the seed reference."""
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    refs = []
    for i, (cmd, _) in enumerate(wl.steps):
        proc, out = cli_invoke(wl, runner, i, f"ref-{i}-{cmd}", False)
        if proc.result is None:
            raise RuntimeError(f"reference run of {cmd} failed:\n{proc.stderr}")
        refs.append(workloads.make_reference(proc.result["exit_code"], out))
        shutil.rmtree(out)
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "singlim" / "__init__.py").is_file():
        print(f"no singlim package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = run(wl, args.seed, args.seconds, bool(args.trace), work)
    table = record.pop("layer_table", None)
    if table is not None:
        (work / "layers.txt").write_text(table)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if record["metrics"] is None:
        print(f"{wl.name}: no successful repetition; see {work}", file=sys.stderr)
        record["metrics"] = {}
    for problem in record["problems"][:10]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, value in record["metrics"].items():
        print(f"{name:44} {value:>16.6g} {unit_of(name)}")
    print(f"details: {work.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
