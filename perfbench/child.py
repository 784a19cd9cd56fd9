"""One benchmark process: import singlim, run one operation, write a result.

Usage: python3 perfbench/child.py SPEC.json SPAWN_TIME

SPEC is written by run.py.  SPAWN_TIME is the parent's time.monotonic()
just before it started this process (the clock is system-wide), so
``setup_s`` covers interpreter start plus the singlim imports.  Then the
machine-speed slices of ``speed.py`` run, then the operation; untraced
operations are sampled by further slices while they run, and their time is
taken out of ``run_s``.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawned = float(sys.argv[2])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    __import__(spec["module"])  # not importlib: -X importtime logs this path only
    module = sys.modules[spec["module"]]
    setup_s = time.monotonic() - spawned
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"imported {module.__file__}, not the package under {src}")
    import speed  # after setup_s: the sampler's own imports are not set-up

    sampler = speed.Sampler()
    sampler.calibrate()
    result = {"setup_s": setup_s}
    if spec["kind"] != "probe":
        tracer = None
        if spec["trace"]:
            import spantrace

            tracer = spantrace.Tracer()
            tracer.install()
        if spec["sample"]:
            sampler.start()
        try:
            if spec["kind"] == "cli":
                t0 = time.perf_counter()
                result["exit_code"] = module.main(spec["argv"])
                result["run_s"] = time.perf_counter() - t0
            else:
                result.update(run_oracle(module, json.loads(Path(spec["cases"]).read_text())))
        finally:
            sampler.stop()
        result["run_s"] -= sampler.during_s
        if tracer is not None:
            result["spans"] = tracer.write(spec["spans"])
            result["functions"] = tracer.per_function()
            result["unique_constructions"] = tracer.unique_constructions()
            result["remainder_eps"] = len(tracer.remainder_eps)
    result["speed"] = sampler.result()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def run_oracle(modes, cases) -> dict:
    """Closed form against the adaptive oracle, case by case, timed."""
    import numpy as np

    from workloads import ORACLE_TOL, oracle_rel_err

    case_s, errors, tracebacks = [], [], []
    t0 = time.perf_counter()
    for c in cases:
        c0 = time.perf_counter()
        try:
            params = modes.ModeParams(c["eps"], c["lam"], c["y0"], c["y1"])
            forcing = modes.ForcingTerm(c["a"], c["b"], c["nu"])
            ts = np.array(c["ts"])
            closed = modes.solve_forced(params, forcing).value(ts)
            ys, _ = modes.rk_reference_path(params, forcing, ts, ORACLE_TOL)
            errors.append(oracle_rel_err(closed, ys))
        except Exception:  # a case that raises is a failed operation; go on
            errors.append(None)
            tracebacks.append(traceback.format_exc())
        case_s.append(time.perf_counter() - c0)
    run_s = time.perf_counter() - t0
    return {"run_s": run_s, "case_s": case_s, "rel_err": errors, "tracebacks": tracebacks[:3]}


if __name__ == "__main__":
    sys.exit(main())
