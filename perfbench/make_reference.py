"""Record the seed reference of the CLI workloads' outputs.

Usage (from the repository root, on the commit that serves as reference):

    python3 perfbench/make_reference.py

Runs each CLI workload once and writes one summary per invocation to
perfbench/reference/<workload>/<step>-<command>.json: the exit code and,
per data file, the values the benchmark compares against (see
workloads.check_invocation).  The committed reference was recorded on the
seed commit; a change that claims a gain must not re-record it.
"""

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    for wl in workloads.WORKLOADS.values():
        if not isinstance(wl, workloads.CliWorkload):
            continue
        work = run.OUT_DIR / f"reference-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl.reference_dir.mkdir(parents=True, exist_ok=True)
        for i, ref in enumerate(run.record_reference(wl, work)):
            path = wl.reference_dir / f"{i}-{wl.steps[i][0]}.json"
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"{path.relative_to(run.ROOT)}: exit {ref['exit_code']}, {len(ref['files'])} files")
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
