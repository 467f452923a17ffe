"""Record the reference outputs that ``run.py`` checks every CLI run against.

    python3 perfbench/record.py [workload ...]

Runs the CLI once for every ``record_points`` entry of each workload's grid
and writes what ``extract`` returns to ``references.json``.  Rerun it only
when a change is meant to alter the outputs, and say so in the change.
"""

import json
import os
import shutil
import sys

from run import HERE, run_once
from workloads import TOLERANCE, WORKLOADS


def record(workload, points, size, work) -> dict:
    """Reference values for ``points`` from fresh untraced CLI runs."""
    refs = {}
    for i, point in enumerate(workload.record_points(points, size)):
        out = os.path.join(work, f"record-{i:03d}")
        result = run_once(workload, point, out, False, size, {}, 3600)
        if result["exit_code"] or workload.invariants(point, out, size):
            raise SystemExit(f"{workload.name}: bad output for {point}; see {out}")
        refs.update(workload.extract(point, out))
    return refs


def main():
    """Record every workload, or only those named on the command line."""
    path = os.path.join(HERE, "references.json")
    table = {}
    if os.path.exists(path):
        with open(path) as fh:
            table = json.load(fh)["workloads"]
    for name in sys.argv[1:] or WORKLOADS:
        workload = WORKLOADS[name]
        work = os.path.join(HERE, ".work", "record", name)
        shutil.rmtree(work, ignore_errors=True)
        table[name] = record(workload, workload.grid(), workload.size, work)
        print(f"{name}: {len(table[name])} reference entries")
    with open(path, "w") as fh:
        json.dump({"tolerance": TOLERANCE, "workloads": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
