"""Benchmark of the ``simulate`` CLI: one workload per call, closed loop.

    python3 perfbench/run.py --workload quench --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs the CLI in a fresh process, waits for it, checks its
outputs, and starts the next run while the expected end stays inside
``--seconds``; an untimed warm-up run at the tiny point comes first.
With ``--trace 0`` every run is untraced and the result holds the
end-to-end metrics (medians over the runs).  With ``--trace 1``
traced and untraced runs alternate; the result holds the per-layer metrics
(medians over the traced runs) and the tracing overhead.  The last line of
standard output is the JSON result (for ``all``, one object whose metric
names carry the workload as prefix); ``.work/<workload>/result.json`` keeps
every run's record and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
import spans
from workloads import TINY, TINY_POINTS, WORKLOADS, check

RUN_LIMIT_S = 170  # the whole benchmark run ends within 180 s
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_once(workload, point, out, traced, size, refs, kill_after) -> dict:
    """One CLI process, waited for with its resource usage."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), os.path.join(out, "runner.json"),
           "1" if traced else "0", *workload.argv(point, out, size)]
    load_before = os.getloadavg()
    with open(os.path.join(out, "stdout.txt"), "w") as so, \
            open(os.path.join(out, "stderr.txt"), "w") as se:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=so, stderr=se, start_new_session=True)
        timer = threading.Timer(kill_after, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"point": point, "traced": traced, "exit_code": proc.returncode,
              "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024,
              "load_before": load_before, "load_after": os.getloadavg()}
    try:
        with open(os.path.join(out, "runner.json")) as fh:
            inner = json.load(fh)
        record["setup_s"] = inner["setup_end"] - started
        record["child_cpu_s"] = inner["child_cpu_s"]
        record["environment"] = inner["environment"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record["problems"] = [f"exit code {proc.returncode}, no runner record: {exc!r}"]
        return record
    record["problems"] = ([f"exit code {proc.returncode}"] if proc.returncode
                          else check(workload, point, out, refs, size))
    if traced and not record["problems"]:
        layer = spans.layer_metrics(spans.load_spans(out))
        layer["cli.child_cpu_s"] = record["child_cpu_s"]
        record["layers"] = layer
    return record


def measure(workload, points, seconds, trace, work, refs, size=None) -> list[dict]:
    """Closed loop of CLI runs until the next one would end past ``seconds``."""
    size = size or workload.size
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runs, begun = [], time.perf_counter()
    # compiles the package's bytecode and pages in numpy, scipy and both
    # OpenBLAS libraries, so the first timed run does not pay for it
    run_once(workload, TINY_POINTS[workload.name][0], os.path.join(work, "warm-up"),
             False, TINY, refs, 60)
    minimum = 2 if trace else 1
    while True:
        traced = trace and len(runs) % 2 == 1
        point = points[(len(runs) // (2 if trace else 1)) % len(points)]
        elapsed = time.perf_counter() - begun
        runs.append(run_once(workload, point, os.path.join(work, f"run-{len(runs):03d}"),
                             traced, size, refs, max(RUN_LIMIT_S - elapsed, 5)))
        elapsed = time.perf_counter() - begun
        expected = statistics.median(r["wall_s"] for r in runs)
        if elapsed > RUN_LIMIT_S / 2 or (len(runs) >= minimum and elapsed + expected > seconds):
            return runs


def _median(runs, key):
    values = [r[key] for r in runs]
    return statistics.median(values) if values else 0.0


def summarize(runs, trace) -> dict:
    """Metrics of one benchmark run: ``{name: (value, unit)}``."""
    ok = [r for r in runs if not r["problems"]]
    if not trace:
        return {name: (_median(ok, name), unit) for name, unit in END_TO_END.items()}
    traced = [r["layers"] for r in ok if r["traced"]]
    names = sorted({name for layer in traced for name in layer})
    metrics = {name: (statistics.median(t[name] for t in traced), unit_of(name))
               for name in names}
    calls = [t["hamiltonians.matvec_calls"] for t in traced]
    metrics["hamiltonians.matvec_calls_spread"] = (max(calls) - min(calls) if calls else 0,
                                                   "count")
    plain = [r for r in ok if not r["traced"]]
    with_spans = [r for r in ok if r["traced"]]
    for key in ("wall_s", "cpu_s"):
        metrics[f"trace.overhead_{key}"] = (_median(with_spans, key) - _median(plain, key), "s")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "solver.applications_per_pair":
        return "count/pair"
    return "count"


def report(runs, metrics, environment) -> list[str]:
    """Problems, environment and one ``name value unit`` line per metric,
    then the JSON result as the last line."""
    failed = sum(1 for r in runs if r["problems"])
    lines = [f"FAIL {problem}" for r in runs for problem in r["problems"]]
    lines.append(f"environment: {json.dumps(environment)}")
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"failed_ratio {failed / len(runs):.6g} ratio ({failed} of {len(runs)} runs)")
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return lines


def bench(name, seed, seconds, trace) -> list[str]:
    """One benchmark run of one workload; returns its report lines."""
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)["workloads"][name]
    workload = WORKLOADS[name]
    points = workload.points(seed)
    work = os.path.join(HERE, ".work", name)
    runs = measure(workload, points, seconds, trace, work, refs)
    metrics = summarize(runs, trace)
    environment = next((r["environment"] for r in runs if "environment" in r), None)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": int(trace), "points": points,
                   "environment": environment, "runs": runs, "metrics": metrics}, fh, indent=1)
    return report(runs, metrics, environment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "droplet_lattice", "cli.py")):
        print("no droplet_lattice source under src/; run from a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        print("\n".join(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # every workload in turn; the last line merges the results, metrics prefixed by workload
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        *lines, last = bench(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(f"{name}: {line}" for line in lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0

if __name__ == "__main__":
    sys.exit(main())
