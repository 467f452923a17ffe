"""Layer spans for the traced run, installed at run time from outside the package.

``install`` rebinds every public function of the layer modules, wherever a
module of the package holds a reference to it, to a wrapper that records one
span per call: name, id, parent id, start, end, CPU seconds, process id and
run id.  ``FullOperator.matvec`` and the CLI's sweep job get the same
wrapper.  Spans stay in memory and are written out as JSON lines when the
run ends (for a sweep worker, when each of its jobs ends, because pool
workers exit without running exit handlers).

``layer_metrics`` turns the spans of one CLI run into the per-layer metrics.
Every clock is ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC,
so spans from the CLI process and its pool workers share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("bath", "couplings", "hamiltonians", "solver", "observables", "params")


class Recorder:
    """In-memory span list of one process, flushed to ``spans-<pid>.jsonl``."""

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.counter = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        # keep the stack: the span open at fork time becomes the worker spans' parent
        self.pid = os.getpid()
        self.spans = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counter += 1
            sid = f"{self.pid}.{self.counter}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                self.stack.pop()
                span = {"name": name, "id": sid, "parent": parent, "start": t0, "end": t1,
                        "cpu": c1 - c0, "pid": self.pid, "run": self.run_id}
                if note is not None and result is not None:
                    span.update(note(result))
                self.spans.append(span)

        return wrapper

    def flush(self):
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def install(recorder: Recorder):
    """Wrap the layer functions, ``FullOperator.matvec`` and the sweep job."""
    from droplet_lattice import cli, hamiltonians

    modules = {name: importlib.import_module(f"droplet_lattice.{name}") for name in LAYERS}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                note = _eigenpairs if (short, attr) == ("solver", "eigensolve") else None
                wrapped[obj] = recorder.wrap(f"{short}.{attr}", obj, note)
    for mod in [cli, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    op = hamiltonians.FullOperator
    op.matvec = recorder.wrap("hamiltonians.matvec", op.matvec)

    job = recorder.wrap("cli.sweep_point", cli._sweep_point)
    root_pid = recorder.pid

    @functools.wraps(cli._sweep_point)
    def sweep_point(args):
        try:
            return job(args)
        finally:
            if os.getpid() != root_pid:
                recorder.flush()

    cli._sweep_point = sweep_point


def _eigenpairs(decomp):
    return {"pairs": len(decomp.energies)}


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> None:
    """Add ``self`` (duration minus the union of child intervals) and
    ``self_cpu`` (CPU minus same-process children) to every span."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans:
        kids = children.get(s["id"], [])
        covered = _union_length(
            (max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids
        )
        s["self"] = (s["end"] - s["start"]) - covered
        s["self_cpu"] = s["cpu"] - sum(k["cpu"] for k in kids if k["pid"] == s["pid"])


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer numbers of one traced CLI run (see the README's table)."""
    self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def outermost(pred):
        # spans matching pred with no matching ancestor, so nested calls count once
        picked = []
        for s in spans:
            if not pred(s):
                continue
            parent = by_id.get(s["parent"])
            while parent is not None and not pred(parent):
                parent = by_id.get(parent["parent"])
            if parent is None:
                picked.append(s)
        return picked

    m = {}

    def group(metric, pred, calls=None):
        # metric ends in "s"; its CPU twin swaps that for "cpu_s"
        picked = outermost(pred)
        m[metric] = sum(s["end"] - s["start"] for s in picked)
        m[metric[:-1] + "cpu_s"] = sum(s["cpu"] for s in picked)
        if calls:
            m[calls] = len(picked)
        return picked

    def named(*names):
        return lambda s: s["name"] in names

    def layer(name):
        return lambda s: s["name"].split(".")[0] == name

    eig = group("solver.eigensolve_s", named("solver.eigensolve"), "solver.eigensolve_calls")
    m["solver.eigensolve_self_s"] = sum(s["self"] for s in eig)
    m["solver.eigensolve_self_cpu_s"] = sum(s["self_cpu"] for s in eig)
    mv = group("hamiltonians.matvec_s", named("hamiltonians.matvec"), "hamiltonians.matvec_calls")
    iterative = {s["parent"] for s in mv}
    pairs = sum(s.get("pairs", 0) for s in eig if s["id"] in iterative)
    m["solver.applications_per_pair"] = len(mv) / pairs if pairs else 0.0
    group("solver.propagate_s", named("solver.propagate"))
    group("couplings.build_s", named("couplings.build_effective_couplings"), "couplings.calls")
    group("couplings.pair_bound_s", named("couplings.pair_bound_couplings"))
    group("couplings.pair_hop_s", named("couplings.pair_hop_matrix"))
    group("bath.profile_table_s", named("bath.profile_table"))
    group("bath.solve_s", named("bath.solve_bath"), "bath.calls")
    group("hamiltonians.build_s", lambda s: s["name"].startswith("hamiltonians.build_"))
    group("params.s", layer("params"))
    group("solver.variational_s", named(
        "solver.minimize_variational", "solver.variational_energy", "solver.variational_vector",
        "solver.golden_section", "solver.scan_variational"))
    group("solver.perturbation_s", named("solver.first_order_perturbation"))
    group("observables.s", layer("observables"), "observables.calls")

    cli_spans = [s for s in spans if s["name"].startswith("cli.")]
    m["cli.self_s"] = sum(s["self"] for s in cli_spans)
    m["cli.self_cpu_s"] = sum(s["self_cpu"] for s in cli_spans)
    m["cli.workers"] = len({s["pid"] for s in spans if s["name"] == "cli.sweep_point"})
    for name in LAYERS:
        mine = [s for s in spans if s["name"].split(".")[0] == name]
        m[f"{name}.self_s"] = sum(s["self"] for s in mine)
        m[f"{name}.self_cpu_s"] = sum(s["self_cpu"] for s in mine)
    root = [s for s in spans if s["name"] == "cli.main"]
    m["trace.wall_s"] = sum(s["end"] - s["start"] for s in root)
    m["trace.accounted_s"] = sum(s["self"] for s in spans)
    return m
