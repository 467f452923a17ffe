"""The four CLI workloads: seeded inputs, command lines and output checks.

A workload draws its input points from fixed grids with ``points(seed)``;
seed 0 gives the default points.  The CLI runs of one benchmark run cycle
through those points.  Work size does not depend on the seed; only the
values do.

Each output is checked twice.  ``invariants`` holds for any seed (row
counts, ordering, bounds, solver residuals).  ``extract`` pulls the numbers
that ``references.json`` records per grid point, and ``check`` compares them
within ``TOLERANCE``.  ``record.py`` fills ``references.json`` by running
``record_points`` for every grid point and storing what ``extract`` returns.
"""

from __future__ import annotations

import csv
import json
import os
import random

TOLERANCE = 1e-9      # energies and probabilities, absolute
RESIDUAL_MAX = 1e-8   # largest eigenpair residual a manifest may report


def _sets(**values) -> list[str]:
    args = []
    for key, value in values.items():
        args += ["--set", f"{key}={json.dumps(value)}"]
    return args


def _size_sets(size: dict) -> list[str]:
    return _sets(**{f"params.{k}": v for k, v in size.items()})


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_manifest(out) -> dict:
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def _key(delta: float) -> str:
    return f"delta{delta:.4f}"


def _residual_problems(out) -> list[str]:
    residual = read_manifest(out).get("residual_max")
    if residual is None or not residual < RESIDUAL_MAX:
        return [f"manifest residual_max {residual} not below {RESIDUAL_MAX:g}"]
    return []


def _delta_column_problems(deltas, rows) -> list[str]:
    if len(rows) != len(deltas):
        return [f"{len(rows)} rows for {len(deltas)} detunings"]
    if any(abs(float(r[0]) - d) > 1e-12 for r, d in zip(rows, deltas)):
        return ["detuning column does not match the inputs"]
    return []


class Quench:
    name = "quench"
    size = {"n_cavities": 301, "n_qubits": 50, "spacing": 1}
    t_max, dt, stride = 2000.0, 2.0, 50

    def points(self, seed: int) -> list[dict]:
        if seed == 0:
            return [{"initial": "fs", "alphas": [1, 6, 21]}]
        rng = random.Random(seed)
        n = self.size["n_qubits"]
        return [{"initial": rng.choice(["fs", "ps"]),
                 "alphas": sorted(rng.sample(range(1, n), 3))}]

    def grid(self) -> list[dict]:
        return [{"initial": kind, "alphas": [1]} for kind in ("fs", "ps")]

    def argv(self, point, out, size) -> list[str]:
        return ["dynamics", "--out", out, *_size_sets(size), *_sets(**{
            "options.initial": point["initial"], "options.alphas": point["alphas"],
            "options.t_max": self.t_max, "options.dt": self.dt})]

    def record_points(self, points, size) -> list[dict]:
        every = list(range(1, size["n_qubits"]))
        return [{"initial": kind, "alphas": every}
                for kind in sorted({p["initial"] for p in points})]

    def extract(self, point, out) -> dict:
        header, rows = read_csv(os.path.join(out, "dynamics.csv"))
        sampled = rows[:: self.stride]
        return {f"{point['initial']}/{name}": [float(r[col]) for r in sampled]
                for col, name in enumerate(header) if col > 0}

    def invariants(self, point, out, size) -> list[str]:
        problems = _residual_problems(out)
        header, rows = read_csv(os.path.join(out, "dynamics.csv"))
        if header != ["t"] + [f"P_alpha{a}" for a in point["alphas"]]:
            problems.append(f"dynamics header {header}")
        if len(rows) != round(self.t_max / self.dt) + 1:
            problems.append(f"{len(rows)} time rows")
        if any(abs(float(r[0]) - i * self.dt) > 1e-9 for i, r in enumerate(rows)):
            problems.append("time column is not the requested grid")
        probs = [[float(x) for x in r[1:]] for r in rows]
        if any(not -1e-12 <= p <= 1 + 1e-12 for row in probs for p in row):
            problems.append("a probability lies outside [0, 1]")
        if any(sum(row) > 1 + 1e-9 for row in probs):
            problems.append("probabilities of one sample sum above 1")
        n = size["n_qubits"]
        if point["initial"] == "fs":
            start = [2 * (n - a) / (n * (n - 1)) for a in point["alphas"]]
        else:
            start = [1.0 if a == 1 else 0.0 for a in point["alphas"]]
        if rows and max(abs(p - q) for p, q in zip(probs[0], start)) > TOLERANCE:
            problems.append("t = 0 row differs from the initial state")
        return problems


class DetuningScan:
    name = "detuning_scan"
    size = {"n_cavities": 501, "n_qubits": 60, "spacing": 1}
    grid_deltas = [-k / 100 for k in range(15, 0, -1)]

    def points(self, seed: int) -> list[dict]:
        """Three detunings, one per CLI run, cycled over the runs."""
        if seed == 0:
            return [{"deltas": [d]} for d in (-0.15, -0.07, -0.01)]
        return [{"deltas": [d]} for d in random.Random(seed).sample(self.grid_deltas, 3)]

    def grid(self) -> list[dict]:
        return [{"deltas": self.grid_deltas}]

    def argv(self, point, out, size) -> list[str]:
        return ["figure", "--fig", "6b", "--out", out, *_size_sets(size),
                *_sets(**{"options.values": point["deltas"]})]

    def record_points(self, points, size) -> list[dict]:
        return [{"deltas": sorted({d for p in points for d in p["deltas"]})}]

    def extract(self, point, out) -> dict:
        _, rows = read_csv(os.path.join(out, "fig6b.csv"))
        return {_key(float(r[0])): [float(x) for x in r[1:]] for r in rows}

    def invariants(self, point, out, size) -> list[str]:
        read_manifest(out)
        _, rows = read_csv(os.path.join(out, "fig6b.csv"))
        problems = _delta_column_problems(point["deltas"], rows)
        for r in rows:
            exact, variational, perturbation = (float(x) for x in r[1:])
            if variational < exact - 1e-12 or perturbation < exact - 1e-12:
                problems.append(f"bound below the exact energy at delta {r[0]}")
        return problems


class ExplicitPhoton:
    name = "explicit_photon"
    size = {"n_cavities": 61, "n_qubits": 8, "spacing": 1}
    k_lowest = 12
    grid_deltas = [-k / 1000 for k in (40, 35, 30, 25, 20)]

    def points(self, seed: int) -> list[dict]:
        if seed == 0:
            return [{"delta": -0.02}]
        return [{"delta": d} for d in random.Random(seed).sample(self.grid_deltas, 4)]

    def grid(self) -> list[dict]:
        return [{"delta": d} for d in self.grid_deltas]

    def argv(self, point, out, size) -> list[str]:
        return ["spectrum", "--out", out, *_size_sets(size), *_sets(**{
            "model": "full", "options.k_lowest": self.k_lowest, "params.delta": point["delta"]})]

    def record_points(self, points, size) -> list[dict]:
        return [{"delta": d} for d in sorted({p["delta"] for p in points})]

    def extract(self, point, out) -> dict:
        _, rows = read_csv(os.path.join(out, "spectrum.csv"))
        return {_key(point["delta"]): [float(r[0]) for r in rows]}

    def invariants(self, point, out, size) -> list[str]:
        problems = _residual_problems(out)
        _, rows = read_csv(os.path.join(out, "spectrum.csv"))
        energies = [float(r[0]) for r in rows]
        if len(energies) != self.k_lowest:
            problems.append(f"{len(energies)} levels, asked for {self.k_lowest}")
        if energies != sorted(energies):
            problems.append("spectrum not ascending")
        return problems


class SweepPool:
    name = "sweep_pool"
    size = {"n_cavities": 81, "n_qubits": 12, "spacing": 1}
    grid_deltas = [-k / 1000 for k in range(150, 15, -5)]

    def points(self, seed: int) -> list[dict]:
        if seed == 0:
            return [{"deltas": self.grid_deltas[::2]}]
        return [{"deltas": sorted(random.Random(seed).sample(self.grid_deltas, 14))}]

    def grid(self) -> list[dict]:
        return [{"deltas": self.grid_deltas}]

    def argv(self, point, out, size) -> list[str]:
        return ["sweep", "--out", out, *_size_sets(size),
                *_sets(**{"options.axis": "delta", "options.values": point["deltas"]})]

    def record_points(self, points, size) -> list[dict]:
        return [{"deltas": sorted({d for p in points for d in p["deltas"]})}]

    def extract(self, point, out) -> dict:
        _, rows = read_csv(os.path.join(out, "sweep.csv"))
        return {_key(float(r[0])): [float(r[1])] for r in rows}

    def invariants(self, point, out, size) -> list[str]:
        read_manifest(out)
        _, rows = read_csv(os.path.join(out, "sweep.csv"))
        return _delta_column_problems(point["deltas"], rows)


WORKLOADS = {w.name: w for w in (Quench(), DetuningScan(), ExplicitPhoton(), SweepPool())}

# A point that runs in well under a second: the warm-up run and the self-tests.
TINY = {"n_cavities": 41, "n_qubits": 6, "spacing": 1}
TINY_POINTS = {
    "quench": [{"initial": "fs", "alphas": [1, 2, 5]}],
    "detuning_scan": [{"deltas": [-0.1, -0.05]}],
    "explicit_photon": [{"delta": -0.02}],
    "sweep_pool": [{"deltas": [-0.1, -0.05, -0.02]}],
}


def check(workload, point, out, refs: dict, size: dict) -> list[str]:
    """Problems with one run's outputs; empty when they are correct."""
    try:
        problems = workload.invariants(point, out, size)
        for key, values in workload.extract(point, out).items():
            ref = refs.get(key)
            if ref is None:
                problems.append(f"no reference recorded for {key}")
            elif len(ref) != len(values):
                problems.append(f"{key}: {len(values)} values, reference has {len(ref)}")
            else:
                worst = max(abs(a - b) for a, b in zip(values, ref))
                if not worst <= TOLERANCE:  # also catches NaN
                    problems.append(f"{key}: off the reference by {worst:.3g}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems
