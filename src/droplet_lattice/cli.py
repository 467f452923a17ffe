"""Configuration ingestion, scenario orchestration, and result persistence.

Entry point: ``simulate <task> --config cfg.json [--set key=value ...]
--out dir``.  Every run writes its outputs plus a manifest echoing the
fully resolved configuration; reruns with the same configuration produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np
import scipy

from . import bath, pipeline
from . import observables as obs
from .bath import write_band_csv
from .blas import blas_libraries, set_blas_threads
from .couplings import hop_scale_and_length, write_hop_csv, write_pair_hop_blocks_csv
from .errors import BracketError, ConfigError, ConvergenceError, SimulationError, SizeError
from .hamiltonians import _require_pairs, export_triplets
from .output import atomic_open, write_csv
from .params import asdict_params, build_params, default_params
from .pipeline import Pipeline
from .solver import VARIATIONAL_BRACKET, first_order_perturbation, minimize_variational, variational_energy

SCHEMA_VERSION = 1

MODELS = tuple(pipeline.MODELS)
_ITERATIVE_MODELS = ("full", "oracle")
_SWEEP_AXES = ("delta", "g", "u", "spacing", "n_qubits")

DEFAULT_PARAMS = asdict_params(default_params())


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_real_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_real, value))


_FLAG = (lambda v: isinstance(v, bool), "true or false")

#: every option -> (check, requirement); any other option key is refused
_OPTIONS = {
    "k_lowest": (lambda v: _is_count(v) and v > 0, "a positive integer"),
    "state_index": (lambda v: _is_count(v) and v >= 0, "a non-negative integer"),
    "n_max": (lambda v: _is_count(v) and v > 0, "a positive integer"),
    "reference_qubits": (lambda v: _is_count(v) and v > 0, "a positive integer"),
    "t_max": (lambda v: _is_real(v) and v > 0, "a finite positive number"),
    "dt": (lambda v: _is_real(v) and v > 0, "a finite positive number"),
    "initial": (lambda v: isinstance(v, str) and v.lower() in ("fs", "ps"), "'fs' or 'ps'"),
    "alphas": (lambda v: isinstance(v, list) and all(map(_is_count, v)), "a list of integers"),
    "snapshot_times": (_is_real_list, "a list of finite numbers"),
    "values": (lambda v: _is_real_list(v) and len(v) > 0, "a non-empty list of finite numbers"),
    "axis": (lambda v: v in _SWEEP_AXES, f"one of {_SWEEP_AXES}"),
    "fig": (lambda v: isinstance(v, str) or _is_count(v), "a figure id"),
    "classify": _FLAG,
    "export_matrix": _FLAG,
    "dump_bands": _FLAG,
    "dump_couplings": _FLAG,
}


@dataclass
class RunConfig:
    """Validated run request."""

    task: str
    params: dict = field(default_factory=lambda: dict(DEFAULT_PARAMS))
    model: str = "spin"
    options: dict = field(default_factory=dict)
    out_dir: str = "out"
    deterministic: bool = True
    schema_version: int = SCHEMA_VERSION


def _mapping(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return value


def load_config(raw: dict) -> RunConfig:
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {raw.get('schema_version')}")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    model = raw.get("model", "spin")
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {model!r}")
    raw_params = _mapping(raw, "params")
    unknown = set(raw_params) - set(DEFAULT_PARAMS)
    if unknown:
        raise ConfigError(f"unknown params keys: {sorted(unknown)}")
    options = dict(_mapping(raw, "options"))
    unknown = set(options) - set(_OPTIONS)
    if unknown:
        raise ConfigError(f"unknown option keys: {sorted(unknown)}")
    for key, (check, requirement) in _OPTIONS.items():
        if key in options and not check(options[key]):
            raise ConfigError(f"options.{key} must be {requirement}, got {options[key]!r}")
    if task == "figure":
        if not options.get("fig"):
            raise ConfigError("figure task needs options.fig")
        if str(options["fig"]).lower() not in FIGURES:
            raise ConfigError(f"no data generator for figure {options['fig']!r}")
    if raw.get("deterministic", True) is not True:
        raise ConfigError("the deterministic flag is always on; remove or set true")
    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir must be a non-empty string, got {out_dir!r}")
    return RunConfig(
        task=task,
        params={**DEFAULT_PARAMS, **raw_params},
        model=model,
        options=options,
        out_dir=out_dir,
        deterministic=True,
    )


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``--set dotted.key=value`` pairs onto the raw config mapping."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into non-mapping at {part!r}")
        node[parts[-1]] = value
    return raw


def _decompose(pipe: Pipeline, cfg: RunConfig):
    k = cfg.options.get("k_lowest", 12 if cfg.model in _ITERATIVE_MODELS else None)
    dim = pipe.model(cfg.model).dim
    if k is not None and k >= dim:
        raise ConfigError(f"options.k_lowest {k} must be below the model dimension {dim}")
    return pipe.spectrum(cfg.model, k)


def _write_snapshots(prefix, states, basis, out):
    """Write each state's spin-spin grid to ``<prefix><time>.csv``, once per
    distinct name, and return the names."""
    written = []
    for state in states:
        name = f"{prefix}{state.time:.12g}.csv"
        if name not in written:
            grid = obs.spin_spin_correlation(state, basis)
            obs.write_corr_snapshot_csv(grid, os.path.join(out, name))
            written.append(name)
    return written


def _write_overlaps(decomp, initial: str, basis, path):
    psi0 = obs.initial_state(initial, basis)
    energies, weights = obs.overlap_spectrum(psi0, decomp)
    obs.write_overlap_csv(energies, weights, path)


# ---------------------------------------------------------------------------
# tasks: each returns (decomposition or None, files written, extra manifest keys)
# ---------------------------------------------------------------------------


def _task_spectrum(cfg, pipe, out):
    decomp = _decompose(pipe, cfg)
    write_csv(os.path.join(out, "spectrum.csv"), ["E_minus_E0b"], ([e] for e in decomp.energies))
    written = ["spectrum.csv"]
    if cfg.options.get("export_matrix"):
        export_triplets(pipe.model(cfg.model), os.path.join(out, "matrix.txt"))
        written.append("matrix.txt")
    if cfg.options.get("dump_bands"):
        write_band_csv(pipe.bands, os.path.join(out, "bands.csv"))
        written.append("bands.csv")
    if cfg.options.get("dump_couplings"):
        write_hop_csv(pipe.hop, os.path.join(out, "hop.csv"))
        write_pair_hop_blocks_csv(
            pipe.pair_hop, pipe.basis, os.path.join(out, "pair_hop_blocks.csv")
        )
        written.extend(["hop.csv", "pair_hop_blocks.csv"])
    return decomp, written, {}


def _task_correlations(cfg, pipe, out):
    decomp = _decompose(pipe, cfg)
    index = cfg.options.get("state_index", 0)
    if index >= len(decomp.energies):
        raise ConfigError(
            f"options.state_index {index} out of range: {len(decomp.energies)} states solved"
        )
    state = decomp.state(index)
    obs.write_pair_corr_csv(
        obs.pair_correlation(state, pipe.basis), os.path.join(out, "pair_corr.csv")
    )
    obs.write_corr_snapshot_csv(
        obs.spin_spin_correlation(state, pipe.basis), os.path.join(out, "corr_snapshot.csv")
    )
    return decomp, ["pair_corr.csv", "corr_snapshot.csv"], {}


def _task_dynamics(cfg, pipe, out):
    dims = pipe.model(cfg.model).dims
    _require_pairs(dims, "dynamics needs a dense pair-basis model", ConfigError)
    t_max = float(cfg.options.get("t_max", 1e4))
    dt = float(cfg.options.get("dt", 2.0))
    try:
        times = np.arange(0.0, t_max + dt / 2, dt)
    except ValueError as exc:  # numpy refuses a length it cannot index
        raise SizeError(f"time grid to t_max {t_max:g} in steps of dt {dt:g}: {exc}") from exc
    alphas = cfg.options.get("alphas", [1, 6, 21])
    if any(not 1 <= a <= pipe.params.n_qubits - 1 for a in alphas):
        raise ConfigError(f"alphas must lie in [1, {pipe.params.n_qubits - 1}], got {alphas}")
    keep = [np.argmin(np.abs(times - t)) for t in cfg.options.get("snapshot_times", [])]
    decomp, snaps, series = pipe.quench(
        cfg.model, cfg.options.get("initial", "fs"), times, alphas, keep
    )
    obs.write_dynamics_csv(times, series, os.path.join(out, "dynamics.csv"))
    written = _write_snapshots("corr_snapshot_t", snaps, pipe.basis, out)
    return decomp, ["dynamics.csv", *written], {}


def _task_variational(cfg, pipe, out):
    h_spin = pipe.model("spin")
    result = minimize_variational(h_spin, n_max=cfg.options.get("n_max"))
    write_csv(os.path.join(out, "variational.csv"), ["n", "E_var"], enumerate(result.energies, 1))
    written = ["variational.csv"]
    decomp = None
    if cfg.options.get("classify", True):
        ref_qubits = cfg.options.get("reference_qubits", math.ceil(pipe.params.n_qubits * 4 / 3))
        ref_params = build_params({**asdict_params(pipe.params), "n_qubits": ref_qubits})
        reference = minimize_variational(Pipeline(ref_params).model("spin"), n_max=1)
        decomp = pipe.spectrum("spin")
        labels = obs.classify_droplet_states(decomp, result, reference=reference)
        write_csv(
            os.path.join(out, "droplets.csv"),
            ["state_index", "mode", "overlap"],
            zip(labels.indices, labels.mode_numbers, labels.overlaps),
        )
        written.append("droplets.csv")
    return decomp, written, {"L_r": result.length}


def _task_overlaps(cfg, pipe, out):
    dims = pipe.model(cfg.model).dims
    _require_pairs(dims, "overlap decomposition needs a pair-basis model", ConfigError)
    decomp = _decompose(pipe, cfg)
    _write_overlaps(
        decomp, cfg.options.get("initial", "fs"), pipe.basis, os.path.join(out, "overlap.csv")
    )
    return decomp, ["overlap.csv"], {}


def _sweep_point(args):
    params_dict, model_name = args
    return float(Pipeline(build_params(params_dict)).spectrum(model_name, 1).energies[0])


def _pool_size(jobs: int) -> int:
    """Sweep workers, one per job up to the process's cores and no more:
    ``SIMULATE_WORKERS`` caps them."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cores = os.cpu_count() or 1
    text = os.environ.get("SIMULATE_WORKERS")
    if text is not None and (not text.isdecimal() or int(text) < 1):
        raise ConfigError(f"SIMULATE_WORKERS must be a positive integer, got {text!r}")
    return min(int(text) if text else cores, cores, jobs)


def _task_sweep(cfg, pipe, out):
    axis = cfg.options.get("axis", "delta")
    values = cfg.options.get("values")
    if not values:
        raise ConfigError("sweep needs options.values")
    jobs = [({**cfg.params, axis: v}, cfg.model) for v in values]
    workers = _pool_size(len(jobs))
    if workers > 1:
        # jobs that share n_cavities and u (every axis but u) share one bound
        # band: solved here, the forked workers inherit it.  A point that
        # cannot be solved fails in its own job, with its own message
        keys = Counter((p["n_cavities"], p["u"]) for p, _ in jobs)
        (n_cavities, u), sharing = keys.most_common(1)[0]
        if sharing > 1:
            with contextlib.suppress(SimulationError):
                bath.solve_bath(build_params({**cfg.params, "n_cavities": n_cavities, "u": u}))
        # the pool (with multiprocessing, socket and logging) loads here, in
        # the one task that starts it
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        # the forked workers inherit the parent's one BLAS thread per pool
        with ProcessPoolExecutor(workers) as pool:
            try:
                energies = list(pool.map(_sweep_point, jobs))
            except BrokenProcessPool as exc:
                raise SimulationError(f"a sweep worker died: {exc}") from exc
    else:
        energies = [_sweep_point(j) for j in jobs]
    write_csv(os.path.join(out, "sweep.csv"), [axis, "E0_minus_E0b"], zip(values, energies))
    return None, ["sweep.csv"], {"pool": {"workers": workers}}


def _task_validate(cfg, pipe, out):
    from . import oracles

    checks = []

    def check(name, value, tol):
        ok = value < tol
        checks.append((name, f"{value:.6e}", f"{tol:.0e}", int(ok)))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.0e})")

    small = Pipeline(build_params({**cfg.params, "n_cavities": 41, "n_qubits": 6, "spacing": 1}))
    basis, bands = small.basis, small.bands
    for name, oracle, model in (
        ("single hop", oracles.constrained_hop_by_strings(small.hop, basis), "single"),
        ("unconstrained hop", oracles.unconstrained_hop_by_strings(small.hop, basis),
         "tilde-single"),
        ("pair hop", oracles.pair_hop_by_strings(small.pair_hop, basis), "pair"),
    ):
        payload = small.model(model).payload
        check(f"operator-string {name}", np.abs(oracle - payload.toarray()).max(), 1e-12)
    bath_spec = np.linalg.eigvalsh(oracles.two_photon_bath_sector(small.params))
    worst = max(np.abs(bath_spec - e).min() for e in bands.bound_energies)
    check("bath two-photon sector vs bound band", worst, 1e-9)
    one_spec = np.linalg.eigvalsh(oracles.single_photon_sector(small.params))
    worst = max(np.abs(one_spec - e).min() for e in bands.single_photon_energies)
    check("bath one-photon sector vs dispersion", worst, 1e-10)
    ref = oracles.pair_hop_reference(small.params, small.pair_bound, bands)
    check("pair-hop factorization vs wavevector loop", np.abs(ref - small.pair_hop).max(), 1e-12)

    tiny = Pipeline(build_params({**cfg.params, "n_cavities": 41, "n_qubits": 4, "spacing": 1}))
    exact, truncated = tiny.spectrum("oracle", 5).energies, tiny.spectrum("full", 5).energies
    check("bound-pair truncation lowest 5", np.abs(exact - truncated).max(), 1e-4)

    write_csv(os.path.join(out, "validate.csv"), ["check", "value", "tol", "ok"], checks)
    if not all(ok for *_, ok in checks):
        raise ConvergenceError("validation suite failed; see validate.csv")
    return None, ["validate.csv"], {}


def _task_figure(cfg, pipe, out):
    fig = str(cfg.options["fig"]).lower()
    return None, FIGURES[fig](fig, cfg, pipe, out), {}


# ---------------------------------------------------------------------------
# figure data: each generator writes the series behind one standard figure,
# in its coordinates, and returns the file names
# ---------------------------------------------------------------------------


def _fig3(fig, cfg, pipe, out):
    deltas = cfg.options.get("values", list(np.linspace(-0.15, -0.005, 30)))
    rows = [(d, *hop_scale_and_length(build_params({**cfg.params, "delta": float(d)})))
            for d in deltas]
    write_csv(os.path.join(out, "fig3.csv"), ["delta", "W0", "L0"], rows)
    return ["fig3.csv"]


def _fig4(fig, cfg, pipe, out):
    write_pair_hop_blocks_csv(pipe.pair_hop, pipe.basis, os.path.join(out, "fig4.csv"))
    return ["fig4.csv"]


def _fig5(fig, cfg, pipe, out):
    columns = [pipe.spectrum(m).energies for m in ("spin", "single", "tilde-single")]
    write_csv(
        os.path.join(out, "fig5.csv"),
        ["index", "E_spin", "E_single", "E_tilde"],
        ((i, *row) for i, row in enumerate(zip(*columns), 1)),
    )
    return ["fig5.csv"]


def _fig6a(fig, cfg, pipe, out):
    spin, single = pipe.spectrum("spin"), pipe.spectrum("single")
    var = minimize_variational(pipe.model("spin"), n_max=6)
    droplets = obs.classify_droplet_states(spin, var).indices[:6] - 1
    pert = first_order_perturbation(single, pipe.pair_hop_factor, indices=np.arange(6))
    write_csv(
        os.path.join(out, "fig6a.csv"),
        ["n", "E_spin", "E_single", "E_variational", "E_perturbation"],
        ((n + 1, spin.energies[d], single.energies[n], var.energies[n], pert[n])
         for n, d in enumerate(droplets)),
    )
    return ["fig6a.csv"]


def _ground_energies(params):
    """Exact, variational and first-order ground energies at one detuning."""
    pipe = Pipeline(params)
    h_spin = pipe.model("spin")
    exact = pipe.spectrum("spin", 1).energies[0]
    single = pipe.spectrum("single", 4)
    pert = first_order_perturbation(single, pipe.pair_hop_factor, indices=[0])[0]
    try:
        var_energy = minimize_variational(h_spin, n_max=1).energies[0]
    except BracketError:
        # unbound regime: the profile wants the whole array; the
        # bracket edge still gives a valid upper bound
        var_energy = variational_energy(h_spin, VARIATIONAL_BRACKET[1], 1)
    return exact, var_energy, pert


def _fig6b(fig, cfg, pipe, out):
    deltas = cfg.options.get("values", list(np.linspace(-0.15, -0.01, 8)))
    write_csv(
        os.path.join(out, "fig6b.csv"),
        ["delta", "E_exact", "E_variational", "E_perturbation"],
        ((d, *_ground_energies(build_params({**cfg.params, "delta": float(d)})))
         for d in deltas),
    )
    return ["fig6b.csv"]


def _fig7(fig, cfg, pipe, out):
    delta = -1 / 50 if fig == "7a" else -3 / 20
    point = Pipeline(build_params({**cfg.params, "delta": delta}))
    cols = {}
    for name, k in (("spin", 1), ("single", 1), ("full", 4)):
        state = point.spectrum(name, k).state(0)
        cols[name] = obs.pair_correlation(state, point.basis).probabilities / state.pair_weight()
    write_csv(
        os.path.join(out, f"fig{fig}.csv"),
        ["alpha", "P_full", "P_spin", "P_single"],
        zip(range(1, point.params.n_qubits), cols["full"], cols["spin"], cols["single"]),
    )
    return [f"fig{fig}.csv"]


def _fig8(fig, cfg, pipe, out):
    initial = "ps" if fig == "8a" else "fs"
    _write_overlaps(pipe.spectrum("spin"), initial, pipe.basis, os.path.join(out, f"fig{fig}.csv"))
    return [f"fig{fig}.csv"]


def _fig9(fig, cfg, pipe, out):
    if pipe.params.n_qubits < 22:
        raise ConfigError("figure 9 plots separations 1, 6, 21; needs >= 22 qubits")
    times = np.arange(0.0, 1e4 + 1, 2.0)
    *_, series = pipe.quench("spin", "ps" if fig == "9a" else "fs", times, (1, 6, 21))
    obs.write_dynamics_csv(times, series, os.path.join(out, f"fig{fig}.csv"))
    return [f"fig{fig}.csv"]


def _fig10(fig, cfg, pipe, out):
    snaps = cfg.options.get("snapshot_times", [0, 960, 2220, 3080, 4440, 5220, 6540, 7500])
    if not snaps:
        raise ConfigError("figure 10 needs a non-empty options.snapshot_times")
    _, states, _ = pipe.quench("spin", "fs", snaps, (), range(len(snaps)))
    return _write_snapshots("fig10_t", states, pipe.basis, out)


FIGURES = {
    "3": _fig3, "4": _fig4, "5": _fig5, "6a": _fig6a, "6b": _fig6b, "7a": _fig7, "7b": _fig7,
    "8a": _fig8, "8b": _fig8, "9a": _fig9, "9b": _fig9, "10": _fig10,
}

TASKS = {
    "spectrum": _task_spectrum,
    "correlations": _task_correlations,
    "dynamics": _task_dynamics,
    "variational": _task_variational,
    "overlaps": _task_overlaps,
    "sweep": _task_sweep,
    "validate": _task_validate,
    "figure": _task_figure,
}


# ---------------------------------------------------------------------------
# run + main
# ---------------------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    started, cpu_started = time.perf_counter(), time.process_time()
    # one BLAS thread for the whole run, so its bytes do not depend on the
    # host's core count; ``libraries`` records the count.  The package import
    # loaded both pools at one thread already, unless numpy was loaded first
    # (pytest, a library caller) or the caller set OPENBLAS_NUM_THREADS
    set_blas_threads(1)
    libraries = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": blas_libraries()}
    pipe = Pipeline(build_params(cfg.params))
    os.makedirs(cfg.out_dir, exist_ok=True)
    decomp, written, extra = TASKS[cfg.task](cfg, pipe, cfg.out_dir)
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "task": cfg.task,
        "model": cfg.model,
        "params": asdict_params(pipe.params),
        "params_hash": pipe.params.content_hash(),
        "options": cfg.options,
        "deterministic": True,
        "basis_dims": dict(decomp.dims) if decomp is not None else None,
        "residual_max": float(decomp.residual_norms.max()) if decomp is not None else None,
        "solver": decomp.solver if decomp is not None else None,
        "outputs": written,
        "libraries": libraries,
        "wall_time_s": round(wall, 3),
        "cpu_time_s": round(cpu, 3),
        "peak_rss_mb": round(peak_kib / 1024, 1),
        **extra,
    }
    with atomic_open(os.path.join(cfg.out_dir, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Two-excitation simulator for qubit arrays on a nonlinear cavity lattice",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set", dest="assignments", action="append", default=[],
        metavar="KEY=VALUE", help="override a config entry (dotted keys)",
    )
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--fig", help=f"figure id for the figure task: {', '.join(FIGURES)}")
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{args.config}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"{args.config} must hold a JSON object")
        raw["task"] = args.task
        if args.out:
            raw["out_dir"] = args.out
        if args.fig:
            raw.setdefault("options", {})["fig"] = args.fig
        raw = apply_overrides(raw, args.assignments)
        cfg = load_config(raw)
        return run(cfg)
    except (ConfigError, OSError) as exc:
        # any refused path or failed write: a missing directory, a read-only
        # or full disk, a file where a directory should be
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except (SimulationError, MemoryError) as exc:
        # an allocation the machine refuses is a size error, like the SizeError caps
        print(f"validity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
