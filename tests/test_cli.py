import contextlib
import errno
import gc
import io
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droplet_lattice import bath, blas, cli, hamiltonians, solver
from droplet_lattice.cli import _OPTIONS, DEFAULT_PARAMS, FIGURES, main

SMALL = [
    "--set", "params.n_cavities=41",
    "--set", "params.n_qubits=6",
]


#: the pool class as the sweep task imports it, when it starts a pool
_POOL = "concurrent.futures.process.ProcessPoolExecutor"


def run_cli(tmp_path, task, *extra, out=None):
    out = out or str(tmp_path / "out")
    return main([task, "--out", out, *SMALL, *extra]), out


def test_spectrum_row_count(tmp_path):
    code, out = run_cli(tmp_path, "spectrum")
    assert code == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "E_minus_E0b"
    assert len(lines) == 1 + 15  # 6 qubits -> 15 pair kets
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["basis_dims"] == {"pairs": 15}
    assert manifest["solver"] == {"method": "parity-blocks", "blocks": [9, 6], "driver": "evd"}
    assert manifest["task"] == "spectrum"
    assert manifest["residual_max"] < 1e-10


def test_spectrum_full_model_dimensions(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", "--set", "model=full", "--set", "options.k_lowest=4")
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["basis_dims"] == {"pairs": 15, "qubit_photon": 246, "bound": 41}
    lines = (tmp_path / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4


def test_spectrum_adiabatic_models_differ_by_bound_bound_block(tmp_path):
    spectra = {}
    for model in ("adia0", "adia1"):
        code, _ = run_cli(tmp_path, "spectrum", "--set", f"model={model}", out=str(tmp_path / model))
        assert code == 0
        manifest = json.loads((tmp_path / model / "manifest.json").read_text())
        assert manifest["basis_dims"] == {"pairs": 15, "bound": 41}
        assert manifest["solver"] == {"method": "lapack", "driver": "evr"}
        spectra[model] = np.loadtxt(tmp_path / model / "spectrum.csv", skiprows=1)
    assert spectra["adia0"].shape == (15 + 41,)
    assert np.abs(spectra["adia0"] - spectra["adia1"]).max() > 0


def test_correlations_outputs(tmp_path):
    code, out = run_cli(tmp_path, "correlations")
    assert code == 0
    assert (tmp_path / "out" / "pair_corr.csv").exists()
    assert (tmp_path / "out" / "corr_snapshot.csv").exists()


def test_dynamics_columns_and_determinism(tmp_path):
    args = ["--set", "options.t_max=50", "--set", "options.dt=5",
            "--set", "options.alphas=[1,2]", "--set", "options.initial=ps"]
    code, _ = run_cli(tmp_path, "dynamics", *args)
    assert code == 0
    first = (tmp_path / "out" / "dynamics.csv").read_bytes()
    code, _ = run_cli(tmp_path, "dynamics", *args)
    assert code == 0
    assert (tmp_path / "out" / "dynamics.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t,P_alpha1,P_alpha2"
    # ps is even under the reflection, so only the even block is solved
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["solver"] == {"method": "parity-blocks", "blocks": [9, 6], "driver": "evd",
                                  "solved": ["even"]}


_PAIR_BASIS_MODELS = ("spin", "single", "tilde-single", "pair")
_PAIR_ONLY = {
    "dynamics": "config error: dynamics needs a dense pair-basis model\n",
    "overlaps": "config error: overlap decomposition needs a pair-basis model\n",
}


@pytest.mark.parametrize("task", sorted(_PAIR_ONLY))
@pytest.mark.parametrize("model", _PAIR_BASIS_MODELS + ("adia0", "adia1", "full", "oracle"))
def test_pair_basis_tasks_refuse_photon_models(tmp_path, capsys, task, model):
    """Dynamics and overlaps run on the four pair-basis models and refuse the
    models whose basis also holds bound pairs or photons."""
    code, _ = run_cli(tmp_path, task, "--set", f"model={model}",
                      "--set", "options.t_max=20", "--set", "options.alphas=[1,2]")
    err = capsys.readouterr().err
    if model in _PAIR_BASIS_MODELS:
        assert code == 0, err
    else:
        assert (code, err) == (2, _PAIR_ONLY[task])


def test_dynamics_rejects_out_of_range_alpha(tmp_path):
    code, _ = run_cli(tmp_path, "dynamics", "--set", "options.alphas=[21]")
    assert code == 2


def test_dynamics_checks_alphas_before_any_eigensolve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve called before the alphas were checked")

    monkeypatch.setattr(solver, "eigensolve", no_solve)
    code, _ = run_cli(tmp_path, "dynamics", "--set", "options.alphas=[1,21]")
    assert (code, capsys.readouterr().err) == (
        2, "config error: alphas must lie in [1, 5], got [1, 21]\n"
    )


def test_variational_and_droplets(tmp_path):
    code, out = run_cli(
        tmp_path, "variational",
        "--set", "options.reference_qubits=8", "--set", "options.n_max=2",
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["L_r"] > 0
    assert (tmp_path / "out" / "variational.csv").exists()
    assert (tmp_path / "out" / "droplets.csv").exists()


def test_overlaps_sum_to_one(tmp_path):
    code, out = run_cli(tmp_path, "overlaps", "--set", "options.initial=fs")
    assert code == 0
    rows = np.loadtxt(tmp_path / "out" / "overlap.csv", delimiter=",", skiprows=1)
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-10)


def test_sweep_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMULATE_WORKERS", "1")
    code, out = run_cli(
        tmp_path, "sweep",
        "--set", "options.axis=delta", "--set", "options.values=[-0.02,-0.05]",
    )
    assert code == 0
    rows = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 2)
    # E - E_0b is dominated by the detuning itself
    assert rows[0, 1] > rows[1, 1]


_SWEEP = ["--set", "options.axis=delta", "--set", "options.values=[-0.02,-0.05,-0.1]"]
_sweep_job = cli._sweep_point


def _affinity(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _reporting_sweep_point(args):
    """The sweep job, then one line in the file ``SWEEP_REPORT`` names: the
    process, the job's qubit count, and after it the BLAS pools' thread
    counts and the process's OS threads."""
    energy = _sweep_job(args)
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    report = {"pid": os.getpid(), "n_qubits": args[0]["n_qubits"], "tasks": tasks,
              "threads": [lib["threads"] for lib in blas.blas_libraries()]}
    with open(os.environ["SWEEP_REPORT"], "a") as fh:
        fh.write(json.dumps(report) + "\n")
    return energy


@pytest.fixture
def worker_reports(tmp_path, monkeypatch):
    """Every sweep job reports as ``_reporting_sweep_point`` does; returns a
    reader of the reports that pool workers (not this process) wrote."""
    path = tmp_path / "reports.jsonl"
    monkeypatch.setenv("SWEEP_REPORT", str(path))
    monkeypatch.setattr(cli, "_sweep_point", _reporting_sweep_point)

    def read():
        lines = path.read_text().splitlines() if path.exists() else []
        return [r for r in map(json.loads, lines) if r["pid"] != os.getpid()]

    return read


@pytest.mark.parametrize("settable", [True, False])
def test_pooled_sweep_matches_the_serial_one(tmp_path, monkeypatch, blas_pools, worker_reports,
                                             settable):
    """Two workers on four cores write the serial run's bytes.  The run sets
    the parent's pools to one thread, which the forked workers keep; without
    OpenBLAS setters no pool is touched and the run still completes."""
    _affinity(monkeypatch, 4)
    blas.set_blas_threads(3)
    if not settable:
        monkeypatch.setattr(blas, "_blas_pools", lambda: ())
    outputs, manifests = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("SIMULATE_WORKERS", workers)
        with mock.patch(_POOL, wraps=ProcessPoolExecutor) as spy:
            code, out = run_cli(tmp_path, "sweep", *_SWEEP, out=str(tmp_path / workers))
        assert code == 0
        outputs.append((tmp_path / workers / "sweep.csv").read_bytes())
        manifests.append(json.loads((tmp_path / workers / "manifest.json").read_text()))
    assert outputs[0] == outputs[1]
    assert manifests[0]["pool"] == {"workers": 1}
    assert manifests[1]["pool"] == {"workers": 2}
    spy.assert_called_once_with(2)
    reports = worker_reports()
    assert len(reports) == 3
    if settable:
        assert all(r["threads"] == [1] * len(blas_pools) for r in reports)
    assert [get() for _, _, get, _ in blas_pools] == [1 if settable else 3] * len(blas_pools)


def _count_band_solves(monkeypatch, report=None):
    """Spy on the bath's bound-state solves and profile tables; returns the
    list of ``(function, process)`` calls this process saw.  With ``report``
    set, every call also appends one line ``{"pid": ..., "solve": ...}`` to
    that file, so calls in forked workers are seen too."""
    calls = []
    for name in ("solve_bound_state", "profile_table"):
        def spy(*args, _fn=getattr(bath, name), _name=name):
            calls.append((_name, os.getpid()))
            if report is not None:
                with open(report, "a") as fh:
                    fh.write(json.dumps({"pid": os.getpid(), "solve": _name}) + "\n")
            return _fn(*args)

        monkeypatch.setattr(bath, name, spy)
    return calls


@pytest.mark.usefixtures("cold_band")
@pytest.mark.parametrize("axis, values, bands", [
    ("delta", "[-0.02,-0.05,-0.1]", 1),
    ("u", "[-1.0,-1.5,-2.0]", 3),
])
def test_a_serial_sweep_solves_one_band_per_cavities_and_interaction(
    tmp_path, monkeypatch, axis, values, bands
):
    """A detuning sweep at 41 x 6 solves the 21 states of K >= 0 and their
    profile table once for all three points; a u sweep, one band per point."""
    monkeypatch.setenv("SIMULATE_WORKERS", "1")
    calls = _count_band_solves(monkeypatch)
    code, _ = run_cli(tmp_path, "sweep", "--set", f"options.axis={axis}",
                      "--set", f"options.values={values}")
    assert code == 0
    assert [name for name, _ in calls].count("profile_table") == bands
    assert [name for name, _ in calls].count("solve_bound_state") == 21 * bands


@pytest.mark.usefixtures("cold_band")
def test_pool_workers_inherit_the_band_of_a_detuning_sweep(tmp_path, monkeypatch,
                                                          worker_reports):
    """The parent solves the band all points share before the pool forks,
    so no worker solves a bound state; the bytes stay the serial run's
    (``test_pooled_sweep_matches_the_serial_one``)."""
    _affinity(monkeypatch, 4)
    monkeypatch.setenv("SIMULATE_WORKERS", "2")
    calls = _count_band_solves(monkeypatch, report=os.environ["SWEEP_REPORT"])
    code, _ = run_cli(tmp_path, "sweep", *_SWEEP)
    assert code == 0
    reports = worker_reports()
    assert sorted(r["n_qubits"] for r in reports if "n_qubits" in r) == [6, 6, 6]
    assert [r for r in reports if "solve" in r] == []
    assert calls.count(("solve_bound_state", os.getpid())) == 21


@pytest.mark.usefixtures("cold_band")
@pytest.mark.parametrize("values, code, message", [
    ("[-0.02,-0.05,-0.1]", 4, "solver error: tridiagonal bound-state solve failed"),
    ("[0.05,-0.02,-0.05]", 3, "validity error: band-gap regime needs delta < 0"),
])
def test_a_sweep_whose_shared_band_fails_keeps_the_points_message(tmp_path, monkeypatch, capsys,
                                                                   values, code, message):
    """When the band that every point shares cannot be solved, the pooled
    sweep ends as the serial one does: with the first failing point's error,
    one line, and its exit code, also when that point fails before it reads
    the band."""
    _affinity(monkeypatch, 2)
    failing = bath.dstein

    def fail(*args):
        *results, _ = failing(*args)
        return (*results, 1)

    monkeypatch.setattr(bath, "dstein", fail)
    ends = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SIMULATE_WORKERS", workers)
        ends.append(run_cli(tmp_path, "sweep", "--set", "options.axis=delta",
                            "--set", f"options.values={values}",
                            out=str(tmp_path / workers))[0])
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
    assert ends == [code, code]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("cores, before", [(2, 1), (4, 2)])
def test_sweep_workers_keep_the_share_they_inherit(tmp_path, monkeypatch, blas_pools,
                                                   worker_reports, cores, before):
    """Whatever the cores and the pools' counts ``before`` the run, two
    workers fork after the run set each pool to one thread.  Each keeps it
    after a LAPACK-subset job (6 qubits) and after a Lanczos job (30 qubits,
    dim 435), and runs on one OS thread: no OpenBLAS pool was rebuilt in it."""
    _affinity(monkeypatch, cores)
    monkeypatch.setenv("SIMULATE_WORKERS", "2")
    blas.set_blas_threads(before)
    code, out = run_cli(tmp_path, "sweep", "--set", "params.n_cavities=101",
                        "--set", "options.axis=n_qubits", "--set", "options.values=[30,6,30,6]")
    assert code == 0
    reports = worker_reports()
    assert sorted(r["n_qubits"] for r in reports) == [6, 6, 30, 30]
    assert all(r["threads"] == [1] * len(blas_pools) for r in reports)
    assert all(r["tasks"] == 1 for r in reports)
    assert [get() for _, _, get, _ in blas_pools] == [1] * len(blas_pools)


@pytest.mark.parametrize("found", ["affinity", "cpu_count"])
def test_one_core_sweeps_in_process(tmp_path, monkeypatch, found):
    """One core, from the affinity mask or, without one, from the CPU count,
    caps ``SIMULATE_WORKERS=8`` at one: no pool starts."""
    if found == "affinity":
        _affinity(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setenv("SIMULATE_WORKERS", "8")
    with mock.patch(_POOL) as spy:
        code, out = run_cli(tmp_path, "sweep", *_SWEEP)
    assert code == 0
    spy.assert_not_called()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["pool"] == {"workers": 1}


def test_dead_sweep_worker_exits_3_with_one_line(tmp_path, monkeypatch, capsys, blas_pools):
    """A worker that dies (here by ``os._exit``, as an OOM kill would end it)
    breaks the pool; the run ends in one validity-error line, no traceback,
    and the parent's pools keep the one thread the run set."""
    _affinity(monkeypatch, 2)
    monkeypatch.setenv("SIMULATE_WORKERS", "2")
    parent, build = os.getpid(), cli.Pipeline

    def pipeline(params):
        if os.getpid() != parent:
            os._exit(1)
        return build(params)

    monkeypatch.setattr(cli, "Pipeline", pipeline)
    code, out = run_cli(tmp_path, "sweep", *_SWEEP)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: a sweep worker died")
    assert err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    assert [get() for _, _, get, _ in blas_pools] == [1] * len(blas_pools)


def test_cli_import_freezes_the_import_heap():
    assert gc.get_freeze_count() > 0


def test_validate_suite_passes(tmp_path):
    code, out = run_cli(tmp_path, "validate")
    assert code == 0
    text = (tmp_path / "out" / "validate.csv").read_text().strip().splitlines()
    assert all(line.endswith(",1") for line in text[1:])


def test_figure_data_hop_profile(tmp_path):
    code, out = run_cli(tmp_path, "figure", "--fig", "3", "--set", "options.values=[-0.02,-0.1]")
    assert code == 0
    rows = np.loadtxt(tmp_path / "out" / "fig3.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 3)
    assert rows[0, 1] == pytest.approx(-7.410826e-4, rel=1e-5)


def test_figure_pair_hop_blocks(tmp_path):
    code, _ = run_cli(tmp_path, "figure", "--fig", "4")
    assert code == 0
    lines = (tmp_path / "out" / "fig4.csv").read_text().strip().splitlines()
    assert lines[0] == "row,col,i,j,l,h,Y"
    assert len(lines) == 1 + 15 * 15  # every separation <= 9 at 6 qubits


def test_figure_overlap_decomposition(tmp_path):
    code, _ = run_cli(tmp_path, "figure", "--fig", "8b")
    assert code == 0
    rows = np.loadtxt(tmp_path / "out" / "fig8b.csv", delimiter=",", skiprows=1)
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-10)


def test_figure_snapshots(tmp_path):
    code, out = run_cli(
        tmp_path, "figure", "--fig", "10", "--set", "options.snapshot_times=[0,40]"
    )
    assert code == 0
    assert (tmp_path / "out" / "fig10_t0.csv").exists()
    assert (tmp_path / "out" / "fig10_t40.csv").exists()


def test_figure_dynamics_needs_enough_qubits(tmp_path):
    code, _ = run_cli(tmp_path, "figure", "--fig", "9b")
    assert code == 2


def test_spectrum_coupling_dumps(tmp_path):
    code, _ = run_cli(tmp_path, "spectrum", "--set", "options.dump_couplings=true",
                      "--set", "options.dump_bands=true")
    assert code == 0
    assert (tmp_path / "out" / "hop.csv").read_text().splitlines()[0] == "j,l,W"
    assert (tmp_path / "out" / "pair_hop_blocks.csv").exists()
    assert (tmp_path / "out" / "bands.csv").exists()


def test_config_file_roundtrip(tmp_path):
    cfg = {
        "params": {"n_cavities": 41, "n_qubits": 6},
        "model": "single",
        "out_dir": str(tmp_path / "cfg_out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "cfg_out" / "manifest.json").read_text())
    assert manifest["model"] == "single"
    assert manifest["params"]["n_cavities"] == 41


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"n_cavities": 41}, "mystery": 1}))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_param_key_rejected(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--set", "params.bogus=1")[0] == 2


def test_determinism_flag_locked(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--set", "deterministic=false")[0] == 2


def test_dynamics_manifest_lists_snapshots(tmp_path):
    code, _ = run_cli(tmp_path, "dynamics", "--set", "options.t_max=20", "--set", "options.dt=5",
                      "--set", "options.alphas=[1,2]", "--set", "options.snapshot_times=[0,10]")
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["dynamics.csv", "corr_snapshot_t0.csv", "corr_snapshot_t10.csv"]
    for name in manifest["outputs"]:
        assert (tmp_path / "out" / name).is_file()


@pytest.mark.parametrize(
    "task, extra, expected",
    [
        # 0.6 is not on the dt = 0.5 grid: it lands on the 0.5 sample
        ("dynamics",
         ["--set", "options.t_max=2", "--set", "options.dt=0.5", "--set", "options.alphas=[1]"],
         ["dynamics.csv", "corr_snapshot_t0.csv", "corr_snapshot_t0.5.csv"]),
        ("figure", ["--fig", "10"], ["fig10_t0.csv", "fig10_t0.5.csv", "fig10_t0.6.csv"]),
    ],
)
def test_snapshots_at_distinct_times_get_distinct_files(tmp_path, task, extra, expected):
    """A snapshot is named by its time as the CSV cells print it; a repeated
    time, or two requests on one grid sample, give one file listed once."""
    code, _ = run_cli(tmp_path, task, *extra, "--set", "options.snapshot_times=[0,0.5,0.5,0.6]")
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == expected
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        expected + ["manifest.json"]
    )
    snapshots = [(tmp_path / "out" / n).read_bytes() for n in expected if n != "dynamics.csv"]
    assert len(set(snapshots)) == len(snapshots)


def test_explicit_photon_reruns_are_bit_identical(tmp_path):
    runs = []
    for run in ("a", "b"):
        spectrum, figure = tmp_path / run / "spectrum", tmp_path / run / "figure"
        assert run_cli(tmp_path, "spectrum", "--set", "model=full", out=str(spectrum))[0] == 0
        assert run_cli(tmp_path, "figure", "--fig", "7b", out=str(figure))[0] == 0
        manifest = json.loads((spectrum / "manifest.json").read_text())
        runs.append((
            (spectrum / "spectrum.csv").read_bytes(),
            manifest["residual_max"],
            manifest["solver"],
            (figure / "fig7b.csv").read_bytes(),
        ))
    assert runs[0] == runs[1]
    body, _, solver, _ = runs[0]
    ground = float(body.decode().splitlines()[1])
    assert solver["method"] == "shift-invert" and solver["applications"] > 0
    assert solver["sigma"] + manifest["params"]["delta"] < ground


def test_rerun_manifests_differ_only_in_wall_time(tmp_path):
    """A dense Lanczos solve records its method, the run its libraries and
    their thread counts, one each; all of it repeats on a rerun.  The
    timing keys (wall and CPU time, peak RSS) are the only ones that may
    differ."""
    size = ["--set", "params.n_cavities=201", "--set", "params.n_qubits=30"]
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["spectrum", "--out", str(out), *size, "--set", "options.k_lowest=1"]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for manifest in manifests:
        assert manifest.pop("wall_time_s") >= 0
        assert manifest.pop("cpu_time_s") >= 0
        assert manifest.pop("peak_rss_mb") > 0
    assert manifests[0] == manifests[1]
    manifest = manifests[0]
    assert manifest["solver"]["method"] == "lanczos"
    libraries = manifest["libraries"]
    assert libraries["numpy"] == np.__version__ and libraries["scipy"]
    assert libraries["openblas"]
    assert all(lib["threads"] == 1 for lib in libraries["openblas"])


def test_dynamics_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, blas_pools):
    """``dynamics`` at 101x20 writes the same bytes whether the pools held two
    threads or one before the run: the run sets one.  Solved at two threads,
    the chain's GEMMs move the last bits of P_alpha(t)."""
    size = ["--set", "params.n_cavities=101", "--set", "params.n_qubits=20",
            "--set", "options.t_max=2000", "--set", "options.alphas=[1,6,11]"]
    outputs = []
    for threads in (2, 1):
        blas.set_blas_threads(threads)
        out = tmp_path / str(threads)
        assert main(["dynamics", "--out", str(out), *size]) == 0
        outputs.append((out / "dynamics.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_invalid_regime_exit_code(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--set", "params.delta=0.01")[0] == 3
    assert run_cli(tmp_path, "spectrum", "--set", "params.u=-0.001")[0] == 3


def test_spectrum_matrix_export(tmp_path):
    code, out = run_cli(tmp_path, "spectrum", "--set", "options.export_matrix=true")
    assert code == 0
    with open(tmp_path / "out" / "matrix.txt") as fh:
        assert fh.readline().startswith("# row col re im")


def test_repeat_run_bit_identical_manifest_outputs(tmp_path):
    code, out = run_cli(tmp_path, "spectrum")
    body1 = (tmp_path / "out" / "spectrum.csv").read_bytes()
    code, out = run_cli(tmp_path, "spectrum")
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == body1


@pytest.mark.parametrize("fig", sorted(FIGURES))
def test_every_figure_writes_what_it_reports(tmp_path, fig):
    qubits = ["--set", "params.n_qubits=22"] if fig.startswith("9") else []
    code, out = run_cli(tmp_path, "figure", "--fig", fig, *qubits)
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        body = (tmp_path / "out" / name).read_bytes()
        assert body.count(b"\n") > 1
        assert b"\r" not in body


def test_stale_temporary_does_not_block_output(tmp_path):
    (tmp_path / "out" / "spectrum.csv.tmp").mkdir(parents=True)
    code, _ = run_cli(tmp_path, "spectrum")
    assert code == 0
    assert (tmp_path / "out" / "spectrum.csv").is_file()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "manifest.json", "spectrum.csv", "spectrum.csv.tmp"
    ]


@pytest.mark.parametrize(
    "task, extra, workers",
    [
        ("spectrum", ["--set", "params.delta=NaN"], None),
        ("spectrum", ["--set", "params.u=NaN"], None),
        ("spectrum", ["--set", "params.g=NaN"], None),
        ("spectrum", ["--set", "params.n_qubits=abc"], None),
        ("spectrum", ["--set", "options=3"], None),
        ("correlations", ["--set", "options.state_index=99"], None),
        ("sweep", ["--set", "options.values=[-0.02,-0.05]"], "x"),
        ("spectrum", ["--set", "options.k_lowest=abc"], None),
        ("spectrum", ["--set", "options.k_lowest=0"], None),
        ("spectrum", ["--set", "options.k_lowest=15"], None),
        ("spectrum", ["--set", "options.kappa=0.02"], None),
        ("variational", ["--set", "options.n_max=abc"], None),
        ("variational", ["--set", "options.reference_qubits=abc"], None),
        ("overlaps", ["--set", "options.initial=3"], None),
        ("dynamics", ["--set", "options.t_max=abc"], None),
        ("dynamics", ["--set", "options.t_max=Infinity"], None),
        ("dynamics", ["--set", "options.dt=0"], None),
        ("dynamics", ["--set", 'options.alphas=["x"]'], None),
        ("dynamics", ["--set", "options.snapshot_times=[0,\"x\"]"], None),
        ("spectrum", ["--set", "params.n_qubits=2.5"], None),
        ("spectrum", ["--set", "params.spacing=true"], None),
        ("sweep", ["--set", "options.axis=n_qubits", "--set", "options.values=[4.5]"], None),
        ("spectrum", ["--set", "params.g=true"], None),
        ("sweep", ["--set", "options.values=5"], None),
        ("figure", ["--set", "options.fig=6b", "--set", "options.values=5"], None),
        ("figure", ["--set", "options.fig=3", "--set", 'options.values=["x"]'], None),
        ("spectrum", ["--set", "model=full", "--set", "options.k_lowest=300"], None),
        ("spectrum", ["--set", "model=full", "--set", "options.k_lowest=301"], None),
        ("spectrum", ["--set", "options.export_matrix=no"], None),
        ("spectrum", ["--set", "options.dump_bands=1"], None),
        ("spectrum", ["--set", "options.dump_couplings=yes"], None),
        ("variational", ["--set", "options.classify=no"], None),
        ("sweep", ["--set", "options.axis=kappa", "--set", "options.values=[1]"], None),
        ("spectrum", ["--set", "params.omega_c=0"], None),
        ("figure", ["--fig", "99"], None),
        ("figure", ["--set", "options.fig=3", "--set", "options.values=[]"], None),
        ("figure", ["--set", "options.fig=6b", "--set", "options.values=[]"], None),
        ("sweep", ["--set", "options.values=[]"], None),
        ("variational", ["--set", "options.n_max=16"], None),
        ("figure", ["--set", "options.fig=10", "--set", "options.snapshot_times=[]"], None),
        ("spectrum", ["--set", "out_dir=null"], None),
        ("spectrum", ["--set", "out_dir=[1]"], None),
        ("spectrum", ["--set", 'out_dir=""'], None),
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, task, extra, workers):
    if workers is not None:
        monkeypatch.setenv("SIMULATE_WORKERS", workers)
    code, _ = run_cli(tmp_path, task, *extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "option, name",
    [
        ("--config", "."),
        ("--config", "bom.json"),
        ("--config", "brace.json"),
        ("--out", "file"),
        ("--out", "file/out"),
    ],
)
def test_unreadable_config_or_output_path_exits_2(tmp_path, capsys, option, name):
    """A config path that is a directory, not UTF-8 text or not JSON, and an
    output path that is a file or lies under one, end in one config-error
    line that names the path."""
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "brace.json").write_text("{")
    (tmp_path / "file").write_text("")
    path = str(tmp_path / name)
    code, _ = run_cli(tmp_path, "spectrum", option, path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert os.path.normpath(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("option, target", [("--config", "open"), ("--out", "makedirs")])
def test_forbidden_config_or_output_path_exits_2(tmp_path, monkeypatch, capsys, option, target):
    """A config the process may not read, and an output directory it may not
    create, end in one config-error line that names the path.  Root ignores
    file modes, so the refusal is raised by a patched ``open`` or
    ``os.makedirs``."""
    path = str(tmp_path / "forbidden")
    real = {"open": open, "makedirs": os.makedirs}[target]

    def refuse(name, *args, **kwargs):
        if os.fspath(name) == path:
            raise PermissionError(13, "Permission denied", name)
        return real(name, *args, **kwargs)

    if target == "open":
        (tmp_path / "forbidden").write_text("{}")
        monkeypatch.setattr("builtins.open", refuse)
    else:
        monkeypatch.setattr(cli.os, "makedirs", refuse)
    code, _ = run_cli(tmp_path, "spectrum", option, path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert path in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("failure", ["read-only", "disk-full"])
def test_any_os_error_on_the_output_path_exits_2(tmp_path, monkeypatch, capsys, failure):
    """An ``OSError`` of no named subclass ends in one config-error line like
    the named ones, not a traceback: a read-only file system met creating
    the output directory (EROFS), and a full disk met writing a CSV
    (ENOSPC)."""
    path = str(tmp_path / "out")
    if failure == "read-only":
        def refuse(name, *args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system", name)

        monkeypatch.setattr(cli.os, "makedirs", refuse)
    else:
        def refuse(name, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device", name)

        monkeypatch.setattr(cli, "write_csv", refuse)
    code, _ = run_cli(tmp_path, "spectrum", out=path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert os.strerror(errno.EROFS if failure == "read-only" else errno.ENOSPC) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("t_max, dt", [("1e15", "1"), ("1e4", "1e-300"), ("1e300", "2")],
                         ids=["7PiB", "tiny-dt", "huge-t_max"])
def test_refused_allocation_exits_3_with_one_line(tmp_path, capsys, t_max, dt):
    """A time grid of 1e15 samples (7 PiB) is refused by the allocator at
    once, before any memory is touched, and ends like a size cap; so does a
    grid too long for numpy to index at all."""
    code, out = run_cli(
        tmp_path, "dynamics", "--set", f"options.t_max={t_max}", "--set", f"options.dt={dt}"
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: ")
    assert err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "manifest.json"))


_MEDIUM = ["--set", "params.n_cavities=101", "--set", "params.n_qubits=25"]


@pytest.mark.parametrize("extra, code", [
    (["--set", "params.g=1e300"], 3),
    ([*_MEDIUM, "--set", "options.k_lowest=1", "--set", "params.g=1e-300"], 3),
    (["--set", "params.g=1e-300"], 3),
    ([*_MEDIUM, "--set", "options.k_lowest=1", "--set", "model=pair", "--set", "params.g=1e-160"],
     3),
    (["--set", "params.delta=-1e300"], 3),
    ([*_MEDIUM, "--set", "options.k_lowest=1", "--set", "params.delta=-1e300"], 3),
], ids=["g-overflows-the-regime-check", "g-underflows-to-a-zero-operator",
        "g-underflows-to-a-zero-operator-on-a-full-spectrum", "g4-underflows-to-a-zero-pair-hop",
        "delta-overflows-the-hop", "delta-overflows-the-hop-under-lanczos"])
def test_finite_inputs_out_of_floating_point_range_exit_with_one_line(
        tmp_path, capsys, extra, code):
    """Finite parameters whose derived quantities leave floating-point range
    end in one error line and no manifest: a coupling so large that the
    regime check's square overflows (exit 3); one so small that a coupling
    prefactor (g^2 of the hop, g^4 of the pair hop) rounds to zero, refused
    before Lanczos or the parity blocks solve an exactly zero model (exit 3);
    a detuning so far below the band that the hop's fall-off is lost to
    rounding, for the parity blocks and for Lanczos (exit 3).  No warning
    is raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out = run_cli(tmp_path, "spectrum", *extra)
    err = capsys.readouterr().err
    assert (got, [str(w.message) for w in caught]) == (code, [])
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def _spy_dense_stages(monkeypatch):
    """Record every call of a payload's or factor's ``toarray()`` and every
    read of ``Pipeline.pair_bound`` or ``Pipeline.pair_hop``."""
    from droplet_lattice.couplings import PairHopFactor
    from droplet_lattice.hamiltonians import SpinOperator
    from droplet_lattice.pipeline import Pipeline

    calls = []
    for cls, name in ((SpinOperator, "toarray"), (PairHopFactor, "toarray"),
                      (Pipeline, "pair_bound"), (Pipeline, "pair_hop")):
        def spy(self, *args, name=f"{cls.__name__}.{name}"):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(cls, name, property(spy) if cls is Pipeline else spy)
    return calls


@pytest.mark.parametrize("task, extra", [
    ("spectrum", ["--set", "options.k_lowest=1"]),
    ("figure", ["--fig", "6b", "--set", "options.values=[-0.07]"]),
], ids=["spectrum-k1", "fig6b"])
def test_the_k_lowest_path_forms_no_pair_by_pair_array(tmp_path, monkeypatch, task, extra):
    """The lowest ``spin`` level and fig 6b never read ``pair_bound`` or the
    dense ``pair_hop`` and never call ``toarray()``: Lanczos applies the
    ``spin`` payload by its own product, and the perturbative column reads
    the pair hop's factor.  At 101 x 26 (P = 325) the payload is above
    ``LANCZOS_MIN_DIM``; below it the LAPACK subset forms the dense copy by
    design."""
    calls = _spy_dense_stages(monkeypatch)
    size = ["--set", "params.n_cavities=101", "--set", "params.n_qubits=26"]
    assert main([task, "--out", str(tmp_path / "o"), *size, *extra]) == 0
    assert calls == []


@pytest.mark.parametrize("task, extra", [
    ("spectrum", []),
    ("dynamics", ["--set", "options.t_max=200"]),
])
def test_the_full_spectrum_path_forms_no_pair_by_pair_array(tmp_path, monkeypatch, task, extra):
    """A full ``spin`` spectrum and a quench (the even block alone) take
    their parity blocks from the CSR hop and the pair hop's factor: no
    ``toarray()``, no read of ``pair_bound`` or of the dense ``pair_hop``."""
    calls = _spy_dense_stages(monkeypatch)
    size = ["--set", "params.n_cavities=101", "--set", "params.n_qubits=26"]
    assert main([task, "--out", str(tmp_path / "o"), *size, *extra]) == 0
    assert calls == []


def _full_spectrum_over_the_cap(tmp_path, monkeypatch, capsys, model, payload_type):
    """One byte under the P x P doubles of the lifted vectors, a full
    spectrum exits 3 with one line, before it gathers a block or calls
    ``toarray()``, and writes no manifest."""
    calls = _spy_dense_stages(monkeypatch)

    def gather(*args):
        calls.append("_gather")
        raise AssertionError("_gather was called")

    monkeypatch.setattr(solver, "_gather", gather)
    monkeypatch.setattr(hamiltonians, "DENSE_BYTES_CAP", 8 * 15 * 15 - 1)
    code, out = run_cli(tmp_path, "spectrum", "--set", f"model={model}")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(
        f"validity error: 15 parity-block vectors of a 15-dim {payload_type} need"
    )
    assert err.count("\n") == 1
    assert calls == []
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_a_full_spin_spectrum_over_the_dense_cap_exits_3_before_it_allocates(
    tmp_path, monkeypatch, capsys
):
    _full_spectrum_over_the_cap(tmp_path, monkeypatch, capsys, "spin", "SpinOperator")


@pytest.mark.parametrize("model, payload_type", [
    ("single", "csr_array"), ("pair", "SpinOperator"),
])
def test_a_full_csr_or_factor_spectrum_over_the_dense_cap_exits_3_before_it_gathers(
    tmp_path, monkeypatch, capsys, model, payload_type
):
    _full_spectrum_over_the_cap(tmp_path, monkeypatch, capsys, model, payload_type)


def _pairs_plus_bound_over_the_cap(tmp_path, monkeypatch, capsys, model):
    """One byte under the (P + N)^2 complex entries of the pairs-plus-bound
    matrix (15 pairs, 41 bound kets), ``k_lowest=1`` exits 3 with one line
    before the matrix, the P x N ``pair_bound`` stage or any pair-bound
    couplings exist, and writes no manifest."""
    calls = _spy_dense_stages(monkeypatch)

    def pair_bound_couplings(*args):
        calls.append("pair_bound_couplings")
        raise AssertionError("pair_bound_couplings was called")

    monkeypatch.setattr(hamiltonians, "pair_bound_couplings", pair_bound_couplings)
    monkeypatch.setattr(hamiltonians, "DENSE_BYTES_CAP", 16 * 56 * 56 - 1)
    code, out = run_cli(tmp_path, "spectrum", "--set", f"model={model}",
                        "--set", "options.k_lowest=1")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: the 56-dim pairs-plus-bound matrix needs")
    assert err.count("\n") == 1
    assert calls == []
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_an_adiabatic_model_over_the_dense_cap_exits_3_before_it_allocates(
    tmp_path, monkeypatch, capsys
):
    _pairs_plus_bound_over_the_cap(tmp_path, monkeypatch, capsys, "adia0")


def test_the_schur_complement_over_the_dense_cap_exits_3_before_it_allocates(
    tmp_path, monkeypatch, capsys
):
    """The shift of ``full`` comes from its Schur complement, the same
    pairs-plus-bound matrix."""
    _pairs_plus_bound_over_the_cap(tmp_path, monkeypatch, capsys, "full")


@pytest.mark.parametrize("model", ["spin", "pair"])
def test_a_factored_export_over_the_cap_exits_3_before_the_dense_copy(
    tmp_path, monkeypatch, capsys, model
):
    """With the export cap one under the P^2 = 225 entries of a dense 41 x 6
    payload, exporting ``spin`` or ``pair`` raises ``SizeError`` before any
    ``toarray()``, and ``spectrum`` asked for the export exits 3 with one
    line and writes no ``matrix.txt``."""
    from droplet_lattice import Pipeline, SizeError, default_params, hamiltonians

    h = Pipeline(default_params(n_cavities=41, n_qubits=6)).model(model)
    calls = _spy_dense_stages(monkeypatch)
    monkeypatch.setattr(hamiltonians, "EXPORT_NNZ_CAP", 15 * 15 - 1)
    with pytest.raises(SizeError, match="225 dense SpinOperator entries exceed the export cap"):
        hamiltonians.export_triplets(h, tmp_path / "direct.txt")
    code, out = run_cli(tmp_path, "spectrum", "--set", f"model={model}",
                        "--set", "options.export_matrix=true")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: 225 dense SpinOperator entries")
    assert err.count("\n") == 1
    assert calls == []
    assert not os.path.exists(tmp_path / "direct.txt")
    assert not os.path.exists(os.path.join(out, "matrix.txt"))


def test_fig4_over_the_dense_cap_exits_3_before_the_pair_hop_exists(
    tmp_path, monkeypatch, capsys
):
    """One byte under the P x P doubles of the dense pair hop (15 pairs),
    fig 4 exits 3 with one line before the factor's ``toarray()`` and
    writes no manifest."""
    from droplet_lattice.couplings import PairHopFactor

    calls = []

    def toarray(self):
        calls.append("PairHopFactor.toarray")
        raise AssertionError("PairHopFactor.toarray was called")

    monkeypatch.setattr(PairHopFactor, "toarray", toarray)
    monkeypatch.setattr(hamiltonians, "DENSE_BYTES_CAP", 8 * 15 * 15 - 1)
    code, out = run_cli(tmp_path, "figure", "--fig", "4")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: the 15-dim dense pair hop needs")
    assert err.count("\n") == 1
    assert calls == []
    assert not os.path.exists(os.path.join(out, "manifest.json"))


# JSON texts for --set values: wrong types, bools, non-finite numbers and
# strings, nested lists, non-JSON text and non-positive counts
_BAD_VALUES = st.one_of(
    st.sampled_from([
        '"abc"', "abc", "{}", '{"a": 1}', "null", "true", "false", "NaN", "Infinity",
        "-Infinity", '"nan"', '"inf"', '"-inf"', "1e400", "[]", "[[1]]", "[1, [2, [3]]]",
        '["x", null]', "2.5", '"7"',
    ]),
    st.integers(-10, 0).map(str),
)
_KEYS = st.sampled_from(
    ["params", "options"]
    + [f"params.{key}" for key in sorted(DEFAULT_PARAMS)]
    + [f"options.{key}" for key in sorted(_OPTIONS)]
)


def _check_bad_settings(tmp_path_factory, task, assignments, size=SMALL):
    """Any mix of bad --set values either runs or exits 2, 3 or 4 with one
    line on stderr; only a run that succeeds leaves a manifest, whose solver
    record is null or starts with the method."""
    out = str(tmp_path_factory.mktemp("fuzz") / "out")
    args = [item for key, value in assignments for item in ("--set", f"{key}={value}")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([task, "--out", out, *size, *args])
    manifest = os.path.join(out, "manifest.json")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        with open(manifest) as fh:
            record = json.load(fh)["solver"]
        assert record is None or next(iter(record)) == "method"
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert not os.path.exists(manifest)
    return code


@settings(settings.get_profile("cli_fuzz"))
@given(assignments=st.lists(st.tuples(_KEYS, _BAD_VALUES), min_size=1, max_size=3))
def test_bad_settings_never_end_in_a_traceback(tmp_path_factory, assignments):
    _check_bad_settings(tmp_path_factory, "spectrum", assignments)


@settings(settings.get_profile("cli_fuzz"))
@given(assignments=st.lists(st.tuples(_KEYS, _BAD_VALUES), min_size=1, max_size=3))
def test_bad_sweep_settings_never_end_in_a_traceback(tmp_path_factory, assignments):
    """As above for ``sweep``, which reads ``options.values``."""
    with mock.patch.dict(os.environ, {"SIMULATE_WORKERS": "1"}):
        _check_bad_settings(tmp_path_factory, "sweep", assignments)


# finite values out to the ends of floating-point range: +-10^e, from
# subnormal 1e-320 to 1e300
_EXTREMES = st.builds("{}1e{}".format, st.sampled_from(["", "-"]), st.integers(-320, 300))


@pytest.mark.parametrize("k_lowest", [1, 20])
@settings(settings.get_profile("cli_fuzz"), max_examples=25)
@given(assignments=st.lists(st.tuples(st.sampled_from(["params.g", "params.u", "params.delta"]),
                                      _EXTREMES), min_size=1, max_size=3,
                            unique_by=lambda assignment: assignment[0]))
# g^4 / N subnormal (solved), and rounded to zero (refused)
@example(assignments=[("params.g", "1e-80")])
@example(assignments=[("params.g", "1e-81")])
def test_finite_extreme_settings_never_end_in_a_traceback(tmp_path_factory, k_lowest,
                                                           assignments):
    """As above with finite g, u and delta of any magnitude, at 101x25 where
    the lowest level comes from Lanczos (k_lowest 1) and the lowest 20 from
    the LAPACK subset.  Most draws leave the regime and exit 3; the two
    examples pin the edge where the pair hop's g^4 underflows."""
    _check_bad_settings(tmp_path_factory, "spectrum",
                        [*assignments, ("options.k_lowest", k_lowest)], size=_MEDIUM)


# model=full at 41x6 has dimension 15 + 6 * 41 + 41 = 302; ARPACK takes at most
# k = 299 there, because it needs k + 1 < ncv <= dim - 1
_FULL_DIM = 302


@settings(settings.get_profile("cli_fuzz"))
@given(k=st.integers(_FULL_DIM - 2, _FULL_DIM + 2))
def test_k_lowest_beyond_the_arpack_limit_is_refused(tmp_path_factory, k):
    assignments = [("model", "full"), ("options.k_lowest", str(k))]
    assert _check_bad_settings(tmp_path_factory, "spectrum", assignments) == 2


def test_largest_accepted_k_lowest_runs(tmp_path):
    k = _FULL_DIM - 3
    code, _ = run_cli(tmp_path, "spectrum", "--set", "model=full",
                      "--set", f"options.k_lowest={k}")
    assert code == 0
    assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 1 + k
