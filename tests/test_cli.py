import contextlib
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droplet_lattice import cli, solver
from droplet_lattice.cli import _OPTIONS, DEFAULT_PARAMS, FIGURES, main

SMALL = [
    "--set", "params.n_cavities=41",
    "--set", "params.n_qubits=6",
]


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


def _affinity(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.mark.parametrize("settable", [True, False])
def test_pooled_sweep_matches_the_serial_one(tmp_path, monkeypatch, settable):
    """Two workers on four cores run two BLAS threads each, set by the pool
    initializer, and write the serial run's bytes; without OpenBLAS setters
    the manifest says ``"unmanaged"``."""
    _affinity(monkeypatch, 4)
    if not settable:
        monkeypatch.setattr(solver, "_blas_pools", lambda: ())
    outputs, manifests = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("SIMULATE_WORKERS", workers)
        with mock.patch.object(cli, "ProcessPoolExecutor", wraps=ProcessPoolExecutor) as spy:
            code, out = run_cli(tmp_path, "sweep", *_SWEEP, out=str(tmp_path / workers))
        assert code == 0
        outputs.append((tmp_path / workers / "sweep.csv").read_bytes())
        manifests.append(json.loads((tmp_path / workers / "manifest.json").read_text()))
    assert outputs[0] == outputs[1]
    assert manifests[0]["pool"] == {"workers": 1, "blas_threads": None}
    assert manifests[1]["pool"] == {"workers": 2, "blas_threads": 2 if settable else "unmanaged"}
    spy.assert_called_once_with(2, initializer=solver.set_blas_threads, initargs=(2,))


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
    with mock.patch.object(cli, "ProcessPoolExecutor") as spy:
        code, out = run_cli(tmp_path, "sweep", *_SWEEP)
    assert code == 0
    spy.assert_not_called()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["pool"] == {"workers": 1, "blas_threads": None}


def test_dead_sweep_worker_exits_3_with_one_line(tmp_path, monkeypatch, capsys):
    """A worker that dies (here by ``os._exit``, as an OOM kill would end it)
    breaks the pool; the run ends in one validity-error line, no traceback."""
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
    assert solver["blas_threads"] == 1
    assert solver["sigma"] + manifest["params"]["delta"] < ground


def test_rerun_manifests_differ_only_in_wall_time(tmp_path):
    """A dense Lanczos solve records its method and BLAS threads, the run its
    libraries and their thread counts; all of it repeats on a rerun."""
    size = ["--set", "params.n_cavities=201", "--set", "params.n_qubits=30"]
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["spectrum", "--out", str(out), *size, "--set", "options.k_lowest=1"]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    for manifest in manifests:
        assert manifest.pop("wall_time_s") >= 0
    assert manifests[0] == manifests[1]
    manifest = manifests[0]
    assert manifest["solver"]["method"] == "lanczos"
    assert manifest["solver"]["blas_threads"] == 1
    libraries = manifest["libraries"]
    assert libraries["numpy"] == np.__version__ and libraries["scipy"]
    assert libraries["openblas"]
    assert all(lib["threads"] >= 1 for lib in libraries["openblas"])


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


def test_refused_allocation_exits_3_with_one_line(tmp_path, capsys):
    """A time grid of 1e15 samples (7 PiB) is refused by the allocator at
    once, before any memory is touched, and ends like a size cap."""
    code, out = run_cli(
        tmp_path, "dynamics", "--set", "options.t_max=1e15", "--set", "options.dt=1"
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("validity error: ")
    assert err.count("\n") == 1
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


def _check_bad_settings(tmp_path_factory, task, assignments):
    """Any mix of bad --set values either runs or exits 2, 3 or 4 with one
    line on stderr; only a run that succeeds leaves a manifest."""
    out = str(tmp_path_factory.mktemp("fuzz") / "out")
    args = [item for key, value in assignments for item in ("--set", f"{key}={value}")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([task, "--out", out, *SMALL, *args])
    manifest = os.path.join(out, "manifest.json")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert os.path.isfile(manifest)
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
