import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from droplet_lattice import (
    Pipeline,
    SizeError,
    build_adiabatic_model,
    build_complete_sector,
    build_constrained_hop,
    build_full_model,
    build_pair_hop,
    build_spin_model,
    build_unconstrained_hop,
    default_params,
    eigensolve,
    hamiltonians,
)
from droplet_lattice.couplings import hop_scale_and_length
from droplet_lattice.hamiltonians import (
    HamiltonianMatrix,
    export_triplets,
    hermiticity_defect,
)
from droplet_lattice.oracles import (
    constrained_hop_by_strings,
    pair_hop_by_strings,
    two_photon_bath_sector,
    unconstrained_hop_by_strings,
)
from droplet_lattice.params import PairBasis, qubit_positions

MODEL_BUILDERS = {"single": build_constrained_hop, "tilde-single": build_unconstrained_hop}


# ---------------------------------------------------------------------------
# spin-sector assemblies against operator strings
# ---------------------------------------------------------------------------


def test_constrained_hop_matches_operator_strings(tiny_stack):
    oracle = constrained_hop_by_strings(tiny_stack.couplings.hop, tiny_stack.basis)
    np.testing.assert_allclose(tiny_stack.model("single").payload.toarray(), oracle, atol=1e-12)


def test_unconstrained_hop_matches_operator_strings(tiny_stack):
    oracle = unconstrained_hop_by_strings(tiny_stack.couplings.hop, tiny_stack.basis)
    np.testing.assert_allclose(
        tiny_stack.model("tilde-single").payload.toarray(), oracle, atol=1e-12
    )


def test_pair_hop_matches_operator_strings(tiny_stack):
    h_pair = build_pair_hop(tiny_stack.couplings, tiny_stack.basis, tiny_stack.params)
    oracle = pair_hop_by_strings(tiny_stack.couplings.pair_hop, tiny_stack.basis)
    np.testing.assert_allclose(h_pair.payload, oracle, atol=1e-12)


def test_spin_model_is_sum(tiny_stack):
    total = build_spin_model(tiny_stack.couplings, tiny_stack.basis, tiny_stack.params)
    np.testing.assert_allclose(
        total.payload,
        tiny_stack.model("single").payload + tiny_stack.couplings.pair_hop,
        atol=0,
    )


@pytest.mark.parametrize("n_qubits", [6, 7])
@pytest.mark.parametrize("spacing", [0, 1, 3])
def test_pair_models_commute_with_the_reflection(n_qubits, spacing):
    """The reflection (i, j) -> (N_e+1-j, N_e+1-i) of the regular qubit block
    is a symmetry of every pair-basis model, the premise of the parity split
    in ``solver.eigensolve``."""
    pipe = Pipeline(default_params(n_cavities=41, n_qubits=n_qubits, spacing=spacing))
    mirror = pipe.basis.mirror
    for name in ("spin", "single", "tilde-single", "pair"):
        h = pipe.model(name).payload
        h = h.toarray() if sp.issparse(h) else h
        np.testing.assert_allclose(h[mirror][:, mirror], h, rtol=0, atol=1e-14 * np.abs(h).max())


def test_hop_row_connectivity(small_stack):
    """Each pair ket couples to 2(N_e - 2) partners plus itself."""
    h = small_stack.model("single").payload.toarray()
    n_e = small_stack.params.n_qubits
    scale = hop_scale_and_length(small_stack.params)[0]
    for row in (0, 7, small_stack.basis.size - 1):
        nonzero = np.nonzero(np.abs(h[row]) > 0)[0]
        assert len(nonzero) == 2 * (n_e - 2) + 1
        assert h[row, row] == pytest.approx(2 * scale, rel=1e-12)


def test_single_is_stored_sparse_and_spin_holds_one_dense_array():
    """Building ``single`` allocates O(P N_e) bytes, here at most ten doubles
    per pair and qubit (its CSR arrays, filled and sorted row by row);
    building ``spin`` adds one P x P float64 array, the sum.  At 201 x 30 a
    P x P array holds 14.5 doubles per pair and qubit, so a dense ``single``
    at any step breaks both bounds.  Each build runs once untraced first, so
    one-time imports and caches are not counted."""
    pipe = Pipeline(default_params(n_cavities=201, n_qubits=30))
    cpl, basis, params = pipe.couplings, pipe.basis, pipe.params
    square = 8 * basis.size**2
    linear = 10 * 8 * basis.size * params.n_qubits
    for build, bound in ((build_constrained_hop, linear), (build_spin_model, square + linear)):
        build(cpl, basis, params)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build(cpl, basis, params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound, (build.__name__, peak, bound)
    assert sp.issparse(pipe.model("single").payload)
    assert sp.issparse(pipe.model("tilde-single").payload)
    assert isinstance(pipe.model("spin").payload, np.ndarray)


def test_two_qubit_degenerate_case():
    p = default_params(n_cavities=101, n_qubits=2)
    from droplet_lattice import build_effective_couplings
    from droplet_lattice.bath import solve_bath

    basis = PairBasis(2)
    cpl = build_effective_couplings(p, qubit_positions(p), basis, solve_bath(p))
    h = build_constrained_hop(cpl, basis, p)
    assert h.payload.shape == (1, 1)
    # no partner kets to hop to: only the self-interaction diagonal survives
    assert h.payload[0, 0] == pytest.approx(2 * hop_scale_and_length(p)[0], rel=1e-12)


def test_constraint_upshift_state_by_state(small_stack):
    single = np.linalg.eigvalsh(small_stack.model("single").payload.toarray())
    tilde = np.linalg.eigvalsh(small_stack.model("tilde-single").payload.toarray())
    assert np.all(single >= tilde - 1e-15)


def test_unconstrained_limit_zero_coupling():
    p = default_params(n_cavities=101, n_qubits=8, g=0.0)
    from droplet_lattice import build_effective_couplings
    from droplet_lattice.bath import solve_bath

    basis = PairBasis(8)
    cpl = build_effective_couplings(p, qubit_positions(p), basis, solve_bath(p))
    assert np.abs(build_unconstrained_hop(cpl, basis, p).payload).max() == 0.0


# ---------------------------------------------------------------------------
# adiabatic model
# ---------------------------------------------------------------------------


def test_adiabatic_model_layout(small_stack):
    h = build_adiabatic_model(
        small_stack.couplings, small_stack.basis, small_stack.params, small_stack.bands
    )
    p = small_stack.basis.size
    n = small_stack.params.n_cavities
    assert h.dim == p + n
    assert hermiticity_defect(h) < 1e-12
    np.testing.assert_allclose(
        h.payload[:p, :p], small_stack.model("single").payload.toarray(), atol=0
    )
    np.testing.assert_allclose(
        np.diag(h.payload[p:, p:]).real, small_stack.bands.pair_detunings, atol=0
    )


def test_adiabatic_bound_bound_toggle(small_stack):
    base = build_adiabatic_model(
        small_stack.couplings, small_stack.basis, small_stack.params, small_stack.bands
    )
    kept = build_adiabatic_model(
        small_stack.couplings, small_stack.basis, small_stack.params, small_stack.bands,
        small_stack.bound_bound,
    )
    p = small_stack.basis.size
    block = kept.payload[p:, p:] - base.payload[p:, p:]
    assert np.abs(block).max() > 0
    off_block = kept.payload[:p, p:] - base.payload[:p, p:]
    assert np.abs(off_block).max() == 0.0


def test_adiabatic_tracks_spin_model_low_spectrum(small_stack):
    adia = eigensolve(
        build_adiabatic_model(
            small_stack.couplings, small_stack.basis, small_stack.params, small_stack.bands
        ),
        k_lowest=6,
    )
    spin = small_stack.spectrum("spin")
    rel = np.abs(adia.energies[:6] - spin.energies[:6]) / np.abs(spin.energies[:6])
    assert rel.max() < 0.05


# ---------------------------------------------------------------------------
# explicit-photon models
# ---------------------------------------------------------------------------


def test_full_operator_matches_sparse_form(tiny_stack):
    h = tiny_stack.model("full")
    sparse = h.payload.to_sparse()
    rng = np.random.default_rng(7)
    v = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    np.testing.assert_allclose(h.payload.matvec(v), sparse @ v, atol=1e-12)
    dev = np.abs((sparse - sparse.conj().T)).max()
    assert dev < 1e-12


def test_full_operator_hermiticity_probe(default_stack):
    assert hermiticity_defect(default_stack.model("full")) < 1e-12


@pytest.mark.parametrize(
    "n_cavities, n_qubits, spacing",
    [
        pytest.param(41, 6, 1, id="41-6"),
        pytest.param(61, 8, 1, id="61-8"),
        pytest.param(41, 6, 0, id="41-6-0"),
        pytest.param(61, 8, 3, id="61-8-3"),
    ],
)
def test_schur_complement_matches_dense_elimination(n_cavities, n_qubits, spacing):
    """The structured Schur complement equals A - B (D - sigma)^-1 B^H taken
    from the sparse form, its shift lies below the spectrum, and the shift
    inverse undoes H - sigma."""
    from droplet_lattice.bath import solve_bath

    p = default_params(n_cavities=n_cavities, n_qubits=n_qubits, spacing=spacing)
    op = build_full_model(p, qubit_positions(p), PairBasis(n_qubits), solve_bath(p)).payload
    h = op.to_sparse().toarray()
    sigma = op.lower_bound()
    pairs, photons = op.basis.size, n_qubits * n_cavities
    keep = np.r_[0:pairs, pairs + photons : op.dim]
    photon = np.arange(pairs, pairs + photons)
    a = h[np.ix_(keep, keep)] - sigma * np.eye(len(keep))
    b = h[np.ix_(keep, photon)]
    dense = a - (b / (h.diagonal()[photon] - sigma)) @ b.conj().T
    np.testing.assert_allclose(op.schur_complement(sigma), dense, rtol=0, atol=1e-12)
    assert sigma < np.linalg.eigvalsh(h)[0]
    inverse = op.shift_invert(sigma)
    assert inverse.sigma == sigma
    v = np.random.default_rng(3).normal(size=op.dim) + 0j
    np.testing.assert_allclose(inverse.matvec(op.matvec(v) - sigma * v), v, atol=1e-10)


def test_full_row_sparsity(tiny_stack):
    h = tiny_stack.model("full").payload.to_sparse().tocsr()
    p = tiny_stack.basis.size
    n = tiny_stack.params.n_cavities
    n_e = tiny_stack.params.n_qubits
    counts = np.diff(h.indptr)
    assert counts[:p].max() <= 2 * n
    qp_rows = counts[p : p + n_e * n]
    assert qp_rows.max() <= (n_e - 1) + n + 1


def test_full_decoupled_spectrum():
    p = default_params(n_cavities=41, n_qubits=4, g=0.0)
    from droplet_lattice.bath import solve_bath

    basis = PairBasis(4)
    bands = solve_bath(p)
    h = build_full_model(p, qubit_positions(p), basis, bands)
    dense = h.payload.to_sparse().toarray()
    vals = np.sort(np.linalg.eigvalsh(dense))
    expected = np.sort(
        np.concatenate(
            [np.zeros(basis.size), np.tile(bands.single_detunings, 4), bands.pair_detunings]
        )
    )
    np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_complete_sector_bath_block_reproduces_bound_band(tiny_stack):
    """Pure-photon eigenvalues of the raw model contain the bound band, both
    from the bath oracle and from the photon-pair block of the complete
    sector less its 2 x cavity-qubit detuning."""
    params = tiny_stack.params
    h = tiny_stack.model("oracle")
    start = h.dim - h.dims["photon_pairs"]
    block = h.payload[start:, start:].toarray()
    block -= 2 * params.cavity_qubit_detuning * np.eye(len(block))
    for matrix in (two_photon_bath_sector(params), block):
        spec = np.linalg.eigvalsh(matrix)
        worst = max(np.abs(spec - e).min() for e in tiny_stack.bands.bound_energies)
        assert worst < 1e-9


def test_bound_band_bottom_matches_closed_form_at_production_size(default_stack):
    zero = default_stack.bands.grid.zero_index
    assert default_stack.bands.bound_energies[zero] == pytest.approx(
        default_stack.params.bound_band_bottom, abs=1e-9
    )


def test_complete_sector_decoupled_pairs():
    p = default_params(n_cavities=21, n_qubits=3, g=0.0)
    basis = PairBasis(3)
    h = build_complete_sector(p, qubit_positions(p), basis)
    dense = h.payload.toarray()
    np.testing.assert_allclose(dense[: basis.size, :], 0.0, atol=0)


@pytest.mark.parametrize("wrap", [np.asarray, sp.csr_matrix, sp.csr_array])
def test_hermiticity_defect_of_dense_and_sparse_payloads(wrap):
    """|H - H^H| max over |H| max: 0.5 / 2.5 for [[1, 2], [2.5, 0]]."""
    payload = wrap(np.array([[1.0, 2.0], [2.5, 0.0]]))
    h = HamiltonianMatrix(payload=payload, energy_offset=0.0, dims={})
    assert hermiticity_defect(h) == pytest.approx(0.2, abs=1e-15)


def test_complete_sector_is_hermitian():
    p = default_params(n_cavities=41, n_qubits=4)
    h = build_complete_sector(p, qubit_positions(p), PairBasis(4))
    assert hermiticity_defect(h) < 1e-12


def test_complete_sector_size_cap(monkeypatch):
    monkeypatch.setattr(hamiltonians, "COMPLETE_DIM_CAP", 5000)
    p = default_params(n_cavities=201, n_qubits=4)
    with pytest.raises(SizeError):
        build_complete_sector(p, qubit_positions(p), PairBasis(4))


def test_truncation_against_complete_sector():
    """Dropping the scattering continuum moves the low levels by < 1e-4 J."""
    p = default_params(n_cavities=41, n_qubits=4)
    from droplet_lattice.bath import solve_bath

    basis = PairBasis(4)
    positions = qubit_positions(p)
    complete = eigensolve(build_complete_sector(p, positions, basis), k_lowest=5)
    truncated = eigensolve(build_full_model(p, positions, basis, solve_bath(p)), k_lowest=5)
    np.testing.assert_allclose(complete.energies, truncated.energies, atol=1e-4)
    assert np.abs(complete.energies - truncated.energies).max() < 2e-5


def test_rotating_frame_offset_shift(small_stack):
    """Adding a constant to the diagonal shifts every eigenvalue by it."""
    h = small_stack.model("spin")
    shifted = h.payload + 0.37 * np.eye(h.dim)
    base = np.linalg.eigvalsh(h.payload)
    moved = np.linalg.eigvalsh(shifted)
    np.testing.assert_allclose(moved, base + 0.37, atol=1e-12)


def test_export_triplets_roundtrip(tmp_path, tiny_stack):
    path = tmp_path / "matrix.txt"
    export_triplets(tiny_stack.model("spin"), path)
    rows = np.loadtxt(path, comments="#")
    rebuilt = np.zeros((tiny_stack.model("spin").dim,) * 2, dtype=complex)
    for r, c, re, im in rows:
        rebuilt[int(r), int(c)] += re + 1j * im
    np.testing.assert_allclose(rebuilt.real, tiny_stack.model("spin").payload, atol=1e-12)


@pytest.mark.parametrize("name", ["single", "tilde-single"])
@pytest.mark.parametrize("cut", [False, True])
def test_sparse_hop_payloads_export_and_check_as_their_dense_form(tmp_path, tiny_stack, name,
                                                                  cut):
    """A CSR hop payload writes byte for byte the triplets of its dense form
    (rows in order, columns sorted, no stored zeros, also where qubit 1's hop
    strengths are cut to zero), and ``hermiticity_defect`` takes it as it is."""
    cpl = tiny_stack.couplings
    if cut:
        hop = cpl.hop.copy()
        hop[0, :] = hop[:, 0] = 0.0
        cpl = replace(cpl, hop=hop)
    h = MODEL_BUILDERS[name](cpl, tiny_stack.basis, tiny_stack.params)
    dense = replace(h, payload=h.payload.toarray())
    export_triplets(h, tmp_path / "sparse.txt")
    export_triplets(dense, tmp_path / "dense.txt")
    assert (tmp_path / "sparse.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()
    assert hermiticity_defect(h) == hermiticity_defect(dense) == 0.0


def test_export_size_guard(default_stack):
    with pytest.raises(SizeError):
        export_triplets(default_stack.model("full"), "/dev/null")


def test_hop_spectrum_flattening_staircase(default_stack):
    """The lowest group of about N_e states spans a ten times wider window
    than the next group (the visible step); later groups flatten out and the
    steps wash away (measured spreads 5.2e-3, 4.9e-4, 6.5e-4, 6.6e-4)."""
    n_e = default_stack.params.n_qubits
    for energies in (
        default_stack.spectrum("single").energies,
        np.linalg.eigvalsh(default_stack.model("tilde-single").payload.toarray()),
    ):
        spreads = [
            energies[(g + 1) * n_e - 1] - energies[g * n_e] for g in range(4)
        ]
        assert spreads[1] < 0.15 * spreads[0]
        assert 0.3 * spreads[1] < spreads[2] < 3 * spreads[1]
        assert 0.3 * spreads[2] < spreads[3] < 3 * spreads[2]


def test_bound_bound_block_shift_is_small(default_stack, adia_low):
    """Keeping the bound-to-bound coupling moves the lowest level by under
    2.5 percent at the default point (measured: 1.78 percent)."""
    stack = default_stack
    base = adia_low.energies[0]
    kept = eigensolve(
        build_adiabatic_model(
            stack.couplings, stack.basis, stack.params, stack.bands, stack.bound_bound
        ),
        k_lowest=1,
    ).energies[0]
    assert abs(kept - base) / abs(base) < 0.025


# ---------------------------------------------------------------------------
# elimination-chain regression pins at the production point
# ---------------------------------------------------------------------------


def test_full_low_spectrum_tracks_spin_model(default_stack, full_decomp_default):
    """The explicit-photon levels sit a few percent above the spin model."""
    spin = default_stack.spectrum("spin")
    rel = np.abs(full_decomp_default.energies[:10] - spin.energies[:10]) / np.abs(
        spin.energies[:10]
    )
    assert rel.max() < 0.08
    assert np.all(full_decomp_default.energies[:10] > spin.energies[:10])


def test_full_photonic_weight_regression(full_decomp_default):
    from droplet_lattice import photonic_fraction

    fractions = np.array([photonic_fraction(full_decomp_default.state(col)) for col in range(10)])
    assert fractions.max() < 0.25
    assert fractions.min() > 0.0
