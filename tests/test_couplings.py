import numpy as np
import pytest

from droplet_lattice import DomainError, PairBasis, build_effective_couplings, default_params
from droplet_lattice import couplings
from droplet_lattice.bath import solve_bath
from droplet_lattice.couplings import (
    bound_bound_couplings,
    constrained_hop_matrix,
    hop_scale_and_length,
    pair_bound_couplings,
    pair_hop_matrix,
    write_pair_hop_blocks_csv,
)
from droplet_lattice.oracles import pair_hop_reference
from droplet_lattice.params import J, qubit_positions


def test_hop_scale_and_length_reference_point():
    scale, length = hop_scale_and_length(default_params())
    assert scale == pytest.approx(-7.410826e-4, rel=1e-6)
    assert length == pytest.approx(3.74950, rel=1e-5)


def test_hop_matrix_structure(small_stack):
    w = small_stack.couplings.hop
    scale, length = hop_scale_and_length(small_stack.params)
    np.testing.assert_allclose(w, w.T, atol=0)
    assert np.all(w < 0)
    dist = np.abs(
        small_stack.positions[:, None] - small_stack.positions[None, :]
    )
    np.testing.assert_allclose(w, scale * np.exp(-dist / length), rtol=1e-14)


def test_hop_vanishes_without_coupling():
    p = default_params(n_cavities=101, n_qubits=10, g=0.0)
    w = constrained_hop_matrix(p, qubit_positions(p))
    assert np.all(w == 0)


def test_hop_grows_toward_small_detuning():
    scales, lengths = [], []
    for delta in (-0.15, -0.05, -0.01):
        s, L = hop_scale_and_length(default_params(delta=delta))
        scales.append(abs(s))
        lengths.append(L)
    assert scales[0] < scales[1] < scales[2]
    assert lengths[0] < lengths[1] < lengths[2]


def _pair_bound_literal(params, bands, n_i, n_j):
    """Elementwise definition: explicit wavevector sum over coupling elements."""
    from droplet_lattice.bath import bound_matrix_element

    k = bands.grid.wavevectors
    n = params.n_cavities
    out = np.empty(n, dtype=complex)
    for col, state in enumerate(bands.bound_states):
        mb_i = bound_matrix_element(k, n_i, state)
        mb_j = bound_matrix_element(k, n_j, state)
        weight = 1.0 / (n * bands.single_detunings)
        out[col] = -np.sum(
            weight * (np.exp(-1j * k * n_i) * np.conj(mb_j) + np.exp(-1j * k * n_j) * np.conj(mb_i))
        )
    return out


def test_pair_bound_matches_literal_definition(tiny_stack):
    basis, bands = tiny_stack.basis, tiny_stack.bands
    pos = tiny_stack.positions
    fast = tiny_stack.couplings.pair_bound
    scale = np.abs(fast).max()
    for (i, j) in [(1, 2), (2, 5), (1, 6)]:
        literal = _pair_bound_literal(tiny_stack.params, bands, pos[i - 1], pos[j - 1])
        np.testing.assert_allclose(fast[basis.encode(i, j)], literal, atol=1e-12 * scale)


def test_pair_bound_symmetric_under_qubit_exchange(tiny_stack):
    bands = tiny_stack.bands
    pos = tiny_stack.positions
    a = _pair_bound_literal(tiny_stack.params, bands, pos[1], pos[4])
    b = _pair_bound_literal(tiny_stack.params, bands, pos[4], pos[1])
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_pair_bound_shift_covariance(small_stack):
    params, basis, bands = small_stack.params, small_stack.basis, small_stack.bands
    pos = small_stack.positions
    f0 = small_stack.couplings.pair_bound
    shift = 3
    f1 = pair_bound_couplings(params, pos + shift, basis, bands)
    k = bands.grid.wavevectors
    phase = np.exp(-1j * k * shift)[None, :]
    np.testing.assert_allclose(f1, phase * f0, atol=1e-12)
    np.testing.assert_allclose(np.abs(f1), np.abs(f0), atol=1e-12)


def test_pair_bound_carries_no_coupling_constant(small_stack):
    params = small_stack.params
    doubled = default_params(
        n_cavities=params.n_cavities, n_qubits=params.n_qubits, g=2 * params.g
    )
    f_doubled = pair_bound_couplings(
        doubled, small_stack.positions, small_stack.basis, solve_bath(doubled)
    )
    np.testing.assert_allclose(f_doubled, small_stack.couplings.pair_bound, atol=1e-12)


def test_bound_bound_hermitian_negative_diagonal(small_stack):
    g_mat = small_stack.bound_bound
    np.testing.assert_allclose(g_mat, g_mat.conj().T, atol=1e-12)
    diag = np.diag(g_mat)
    assert np.abs(diag.imag).max() < 1e-12
    assert np.all(diag.real < 0)


def test_bound_bound_empty_array_is_zero(small_stack):
    g_mat = bound_bound_couplings(
        small_stack.params, np.array([], dtype=int), small_stack.bands
    )
    assert np.abs(g_mat).max() == 0.0


def test_pair_hop_negative_semidefinite(small_stack):
    y = small_stack.couplings.pair_hop
    np.testing.assert_allclose(y, y.T, atol=0)
    vals = np.linalg.eigvalsh(y)
    assert vals.max() <= 1e-14 * abs(vals.min())
    assert np.all(np.diag(y) < 0)


def test_pair_hop_equals_real_part_of_complex_product(small_stack):
    params, bands = small_stack.params, small_stack.bands
    pair_bound = small_stack.couplings.pair_bound
    y = pair_hop_matrix(params, pair_bound, bands)
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    reference = -(params.g**4 / (params.n_cavities * J * J)) * (a @ a.conj().T).real
    scale = np.abs(reference).max()
    np.testing.assert_allclose(y, reference, rtol=0, atol=1e-13 * scale)
    assert np.array_equal(y, y.T)
    assert np.linalg.eigvalsh(y).max() <= 1e-14 * scale


def test_pair_hop_refuses_unpaired_wavevectors(small_stack):
    """Column -K of pair_bound is the conjugate of column K, which makes A A^H
    real.  A phase on one column leaves A A^H unchanged; a changed magnitude
    breaks the pairing and leaves an imaginary part."""
    params, bands = small_stack.params, small_stack.bands
    pair_bound = small_stack.couplings.pair_bound
    col = bands.grid.zero_index + 1
    partner = bands.grid.zero_index - 1
    np.testing.assert_allclose(
        pair_bound[:, partner], pair_bound[:, col].conj(), atol=1e-13 * np.abs(pair_bound).max()
    )
    phased = pair_bound.copy()
    phased[:, col] *= 1j
    y = small_stack.couplings.pair_hop
    np.testing.assert_allclose(
        pair_hop_matrix(params, phased, bands), y, rtol=0, atol=1e-13 * np.abs(y).max()
    )
    broken = pair_bound.copy()
    broken[:, col] *= 2
    with pytest.raises(DomainError, match="unexpectedly complex"):
        pair_hop_matrix(params, broken, bands)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_pair_hop_certificate_bounds_the_imaginary_part(tiny_stack, factor):
    """Scaling column -K by 1 + t leaves a pairing residual of about t times
    that column, and the certificate 2 alpha delta + delta^2 <= 1e-10 alpha^2
    refuses it just over the bound.  Just under it, the complete O(P^2 N)
    product confirms what the certificate promises: Im(A A^H) and the
    distance of the result from -c Re(A A^H) both lie within the bound."""
    params, bands = tiny_stack.params, tiny_stack.bands
    pair_bound = tiny_stack.couplings.pair_bound
    col = bands.grid.zero_index - 1
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    alpha = np.linalg.norm(a, axis=1).max()
    delta = alpha * (np.sqrt(1 + 1e-10) - 1)  # 2 alpha delta + delta^2 = 1e-10 alpha^2
    scaled = pair_bound.copy()
    scaled[:, col] *= 1 + factor * delta / np.abs(a[:, col]).max()
    if factor > 1:
        with pytest.raises(DomainError, match="unexpectedly complex"):
            pair_hop_matrix(params, scaled, bands)
        return
    y = pair_hop_matrix(params, scaled, bands)
    a = scaled / np.sqrt(bands.pair_detunings)[None, :]
    product = a @ a.conj().T
    scale = np.linalg.norm(a, axis=1).max() ** 2
    prefactor = params.g**4 / (params.n_cavities * J * J)
    assert 0 < np.abs(product.imag).max() <= 1e-10 * scale
    assert np.abs(y + prefactor * product.real).max() <= 1e-10 * prefactor * scale


def test_pair_hop_off_diagonal_bounded_by_diagonals(small_stack):
    y = small_stack.couplings.pair_hop
    d = np.sqrt(np.abs(np.diag(y)))
    bound = np.outer(d, d)
    assert np.all(np.abs(y) <= bound * (1 + 1e-10))


def test_pair_hop_translation_invariance(small_stack):
    y = small_stack.couplings.pair_hop
    basis = small_stack.basis
    scale = np.abs(y).max()
    for (i, j, l, h, s) in [(1, 2, 3, 5, 2), (2, 4, 1, 6, 3), (1, 3, 2, 4, 4)]:
        a = y[basis.encode(i, j), basis.encode(l, h)]
        b = y[basis.encode(i + s, j + s), basis.encode(l + s, h + s)]
        assert abs(a - b) <= 1e-10 * scale


def test_pair_hop_blocks_most_negative_on_block_diagonal(small_stack):
    y = small_stack.couplings.pair_hop
    basis = small_stack.basis
    # within the (r=1, r=1) block the diagonal is the most negative entry row-wise
    block = [p for p in range(basis.size) if basis.separations[p] == 1]
    sub = y[np.ix_(block, block)]
    for row in range(len(block)):
        assert sub[row, row] == pytest.approx(sub[row].min(), abs=1e-15)
    # block-diagonal magnitude decreases with separation
    diag_by_r = []
    for r in (1, 2, 3):
        idx = [p for p in range(basis.size) if basis.separations[p] == r]
        diag_by_r.append(np.mean(np.diag(y[np.ix_(idx, idx)])))
    assert diag_by_r[0] < diag_by_r[1] < diag_by_r[2] < 0


def test_pair_hop_matches_wavevector_loop_reference(tiny_stack):
    y = tiny_stack.couplings.pair_hop
    reference = pair_hop_reference(
        tiny_stack.params, tiny_stack.couplings.pair_bound, tiny_stack.bands
    )
    np.testing.assert_allclose(reference, y, atol=1e-12 * np.abs(y).max())


def test_couplings_vanish_at_zero_coupling():
    p = default_params(n_cavities=101, n_qubits=8, g=0.0)
    pos = qubit_positions(p)
    basis = PairBasis(p.n_qubits)
    cpl = build_effective_couplings(p, pos, basis, solve_bath(p))
    assert np.abs(cpl.hop).max() == 0.0
    assert np.abs(cpl.pair_hop).max() == 0.0
    # assembled models therefore vanish as well
    from droplet_lattice import build_spin_model

    h = build_spin_model(cpl, basis, p)
    assert np.abs(h.payload).max() == 0.0


def test_array_size_convergence():
    """Physical couplings stop moving once the array dwarfs every length scale."""
    rows = {}
    for n in (301, 501):
        p = default_params(n_cavities=n, n_qubits=8)
        pos = qubit_positions(p)
        basis = PairBasis(p.n_qubits)
        cpl = build_effective_couplings(p, pos, basis, solve_bath(p))
        probe = (
            cpl.pair_hop[basis.encode(1, 2), basis.encode(1, 2)],
            cpl.pair_hop[basis.encode(1, 2), basis.encode(4, 7)],
            cpl.pair_hop[basis.encode(2, 5), basis.encode(3, 6)],
        )
        rows[n] = np.array(probe + hop_scale_and_length(p))
    drift = np.abs(rows[301] - rows[501]) / np.abs(rows[501])
    assert drift.max() < 1e-6


def test_gap_guard_raises_inside_band(small_stack):
    bands = small_stack.bands
    broken = bands.__class__(
        grid=bands.grid,
        single_photon_energies=bands.single_photon_energies,
        bound_energies=bands.bound_energies,
        single_detunings=bands.single_detunings - 10.0,
        pair_detunings=bands.pair_detunings,
        bound_states=bands.bound_states,
        profiles=bands.profiles,
    )
    with pytest.raises(DomainError):
        pair_bound_couplings(
            small_stack.params, small_stack.positions, small_stack.basis, broken
        )
    broken2 = bands.__class__(
        grid=bands.grid,
        single_photon_energies=bands.single_photon_energies,
        bound_energies=bands.bound_energies,
        single_detunings=bands.single_detunings,
        pair_detunings=bands.pair_detunings - 10.0,
        bound_states=bands.bound_states,
        profiles=bands.profiles,
    )
    with pytest.raises(DomainError):
        pair_hop_matrix(small_stack.params, small_stack.couplings.pair_bound, broken2)


def test_pair_hop_block_dump(tmp_path, monkeypatch, small_stack):
    monkeypatch.setattr(couplings, "BLOCK_DUMP_MAX_SEPARATION", 3)
    path = tmp_path / "blocks.csv"
    write_pair_hop_blocks_csv(small_stack.couplings, small_stack.basis, path)
    lines = path.read_text().strip().splitlines()
    kept = sum(1 for r in small_stack.basis.separations if r <= 3)
    assert len(lines) == 1 + kept * kept
