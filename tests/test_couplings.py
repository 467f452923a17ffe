import sys
import warnings

import numpy as np
import pytest

from droplet_lattice import DomainError, Pipeline, default_params
from droplet_lattice import couplings
from droplet_lattice.bath import solve_bath
from droplet_lattice.couplings import (
    bound_bound_couplings,
    constrained_hop_matrix,
    hop_scale_and_length,
    pair_bound_couplings,
    pair_hop_factor,
    write_pair_hop_blocks_csv,
)
from droplet_lattice.oracles import pair_hop_reference
from droplet_lattice.params import J, qubit_positions


def test_hop_scale_and_length_reference_point():
    scale, length = hop_scale_and_length(default_params())
    assert scale == pytest.approx(-7.410826e-4, rel=1e-6)
    assert length == pytest.approx(3.74950, rel=1e-5)


def test_hop_matrix_structure(small_stack):
    w = small_stack.hop
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


@pytest.mark.parametrize("delta", [-1e20, -1e300])
def test_a_hop_fall_off_lost_to_rounding_is_refused_without_a_warning(delta):
    """Far below the band, exp(-1/L) = ratio - sqrt(ratio^2 - 1) rounds to
    zero (delta = -1e20) or, where ratio^2 overflows, to -inf (-1e300):
    refused, before np.log warns and the hop turns NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not resolved in floating point"):
            hop_scale_and_length(default_params(delta=delta))


@pytest.mark.parametrize("g, refused", [(1e-300, ["hop", "pair-hop"]), (1e-160, ["pair-hop"]),
                                        (0.0, [])])
def test_a_coupling_prefactor_that_underflows_to_zero_is_refused(tiny_stack, g, refused):
    """The hop scale (g^2) and the pair-hop scale (g^4) are refused where they
    round to zero while g > 0: at g = 1e-300 both, at 1e-160 the pair hop
    alone.  g = 0 is an exact zero coupling, not refused."""
    params = default_params(n_cavities=41, n_qubits=6, g=g)
    stages = {"hop": lambda: hop_scale_and_length(params),
              "pair-hop": lambda: pair_hop_factor(params, tiny_stack.pair_bound, tiny_stack.bands)}
    for name, stage in stages.items():
        if name in refused:
            with pytest.raises(DomainError, match=f"^{name} scale at g={g:g} underflows to zero"):
                stage()
        else:
            stage()


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
    fast = tiny_stack.pair_bound
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
    f0 = small_stack.pair_bound
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
    np.testing.assert_allclose(f_doubled, small_stack.pair_bound, atol=1e-12)


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
    y = small_stack.pair_hop
    np.testing.assert_allclose(y, y.T, atol=0)
    vals = np.linalg.eigvalsh(y)
    assert vals.max() <= 1e-14 * abs(vals.min())
    assert np.all(np.diag(y) < 0)


def test_pair_hop_equals_real_part_of_complex_product(small_stack):
    params, bands = small_stack.params, small_stack.bands
    pair_bound = small_stack.pair_bound
    y = pair_hop_factor(params, pair_bound, bands).toarray()
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
    pair_bound = small_stack.pair_bound
    col = bands.grid.zero_index + 1
    partner = bands.grid.zero_index - 1
    np.testing.assert_allclose(
        pair_bound[:, partner], pair_bound[:, col].conj(), atol=1e-13 * np.abs(pair_bound).max()
    )
    phased = pair_bound.copy()
    phased[:, col] *= 1j
    y = small_stack.pair_hop
    np.testing.assert_allclose(pair_hop_factor(params, phased, bands).toarray(), y, rtol=0,
                               atol=1e-13 * np.abs(y).max())
    broken = pair_bound.copy()
    broken[:, col] *= 2
    with pytest.raises(DomainError, match="unexpectedly complex"):
        pair_hop_factor(params, broken, bands)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_pair_hop_certificate_bounds_the_imaginary_part(tiny_stack, factor):
    """Scaling column -K by 1 + t leaves a pairing residual of about t times
    that column, and the certificate 2 alpha delta + delta^2 <= 1e-10 alpha^2
    refuses it just over the bound.  Just under it, the complete O(P^2 N)
    product confirms what the certificate promises: Im(A A^H) and the
    distance of the result from -c Re(A A^H) both lie within the bound."""
    params, bands = tiny_stack.params, tiny_stack.bands
    pair_bound = tiny_stack.pair_bound
    col = bands.grid.zero_index - 1
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    alpha = np.linalg.norm(a, axis=1).max()
    delta = alpha * (np.sqrt(1 + 1e-10) - 1)  # 2 alpha delta + delta^2 = 1e-10 alpha^2
    scaled = pair_bound.copy()
    scaled[:, col] *= 1 + factor * delta / np.abs(a[:, col]).max()
    if factor > 1:
        with pytest.raises(DomainError, match="unexpectedly complex"):
            pair_hop_factor(params, scaled, bands)
        return
    y = pair_hop_factor(params, scaled, bands).toarray()
    a = scaled / np.sqrt(bands.pair_detunings)[None, :]
    product = a @ a.conj().T
    scale = np.linalg.norm(a, axis=1).max() ** 2
    prefactor = params.g**4 / (params.n_cavities * J * J)
    assert 0 < np.abs(product.imag).max() <= 1e-10 * scale
    assert np.abs(y + prefactor * product.real).max() <= 1e-10 * prefactor * scale


def _dense_pair_hop(params, pair_bound, bands):
    """X and the pair hop -c X X^T as formed from the whole of ``pair_bound``
    at once: A = pair_bound / sqrt(pair detuning), X = [Re A_+ W, Im A_+ W]."""
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    plus = a[:, bands.grid.zero_index:]
    weight = np.full(plus.shape[1], np.sqrt(2))
    weight[0] = 1.0
    x = np.concatenate((plus.real * weight, plus.imag * weight), axis=1)
    y = x @ x.T
    y *= -(params.g**4 / (params.n_cavities * J * J))
    return x, y


@pytest.mark.parametrize("rows", [1, 7, 10_000])
def test_the_factor_built_in_row_blocks_is_bitwise_that_of_the_whole_couplings(
    monkeypatch, small_stack, rows
):
    """Blocks of one row, of seven (which do not divide P = 45) and of more
    than P rows all give X bit for bit as it is formed from the whole of
    ``pair_bound``, and so do the rows of ``PairBoundRows``."""
    monkeypatch.setattr(couplings, "FACTOR_ROWS", rows)
    params, basis, bands = small_stack.params, small_stack.basis, small_stack.bands
    source = couplings.PairBoundRows(params, small_stack.positions, basis, bands)
    assert source[:].tobytes() == small_stack.pair_bound.tobytes()
    x, _ = _dense_pair_hop(params, small_stack.pair_bound, bands)
    for pair_bound in (source, small_stack.pair_bound):
        factor = pair_hop_factor(params, pair_bound, bands)
        assert factor.x.shape == x.shape and factor.x.tobytes() == x.tobytes()


@pytest.mark.parametrize("n_cavities, n_qubits", [(41, 6), (101, 20)])
@pytest.mark.parametrize("spacing", [0, 1])
def test_the_pair_hop_and_spin_arrays_are_bitwise_those_of_the_dense_formula(
    n_cavities, n_qubits, spacing
):
    """``toarray()`` of the factor is bit for bit -c X X^T formed from the
    whole couplings, and that of the ``spin`` payload is bit for bit the CSR
    hop added onto it."""
    pipe = Pipeline(default_params(n_cavities=n_cavities, n_qubits=n_qubits, spacing=spacing))
    _, y = _dense_pair_hop(pipe.params, pipe.pair_bound, pipe.bands)
    assert pipe.pair_hop_factor.toarray().tobytes() == y.tobytes()
    assert pipe.pair_hop.tobytes() == y.tobytes()
    spin = pipe.model("single").payload + y
    assert pipe.model("spin").payload.toarray().tobytes() == spin.tobytes()


def test_a_pairing_broken_in_the_last_row_block_is_refused(monkeypatch, small_stack):
    """The certificate reads every block: column K doubled in the rows of the
    last block alone still fails it."""
    monkeypatch.setattr(couplings, "FACTOR_ROWS", 7)
    params, bands = small_stack.params, small_stack.bands
    broken = small_stack.pair_bound.copy()
    last = (len(broken) - 1) // 7 * 7
    broken[last:, bands.grid.zero_index + 1] *= 2
    pair_hop_factor(params, broken[:last], bands)
    with pytest.raises(DomainError, match="unexpectedly complex"):
        pair_hop_factor(params, broken, bands)


def test_pair_hop_off_diagonal_bounded_by_diagonals(small_stack):
    y = small_stack.pair_hop
    d = np.sqrt(np.abs(np.diag(y)))
    bound = np.outer(d, d)
    assert np.all(np.abs(y) <= bound * (1 + 1e-10))


def test_pair_hop_translation_invariance(small_stack):
    y = small_stack.pair_hop
    basis = small_stack.basis
    scale = np.abs(y).max()
    for (i, j, l, h, s) in [(1, 2, 3, 5, 2), (2, 4, 1, 6, 3), (1, 3, 2, 4, 4)]:
        a = y[basis.encode(i, j), basis.encode(l, h)]
        b = y[basis.encode(i + s, j + s), basis.encode(l + s, h + s)]
        assert abs(a - b) <= 1e-10 * scale


def test_pair_hop_blocks_most_negative_on_block_diagonal(small_stack):
    y = small_stack.pair_hop
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
    y = tiny_stack.pair_hop
    reference = pair_hop_reference(
        tiny_stack.params, tiny_stack.pair_bound, tiny_stack.bands
    )
    np.testing.assert_allclose(reference, y, atol=1e-12 * np.abs(y).max())


def test_couplings_vanish_at_zero_coupling():
    p = default_params(n_cavities=101, n_qubits=8, g=0.0)
    pipe = Pipeline(p)
    assert np.abs(pipe.hop).max() == 0.0
    assert np.abs(pipe.pair_hop).max() == 0.0
    # assembled models therefore vanish as well
    from droplet_lattice import build_spin_model

    h = build_spin_model(pipe.hop_csr, pipe.pair_hop_factor, pipe.basis, p)
    assert np.abs(h.payload.toarray()).max() == 0.0


def test_array_size_convergence():
    """Physical couplings stop moving once the array dwarfs every length scale."""
    rows = {}
    for n in (301, 501):
        p = default_params(n_cavities=n, n_qubits=8)
        pipe = Pipeline(p)
        basis, y = pipe.basis, pipe.pair_hop
        probe = (
            y[basis.encode(1, 2), basis.encode(1, 2)],
            y[basis.encode(1, 2), basis.encode(4, 7)],
            y[basis.encode(2, 5), basis.encode(3, 6)],
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
        pair_hop_factor(small_stack.params, small_stack.pair_bound, broken2)


def test_pair_hop_block_dump(tmp_path, monkeypatch, small_stack):
    monkeypatch.setattr(couplings, "BLOCK_DUMP_MAX_SEPARATION", 3)
    path = tmp_path / "blocks.csv"
    write_pair_hop_blocks_csv(small_stack.pair_hop, small_stack.basis, path)
    lines = path.read_text().strip().splitlines()
    kept = sum(1 for r in small_stack.basis.separations if r <= 3)
    assert len(lines) == 1 + kept * kept


@pytest.mark.parametrize(
    "models, pair_bound_calls, pair_hop_calls",
    [
        (("single",), 0, 0),
        (("tilde-single",), 0, 0),
        (("adia0",), 1, 0),
        (("adia1",), 1, 0),
        (("spin", "pair", "adia0"), 1, 1),
    ],
    ids=["single", "tilde-single", "adia0", "adia1", "spin-pair-adia0"],
)
def test_a_pipeline_builds_only_the_coupling_stages_its_models_read(
    monkeypatch, models, pair_bound_calls, pair_hop_calls
):
    """The hop models read ``hop`` alone, the adiabatic models ``hop`` and
    ``pair_bound``; only ``spin`` and ``pair`` build the pair hop's factor,
    from row blocks of the couplings rather than ``pair_bound``, and every
    stage is built once per pipeline."""
    calls = {"pair_bound_couplings": 0, "pair_hop_factor": 0}
    for stage in calls:
        real = getattr(couplings, stage)

        def spy(*args, real=real, stage=stage):
            calls[stage] += 1
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("droplet_lattice") and getattr(module, stage, None) is real:
                monkeypatch.setattr(module, stage, spy)
    pipe = Pipeline(default_params(n_cavities=41, n_qubits=6))
    for model in models:
        pipe.spectrum(model)
    assert calls == {"pair_bound_couplings": pair_bound_calls, "pair_hop_factor": pair_hop_calls}
