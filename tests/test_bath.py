import numpy as np
import pytest

from droplet_lattice import default_params
from droplet_lattice.bath import (
    bound_energy_closed_form,
    bound_matrix_element,
    profile_table,
    single_photon_energy,
    solve_bath,
    solve_bound_state,
    write_band_csv,
)
from droplet_lattice.oracles import single_photon_sector
from droplet_lattice.params import MomentumGrid


@pytest.fixture(scope="module")
def small_bands():
    return default_params(n_cavities=101, n_qubits=10), solve_bath(
        default_params(n_cavities=101, n_qubits=10)
    )


def test_dispersion_band_edges():
    p = default_params()
    assert single_photon_energy(p, 0.0) == pytest.approx(-2, abs=1e-15)
    assert single_photon_energy(p, np.pi) == pytest.approx(2, abs=1e-15)


def test_dispersion_matches_one_photon_diagonalization():
    p = default_params(n_cavities=41, n_qubits=4)
    grid = MomentumGrid(p.n_cavities)
    spectrum = np.linalg.eigvalsh(single_photon_sector(p))
    expected = np.sort(single_photon_energy(p, grid.wavevectors))
    np.testing.assert_allclose(spectrum, expected, atol=1e-10)


def test_bound_state_zero_momentum_closed_form(small_bands):
    p, bands = small_bands
    zero = bands.grid.zero_index
    assert bands.bound_energies[zero] == pytest.approx(-np.sqrt(17), abs=1e-9)


def test_bound_state_band_edge_is_onsite_pair():
    p = default_params(n_cavities=101, n_qubits=10)
    grid = MomentumGrid(p.n_cavities)
    edge = solve_bound_state(p, grid, grid.indices[-1])
    # the grid stops at K = pi (N-1)/N; the onsite-pair limit E = 2 w_c + u
    # with psi = delta_{m0} is exact only at K = pi itself
    assert edge.energy == pytest.approx(
        bound_energy_closed_form(p, edge.momentum), abs=1e-9
    )
    assert bound_energy_closed_form(p, np.pi) == pytest.approx(p.u, abs=1e-14)
    assert abs(edge.amplitudes[0]) > 0.999
    assert edge.energy == pytest.approx(p.u, abs=5e-3)


def test_bound_state_monotone_profile(small_bands):
    _, bands = small_bands
    zero = bands.grid.zero_index
    psi = bands.bound_states[zero].amplitudes
    assert np.all(psi > 0)
    assert np.all(np.diff(psi) < 0)


def test_bound_state_normalization_and_tail(small_bands):
    _, bands = small_bands
    for state in bands.bound_states[:: len(bands.bound_states) // 7]:
        total = state.amplitudes[0] ** 2 + 2 * np.sum(state.amplitudes[1:] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)
        if not state.ring_wrapped:
            assert abs(state.amplitudes[-1]) < 1e-12


def test_bound_band_even_and_monotone(small_bands):
    _, bands = small_bands
    e = bands.bound_energies
    np.testing.assert_allclose(e, e[::-1], atol=1e-11)
    zero = bands.grid.zero_index
    right = e[zero:]
    assert np.all(np.diff(right) > 0)


def test_bound_band_below_scattering_edge(small_bands):
    p, bands = small_bands
    k = bands.grid.wavevectors
    edge = -4 * np.cos(k / 2)
    assert np.all(bands.bound_energies < edge)


def test_band_overlap_depends_on_interaction_strength():
    # weak nonlinearity: bound band top overlaps the scattering bottom
    weak = default_params(n_cavities=101, n_qubits=10, u=-1.0)
    strong = default_params(n_cavities=101, n_qubits=10, u=-4.5)
    for p, overlaps in ((weak, True), (strong, False)):
        bands = solve_bath(p)
        top = bands.bound_energies.max()
        scattering_bottom = -4.0
        assert (top > scattering_bottom) == overlaps


def test_localization_grows_with_interaction():
    grid = MomentumGrid(101)
    sizes = []
    for u in (-1.0, -2.0, -4.0):
        p = default_params(n_cavities=101, n_qubits=10, u=u)
        sizes.append(solve_bound_state(p, grid, 0).size_second_moment())
    assert sizes[0] > sizes[1] > sizes[2]


def test_closed_form_cross_check(small_bands):
    p, bands = small_bands
    k = bands.grid.wavevectors
    # interior wavevectors have fully decayed tails on this array
    inner = np.abs(k) < 2.5
    np.testing.assert_allclose(
        bands.bound_energies[inner], bound_energy_closed_form(p, k[inner]), atol=1e-9
    )


def test_grid_convergence_doubling_cutoff():
    p = default_params()
    grid = MomentumGrid(p.n_cavities)
    state = solve_bound_state(p, grid, 0)
    hop = 1.0
    m2 = 2 * state.m_max
    diag = np.zeros(m2 + 1)
    diag[0] += p.u
    off = np.full(m2, -2 * hop)
    off[0] *= np.sqrt(2)
    from scipy.linalg import eigh_tridiagonal

    vals, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    assert abs(vals[0] - state.energy) < 1e-12


def test_matrix_element_translation_covariance(small_bands):
    _, bands = small_bands
    k = bands.grid.wavevectors
    state = bands.bound_states[40]
    shift = 7
    lhs = bound_matrix_element(k, 12 + shift, state)
    rhs = np.exp(1j * (state.momentum - k) * shift) * bound_matrix_element(k, 12, state)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_matrix_element_magnitude_independent_of_cavity(small_bands):
    _, bands = small_bands
    k = bands.grid.wavevectors
    state = bands.bound_states[60]
    np.testing.assert_allclose(
        np.abs(bound_matrix_element(k, 3, state)),
        np.abs(bound_matrix_element(k, 77, state)),
        atol=1e-12,
    )


def test_matrix_element_zero_momenta_real(small_bands):
    _, bands = small_bands
    zero = bands.grid.zero_index
    state = bands.bound_states[zero]
    value = bound_matrix_element(np.array([0.0]), 5, state)[0]
    expected = np.sqrt(2) * (state.amplitudes[0] + 2 * state.amplitudes[1:].sum())
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real == pytest.approx(expected, abs=1e-12)


def test_detunings_positive_in_band_gap(small_bands):
    _, bands = small_bands
    bands.require_gap()
    assert bands.single_detunings.min() > 0
    assert bands.pair_detunings.min() > 0


def test_minimum_pair_detuning_at_zero_momentum():
    p = default_params()
    bands = solve_bath(p)
    zero = bands.grid.zero_index
    assert np.argmin(bands.pair_detunings) == zero
    assert bands.pair_detunings[zero] == pytest.approx(-p.delta, abs=1e-9)


def test_band_csv_dump(tmp_path, small_bands):
    p, bands = small_bands
    path = tmp_path / "bands.csv"
    write_band_csv(bands, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "K,E_Kb_minus_2wc,size"
    assert len(lines) == 1 + p.n_cavities


@pytest.mark.parametrize(
    "n_cavities, n_qubits, u, wrapped",
    [(3, 2, -3.0, True), (41, 6, -1.0, True), (301, 50, -1.0, False)],
)
def test_profile_table_matches_per_state_transform(n_cavities, n_qubits, u, wrapped):
    """The one-product table equals each state's own cosine sum, column by column.

    At N = 3 every state reaches the half ring; at N = 41 all but the two
    states at the zone edge are ring-wrapped (m_max at the half ring); at
    N = 301 none is.  Every grid has both parities of n_K.
    """
    bands = solve_bath(default_params(n_cavities=n_cavities, n_qubits=n_qubits, u=u))
    assert any(s.ring_wrapped for s in bands.bound_states) == wrapped
    assert {int(n) % 2 for n in bands.grid.indices} == {0, 1}
    table = profile_table(bands)
    reference = np.column_stack(
        [s.profile_transform(bands.grid.wavevectors) for s in bands.bound_states]
    )
    assert table.shape == reference.shape == (n_cavities, n_cavities)
    np.testing.assert_allclose(table, reference, rtol=0, atol=1e-13 * np.abs(reference).max())


@pytest.mark.parametrize("n_cavities, n_qubits, spacing", [(41, 6, 1), (81, 12, 3)])
def test_negative_wavevectors_are_the_mirrored_states(n_cavities, n_qubits, spacing):
    """solve_bath solves K >= 0 only; each state at -K, energy, amplitudes,
    ring wrap and negated momentum, is bit for bit a direct solve at -K."""
    p = default_params(n_cavities=n_cavities, n_qubits=n_qubits, spacing=spacing)
    bands = solve_bath(p)
    grid = bands.grid
    for col, idx in enumerate(grid.indices[: grid.zero_index]):
        state, direct = bands.bound_states[col], solve_bound_state(p, grid, idx)
        assert state.momentum == direct.momentum == -bands.bound_states[-1 - col].momentum
        assert state.energy == direct.energy == bands.bound_energies[col]
        assert state.ring_wrapped == direct.ring_wrapped
        np.testing.assert_array_equal(state.amplitudes, direct.amplitudes)
