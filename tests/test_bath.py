import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from droplet_lattice import ConvergenceError, DomainError, Pipeline, bath, default_params
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
    assert single_photon_energy(0.0) == pytest.approx(-2, abs=1e-15)
    assert single_photon_energy(np.pi) == pytest.approx(2, abs=1e-15)


def test_dispersion_matches_one_photon_diagonalization():
    p = default_params(n_cavities=41, n_qubits=4)
    grid = MomentumGrid(p.n_cavities)
    spectrum = np.linalg.eigvalsh(single_photon_sector(p))
    expected = np.sort(single_photon_energy(grid.wavevectors))
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
    vals, _ = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    assert abs(vals[0] - state.energy) < 1e-12


@pytest.mark.usefixtures("cold_band")
@pytest.mark.parametrize(
    "n_cavities, n_qubits, spacing", [(41, 6, 1), (81, 12, 3), (301, 50, 1), (501, 60, 1)]
)
def test_bound_states_are_bitwise_those_of_eigh_tridiagonal(
    monkeypatch, n_cavities, n_qubits, spacing
):
    """``solve_bound_state`` calls LAPACK's dstebz and dstein itself; on the
    relative-motion operator of every K >= 0 its energy and amplitudes are bit
    for bit those from the lowest pair of scipy's eigh_tridiagonal."""
    operators, dstebz = [], bath.dstebz

    def spy(diag, off, *args):
        operators.append((diag.copy(), off.copy()))
        return dstebz(diag, off, *args)

    monkeypatch.setattr(bath, "dstebz", spy)
    bands = solve_bath(default_params(n_cavities=n_cavities, n_qubits=n_qubits, spacing=spacing))
    solved = bands.bound_states[bands.grid.zero_index:]
    assert len(operators) == len(solved) == (n_cavities + 1) // 2
    for state, (diag, off) in zip(solved, operators):
        vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        phi = -vecs[:, 0] if vecs[0, 0] < 0 else vecs[:, 0]
        psi = phi.copy()
        psi[1:] /= np.sqrt(2)
        assert state.energy == vals[0]
        np.testing.assert_array_equal(state.amplitudes, psi)


@pytest.mark.usefixtures("cold_band")
@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_a_failed_lapack_call_is_a_convergence_error(monkeypatch, routine):
    call = getattr(bath, routine)

    def failing(*args):
        *results, _ = call(*args)
        return (*results, 1)

    monkeypatch.setattr(bath, routine, failing)
    with pytest.raises(ConvergenceError, match="LAPACK info 1"):
        solve_bath(default_params(n_cavities=41, n_qubits=6))


def test_a_non_finite_relative_operator_is_refused(monkeypatch):
    """The finiteness check that ``eigh_tridiagonal`` made before LAPACK."""
    monkeypatch.setattr(bath, "J", float("nan"))
    p = default_params(n_cavities=41, n_qubits=6)
    with pytest.raises(DomainError, match="not finite"):
        solve_bound_state(p, MomentumGrid(41), 0)


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
    table = profile_table(bands.grid, bands.bound_states)
    np.testing.assert_array_equal(bands.profiles, table)
    reference = np.column_stack(
        [s.profile_transform(bands.grid.wavevectors) for s in bands.bound_states]
    )
    assert table.shape == reference.shape == (n_cavities, n_cavities)
    np.testing.assert_allclose(table, reference, rtol=0, atol=1e-13 * np.abs(reference).max())


@pytest.mark.usefixtures("cold_band")
def test_one_pipeline_builds_the_profile_table_once(monkeypatch):
    """The bands carry the table, so the couplings, the bound-to-bound block
    and the explicit-photon operator all read the one that solve_bath made."""
    calls = []

    def spy(*args):
        calls.append(args)
        return profile_table(*args)

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "profile_table", None) is profile_table
        if name.startswith("droplet_lattice") and holds:
            monkeypatch.setattr(module, "profile_table", spy)
    pipe = Pipeline(default_params(n_cavities=41, n_qubits=6))
    for name in ("spin", "adia0", "full"):
        pipe.model(name)
    assert len(calls) == 1


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


def _table_as_one_expression(grid, states):
    """``profile_table`` as one expression with a full N x N index gather."""
    n = grid.n_cavities
    psi = np.zeros((max(s.m_max for s in states), n))
    for col, state in enumerate(states):
        psi[: state.m_max, col] = state.amplitudes[1:]
    l = np.arange(2 * n)
    m = np.arange(1, psi.shape[0] + 1)
    sums = np.cos(np.pi * l / n)[np.outer(l, m) % (2 * n)] @ psi
    idx = grid.indices
    rows = (2 * idx[:, None] - idx[None, :]) % (2 * n)
    head = np.array([s.amplitudes[0] for s in states])
    return head + 2.0 * sums[rows, np.arange(n)]


@pytest.mark.parametrize("n_cavities, n_qubits", [(41, 6), (501, 60)])
def test_the_blockwise_profile_table_is_the_one_expression_bit_for_bit(n_cavities, n_qubits):
    """Gathered in row blocks and scaled in place, the table keeps every bit
    of the one-expression form; at 501 cavities its build's traced heap
    stays within 3.5 times the table's own bytes (5.8 for the expression)."""
    bands = solve_bath(default_params(n_cavities=n_cavities, n_qubits=n_qubits))
    tracemalloc.start()
    try:
        table = profile_table(bands.grid, bands.bound_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(table, _table_as_one_expression(bands.grid, bands.bound_states))
    if n_cavities == 501:
        assert peak <= 3.5 * table.nbytes


@pytest.mark.usefixtures("cold_band")
def test_points_with_the_same_cavities_and_interaction_share_one_band(monkeypatch):
    """Only n_cavities and u enter the bound band: points that differ in
    delta, g, spacing or qubit count read one band (grid, states, energies,
    table), solved once, and compose their own detunings on it."""
    solved = []

    def spy(*args):
        solved.append(args[2])
        return solve_bound_state(*args)

    monkeypatch.setattr(bath, "solve_bound_state", spy)
    points = [default_params(**{"n_cavities": 41, "n_qubits": 6, **extra})
              for extra in ({}, {"delta": -0.05}, {"g": 0.03}, {"spacing": 2}, {"n_qubits": 4})]
    first, *others = [Pipeline(p).bands for p in points]
    assert len(solved) == 21
    for p, bands in zip(points[1:], others):
        for name in ("grid", "single_photon_energies", "bound_energies", "bound_states",
                     "profiles"):
            assert getattr(bands, name) is getattr(first, name)
        np.testing.assert_array_equal(bands.single_detunings,
                                      first.single_photon_energies - p.omega_e)
        np.testing.assert_array_equal(bands.pair_detunings, first.bound_energies - 2 * p.omega_e)
    assert others[0].pair_detunings[0] != first.pair_detunings[0]
    other_u = solve_bath(default_params(n_cavities=41, n_qubits=6, u=-1.5))
    assert len(solved) == 42 and other_u.profiles is not first.profiles
    assert solve_bath(points[0]).profiles is not first.profiles  # only the last band is kept
    assert len(solved) == 63


def test_the_shared_band_is_read_only():
    """Every array of the kept band refuses writes, so no caller can change
    what the next point with the same key reads."""
    bands = solve_bath(default_params(n_cavities=41, n_qubits=6))
    zero = bands.grid.zero_index
    for array in (bands.profiles, bands.bound_states[zero].amplitudes,
                  bands.bound_states[0].amplitudes, bands.grid.indices, bands.grid.wavevectors,
                  bands.single_photon_energies, bands.bound_energies):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    bands.single_detunings[0] = bands.single_detunings[0]  # a point's own detunings stay writable
