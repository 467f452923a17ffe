import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from droplet_lattice import (
    BasisMismatch,
    DomainError,
    PairBasis,
    WavepacketState,
    classify_droplet_states,
    default_params,
    distribution_drift,
    initial_state,
    loss_estimates,
    overlap_spectrum,
    pair_correlation,
    photonic_fraction,
    spin_spin_correlation,
)
from droplet_lattice.observables import (
    write_corr_snapshot_csv,
    write_dynamics_csv,
    write_overlap_csv,
    write_pair_corr_csv,
)


def _random_spin_state(basis, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    c /= np.linalg.norm(c)
    return WavepacketState(coefficients=c, time=0.0, dims={"pairs": basis.size})


def test_fully_symmetric_state_profile():
    basis = PairBasis(60)
    fs = initial_state("fs", basis)
    assert fs.norm() == pytest.approx(1.0, abs=1e-12)
    assert fs.coefficients[0] == pytest.approx(np.sqrt(2 / (60 * 59)), abs=1e-15)
    rec = pair_correlation(fs, basis)
    expected = 2 * (60 - rec.separations) / (60 * 59)
    np.testing.assert_allclose(rec.probabilities, expected, atol=1e-14)
    assert rec.probabilities[0] == pytest.approx(59 / 1770, abs=1e-14)


def test_partially_symmetric_state_profile():
    basis = PairBasis(60)
    ps = initial_state("ps", basis)
    assert ps.norm() == pytest.approx(1.0, abs=1e-12)
    rec = pair_correlation(ps, basis)
    assert rec.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rec.probabilities[1:]).max() == 0.0


def test_symmetric_states_inner_product():
    basis = PairBasis(60)
    fs, ps = initial_state("fs", basis), initial_state("ps", basis)
    inner = np.vdot(ps.coefficients, fs.coefficients)
    assert inner == pytest.approx(np.sqrt(2 / 60), abs=1e-12)
    assert inner == pytest.approx(0.1826, abs=5e-5)


def test_initial_state_rejects_unknown_kind():
    with pytest.raises(BasisMismatch):
        initial_state("xx", PairBasis(6))


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
def test_pair_correlation_accounts_for_all_weight(n_qubits, seed):
    basis = PairBasis(n_qubits)
    state = _random_spin_state(basis, seed)
    rec = pair_correlation(state, basis)
    assert np.all(rec.probabilities >= 0)
    assert rec.probabilities.sum() == pytest.approx(state.pair_weight(), abs=1e-10)


def test_spin_spin_grid_mirrored_zero_diagonal():
    basis = PairBasis(12)
    state = _random_spin_state(basis, 5)
    grid = spin_spin_correlation(state, basis)
    np.testing.assert_allclose(grid, grid.T, atol=0)
    assert np.abs(np.diag(grid)).max() == 0.0
    assert grid.sum() == pytest.approx(2 * state.pair_weight(), abs=1e-10)


def test_overlap_spectrum_completeness(small_stack):
    fs = initial_state("fs", small_stack.basis)
    energies, weights = overlap_spectrum(fs, small_stack.spectrum("spin"))
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(energies) >= -1e-12)


def test_overlap_spectrum_dimension_guard(small_stack):
    other_size = initial_state("fs", PairBasis(5))
    other_layout = WavepacketState(
        coefficients=np.ones(45), time=0.0, dims={"pairs": 35, "bound": 10}
    )
    for bad in (other_size, other_layout):
        with pytest.raises(BasisMismatch):
            overlap_spectrum(bad, small_stack.spectrum("spin"))


def test_photonic_fraction_bookkeeping():
    dims = {"pairs": 3, "bound": 4}
    c = np.array([0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.5])
    st_ = WavepacketState(coefficients=c, time=0.0, dims=dims)
    assert photonic_fraction(st_) == pytest.approx(0.5, abs=1e-12)
    assert photonic_fraction(st_) + st_.pair_weight() == pytest.approx(1.0, abs=1e-12)
    pure = WavepacketState(coefficients=np.ones(3) / np.sqrt(3), time=0.0, dims={"pairs": 3})
    with pytest.raises(BasisMismatch):
        photonic_fraction(pure)


def test_loss_estimates_reference_values():
    p_ph, rate = loss_estimates(default_params(), kappa=2e-2)
    assert p_ph == pytest.approx(5e-3, rel=0.10)
    assert 1.0 / rate == pytest.approx(1e4, rel=0.10)
    p_ph2, rate2 = loss_estimates(default_params(delta=-3 / 20), kappa=5e-2)
    assert p_ph2 == pytest.approx(2e-3, rel=0.10)
    assert 1.0 / rate2 == pytest.approx(1e4, rel=0.10)


def test_loss_estimates_domain_guard():
    p = default_params()
    object.__setattr__(p, "delta", 100.0)  # forged bracket below the band edge
    with pytest.raises(DomainError):
        loss_estimates(p, 1e-2)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_distribution_drift_properties(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(n)
    a /= a.sum()
    b = rng.random(n + 5)
    b /= b.sum()
    assert distribution_drift(a, a) == 0.0
    d_ab = distribution_drift(a, b)
    assert 0.0 <= d_ab <= 1.0 + 1e-12
    assert d_ab == pytest.approx(distribution_drift(b, a), abs=1e-14)


def test_classifier_small_array(small_stack, variational_family):
    labels = classify_droplet_states(small_stack.spectrum("spin"), variational_family(small_stack))
    assert labels.supported
    assert labels.indices.tolist() == [1, 2]
    assert labels.mode_numbers.tolist() == [1, 2]
    assert np.all(labels.overlaps > 0.9)


def test_classifier_growth_gate(small_stack, variational_family):
    from droplet_lattice.solver import VariationalResult

    grown = VariationalResult(
        length=variational_family(small_stack).length * 1.5,
        energies=variational_family(small_stack).energies,
        coefficients=variational_family(small_stack).coefficients,
        n_max=variational_family(small_stack).n_max,
    )
    labels = classify_droplet_states(
        small_stack.spectrum("spin"), variational_family(small_stack), reference=grown
    )
    assert not labels.supported
    assert labels.count == 0


def test_partially_symmetric_overlap_structure(default_stack):
    """The nearest-neighbor superposition spreads over many eigenstates:
    about ten percent on the ground state, a few percent elsewhere."""
    ps = initial_state("ps", default_stack.basis)
    _, weights = overlap_spectrum(ps, default_stack.spectrum("spin"))
    assert weights[0] == pytest.approx(0.10, abs=0.02)
    assert weights[1:].max() <= 0.03
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_correlations_alternate_between_pinned_and_spread(default_stack):
    """At maxima of the nearest-neighbor signal the spin-spin correlation
    concentrates near the array center; at minima it spreads out."""
    from droplet_lattice import propagate

    basis = default_stack.basis
    decomp = default_stack.spectrum("spin")
    fs = initial_state("fs", basis)
    maxima, minima = [960.0, 3080.0, 5220.0, 7500.0], [0.0, 2220.0, 4440.0, 6540.0]
    states = propagate(decomp, fs, maxima + minima)

    def central_weight(state):
        grid = spin_spin_correlation(state, basis)
        n_e = basis.n_qubits
        lo, hi = n_e // 2 - 10, n_e // 2 + 10
        return grid[lo:hi, lo:hi].sum() / grid.sum()

    pinned = [central_weight(s) for s in states[:4]]
    spread = [central_weight(s) for s in states[4:]]
    assert min(pinned) > max(spread)
    assert min(pinned) > 1.3 * max(spread)


def test_csv_emitters(tmp_path, small_stack):
    basis = small_stack.basis
    fs = initial_state("fs", basis)
    rec = pair_correlation(fs, basis)
    write_pair_corr_csv(rec, tmp_path / "pair_corr.csv")
    header = (tmp_path / "pair_corr.csv").read_text().splitlines()[0]
    assert header == "alpha,P"

    energies, weights = overlap_spectrum(fs, small_stack.spectrum("spin"))
    write_overlap_csv(energies, weights, tmp_path / "overlap.csv")
    assert (tmp_path / "overlap.csv").read_text().splitlines()[0] == "E_minus_E0b,weight"

    times = np.array([0.0, 1.0])
    write_dynamics_csv(times, {1: np.zeros(2), 6: np.ones(2), 21: np.ones(2)},
                       tmp_path / "dynamics.csv")
    assert (tmp_path / "dynamics.csv").read_text().splitlines()[0] == "t,P_alpha1,P_alpha6,P_alpha21"

    grid = spin_spin_correlation(fs, basis)
    write_corr_snapshot_csv(grid, tmp_path / "corr.csv")
    lines = (tmp_path / "corr.csv").read_text().strip().splitlines()
    assert lines[0] == "i,j,P"
    assert len(lines) == 1 + basis.n_qubits**2
