import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from droplet_lattice import (
    GeometryError,
    MomentumGrid,
    PairBasis,
    SignError,
    ValidityError,
    build_params,
    default_params,
    qubit_positions,
)


def test_derived_detunings_match_closed_forms():
    p = default_params()
    assert p.cavity_qubit_detuning == pytest.approx(0.5 * (0.02 + math.sqrt(17)), abs=1e-12)
    assert p.band_edge_detuning == pytest.approx(0.5 * (0.02 + math.sqrt(17)) - 2, abs=1e-12)
    assert p.bound_band_bottom == pytest.approx(-math.sqrt(17), abs=1e-12)


def test_detuning_identity_roundtrip():
    p = default_params()
    rebuilt = 2 * p.omega_e - p.bound_band_bottom
    assert abs(rebuilt - p.delta) <= 1e-12 * abs(p.delta)


def test_decoupled_limit_is_valid():
    p = default_params(g=0.0)
    assert p.g == 0.0


def test_validity_bound_rejects_small_nonlinearity():
    # the off-resonance bound evaluates to about 0.4 J at g = 1/50
    with pytest.raises(ValidityError):
        build_params(dict(n_cavities=501, n_qubits=60, spacing=1, g=1 / 50, u=-0.01, delta=-1 / 50))


def test_a_coupling_whose_square_overflows_is_out_of_regime():
    """The off-resonance bound of a finite coupling near the float range
    overflows to infinity, which no |u| exceeds, instead of raising."""
    with pytest.raises(ValidityError, match="must exceed inf"):
        default_params(g=1e300)


def test_sign_errors():
    with pytest.raises(SignError):
        default_params(delta=+0.02)
    with pytest.raises(SignError):
        default_params(u=+1.0)


def test_geometry_errors():
    with pytest.raises(GeometryError):
        build_params(dict(n_cavities=5, n_qubits=60, spacing=1, g=1 / 50, u=-1.0, delta=-0.02))
    with pytest.raises(GeometryError):
        default_params(n_cavities=500)  # even array has no symmetric grid


def test_positions_centered_block():
    assert qubit_positions(default_params()).tolist() == list(range(221, 281))


def test_positions_spacing_zero_central_cavity():
    p = default_params(n_qubits=3, spacing=0)
    assert qubit_positions(p).tolist() == [251, 251, 251]


def test_positions_regular_spacing():
    p = default_params(n_qubits=10, spacing=2)
    pos = qubit_positions(p)
    assert np.all(np.diff(pos) == 2)
    assert pos[0] >= 1 and pos[-1] <= p.n_cavities


def test_pair_basis_corners():
    basis = PairBasis(60)
    assert basis.size == 1770
    assert basis.encode(1, 2) == 0
    assert basis.encode(59, 60) == 58
    assert basis.decode(0) == (1, 2)


def test_pair_basis_rejects_bad_pairs():
    basis = PairBasis(10)
    for i, j in [(3, 3), (5, 2), (0, 4), (4, 11)]:
        with pytest.raises(IndexError):
            basis.encode(i, j)


@given(st.integers(min_value=2, max_value=80))
def test_pair_roundtrip_and_block_partition(n_qubits):
    basis = PairBasis(n_qubits)
    assert basis.size == n_qubits * (n_qubits - 1) // 2
    assert sum(n_qubits - r for r in range(1, n_qubits)) == basis.size
    for p in range(basis.size):
        i, j = basis.decode(p)
        assert basis.encode(i, j) == p
        assert basis.decode(basis.mirror[p]) == (n_qubits + 1 - j, n_qubits + 1 - i)
    # pairs with i + j = N_e + 1, one in every other separation block
    assert np.count_nonzero(basis.mirror == np.arange(basis.size)) == n_qubits // 2
    # ascending separation blocks, ascending left index inside each block
    seps = basis.separations
    assert np.all(np.diff(seps) >= 0)


@given(st.integers(min_value=1, max_value=120))
def test_momentum_grid_symmetric_with_zero(half):
    n = 2 * half + 1
    grid = MomentumGrid(n)
    k = grid.wavevectors
    assert len(k) == n
    assert k[grid.zero_index] == 0.0
    np.testing.assert_allclose(k, -k[::-1], atol=1e-15)


def test_momentum_grid_rejects_even():
    with pytest.raises(GeometryError):
        MomentumGrid(10)


@given(
    st.floats(min_value=0.0, max_value=0.02),  # keeps the validity bound below 0.5
    st.floats(min_value=-6.0, max_value=-0.5),
    st.floats(min_value=-0.4, max_value=-1e-4),
)
def test_detuning_identity_over_parameter_space(g, u, delta):
    p = build_params(
        dict(n_cavities=101, n_qubits=8, spacing=1, g=g, u=u, delta=delta)
    )
    rebuilt = 2 * p.omega_e - p.bound_band_bottom
    assert abs(rebuilt - delta) <= 1e-12 * max(1.0, abs(delta))
    # the two-step elimination demands the qubit below the one-photon band
    assert p.band_edge_detuning > 0


def test_params_hash_stable_and_distinct():
    a, b = default_params(), default_params()
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != default_params(delta=-0.03).content_hash()
