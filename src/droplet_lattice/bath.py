"""Spectral data of the nonlinear photonic bath.

Energies are measured in the frame where the cavity frequency omega_c
is 0, so the single-photon band is the tight-binding dispersion
E_k = -2J cos(k).  For attractive onsite interaction (u < 0) the two-photon
sector additionally supports a bound band below the scattering continuum
near K = 0.  The bound state at center-of-mass wavevector K is obtained
from the relative-motion problem on the half line m >= 0: a symmetric
tridiagonal operator with effective hopping -2J cos(K/2), onsite u at
m = 0, and a sqrt(2) bosonic symmetrization factor on the hop out of
m = 0.  When the adaptive cutoff m_max reaches the half ring, the exact
periodic wrap term (with parity (-1)^kappa of the momentum index) is
included so that finite arrays are solved exactly.  Both depend on K only
through cos(K/2) and the parity of the index, which are even in K, so the
bath solves K >= 0 only and mirrors each state to -K by negating its
momentum, bit for bit the state a direct solve at -K gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .errors import ConvergenceError, DomainError, NoBoundState
from .output import write_csv
from .params import J, MomentumGrid, SystemParams

TAIL_TARGET = 1e-14


def single_photon_energy(k) -> np.ndarray:
    """Dispersion of one photon on the cavity array."""
    return -2 * J * np.cos(np.asarray(k, dtype=float))


@dataclass(frozen=True)
class RelativeBoundState:
    """Two-photon bound state for one center-of-mass wavevector.

    ``amplitudes[m]`` holds psi(m) for m = 0 ... m_max; the full relative
    wave function is the even extension psi(-m) = psi(m) and is normalized
    over m in [-m_max, m_max].  The global phase is fixed by psi(0) > 0.
    """

    momentum: float
    energy: float
    amplitudes: np.ndarray
    ring_wrapped: bool

    @property
    def m_max(self) -> int:
        return len(self.amplitudes) - 1

    def size_second_moment(self) -> float:
        """Mean squared relative distance, a measure of the pair size."""
        m = np.arange(self.m_max + 1, dtype=float)
        w = self.amplitudes**2
        return float(2.0 * np.sum(m[1:] ** 2 * w[1:]))

    def profile_transform(self, k: np.ndarray) -> np.ndarray:
        """sum_m exp(i m (k - K/2)) psi(m), real by the even symmetry of psi."""
        m = np.arange(1, self.m_max + 1)
        phase = np.asarray(k, dtype=float) - self.momentum / 2
        return self.amplitudes[0] + 2.0 * (np.cos(np.outer(phase, m)) @ self.amplitudes[1:])


def solve_bound_state(params: SystemParams, grid: MomentumGrid, kappa_index: int) -> RelativeBoundState:
    """Lowest relative-motion eigenstate below the scattering edge at one K.

    kappa_index is the integer momentum label n with K = 2 pi n / N.
    """
    n = grid.n_cavities
    if n != params.n_cavities:
        raise DomainError(
            f"grid built for {n} cavities, parameters say {params.n_cavities}"
        )
    u = params.u
    k_com = 2 * np.pi * kappa_index / n
    hop = np.cos(k_com / 2)  # effective hopping is -2 J cos(K/2)
    half_ring = (n - 1) // 2

    decay = (np.sqrt(u * u + 16 * J * J * hop * hop) - abs(u)) / (4 * J * hop) if hop > 0 else 0.0
    if 0.0 < decay < 1.0:
        m_max = int(np.ceil(np.log(TAIL_TARGET) / np.log(decay)))
        m_max = min(max(m_max, 4), half_ring)
    else:
        m_max = min(4, half_ring)

    diag = np.zeros(m_max + 1)
    diag[0] += u
    off = np.full(m_max, -2 * J * hop)
    off[0] *= np.sqrt(2)
    wrapped = m_max == half_ring
    if wrapped:
        # psi(m + N) = (-1)^kappa psi(m) closes the ring through the far boundary
        diag[-1] += -2 * J * hop * (-1) ** (kappa_index % 2)

    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise DomainError(f"relative-motion operator not finite at K index {kappa_index}")
    # the lowest eigenpair by bisection (index range 1..1, block order) and
    # inverse iteration: the two LAPACK calls of eigh_tridiagonal(select="i")
    count, vals, block, split, info = dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vecs, info = dstein(diag, off, vals[:count], block, split)
    if info != 0:
        raise ConvergenceError(f"tridiagonal bound-state solve failed at K index {kappa_index} "
                               f"(LAPACK info {info})")
    energy = float(vals[0])
    edge = -4 * J * abs(hop)
    if energy >= edge:
        raise NoBoundState(
            f"no state below the scattering edge at K index {kappa_index} "
            f"(E={energy:g}, edge={edge:g})"
        )
    phi = vecs[:, 0]
    if phi[0] < 0:
        phi = -phi
    psi = phi.copy()
    psi[1:] /= np.sqrt(2)
    return RelativeBoundState(
        momentum=float(k_com),
        energy=energy,
        amplitudes=psi,
        ring_wrapped=wrapped,
    )


@dataclass(frozen=True)
class BathBands:
    """Band data and detunings on the shared momentum grid."""

    grid: MomentumGrid
    single_photon_energies: np.ndarray
    bound_energies: np.ndarray
    single_detunings: np.ndarray  # E_k - omega_e, one photon against one excited qubit
    pair_detunings: np.ndarray    # E_{K,b} - 2 omega_e, bound pair against two excited qubits
    bound_states: tuple = field(repr=False)
    profiles: np.ndarray = field(repr=False)  # S[k_idx, K_idx] of profile_table

    def require_gap(self):
        if np.any(self.single_detunings <= 0):
            raise DomainError("qubit not below the single-photon band (some E_k <= omega_e)")
        if np.any(self.pair_detunings <= 0):
            raise DomainError("two-qubit energy inside the bound band (some pair detuning <= 0)")


def solve_bath(params: SystemParams) -> BathBands:
    """Bound band, detunings and profile table for every wavevector on the
    grid; the states at K < 0 are those at -K with the momentum negated (see
    the module)."""
    grid = MomentumGrid(params.n_cavities)
    upper = [solve_bound_state(params, grid, idx) for idx in grid.indices[grid.zero_index:]]
    lower = [replace(s, momentum=-s.momentum) for s in upper[:0:-1]]
    states = tuple(lower + upper)
    e_k = single_photon_energy(grid.wavevectors)
    e_b = np.array([s.energy for s in states])
    return BathBands(
        grid=grid,
        single_photon_energies=e_k,
        bound_energies=e_b,
        single_detunings=e_k - params.omega_e,
        pair_detunings=e_b - 2 * params.omega_e,
        bound_states=states,
        profiles=profile_table(grid, states),
    )


def bound_energy_closed_form(params: SystemParams, k_com) -> np.ndarray:
    """Infinite-lattice bound-band dispersion, used as a cross-check only."""
    hop = np.cos(np.asarray(k_com, dtype=float) / 2)
    return -np.sqrt(params.u**2 + 16 * J * J * hop * hop)


def bound_matrix_element(k, cavity: int, state: RelativeBoundState) -> complex:
    """Coupling element between a qubit-photon ket and a bound-pair ket.

    Equals sqrt(2) sum_m exp[i m (k - K/2) + i cavity (K - k)] psi(m),
    truncated at the state's m_max.
    """
    k = np.asarray(k, dtype=float)
    profile = state.profile_transform(k)
    return np.sqrt(2) * np.exp(1j * cavity * (state.momentum - k)) * profile


def profile_table(grid: MomentumGrid, states) -> np.ndarray:
    """Matrix S[k_idx, K_idx] of relative-profile transforms for all k, K.

    On the grid k = 2 pi n_k / N, K = 2 pi n_K / N the phase of every term
    is exactly m (k - K/2) = pi m l / N with l = 2 n_k - n_K, so only 2N
    distinct rows of cosines exist.  With Psi[m, K] = psi_K(m) zero-padded
    to the longest state and C[l, m] = cos(pi ((l m) mod 2N) / N), the
    argument reduced in integers so that accuracy does not fall with m,
    one product G = C Psi over m >= 1 holds every sum, and the table is
    the gather S[n_k, n_K] = psi_K(0) + 2 G[(2 n_k - n_K) mod 2N, n_K].
    """
    n = grid.n_cavities
    psi = np.zeros((max(s.m_max for s in states), n))
    for col, state in enumerate(states):
        psi[: state.m_max, col] = state.amplitudes[1:]
    l = np.arange(2 * n)
    m = np.arange(1, psi.shape[0] + 1)
    cosines = np.cos(np.pi * l / n)[np.outer(l, m) % (2 * n)]
    sums = cosines @ psi
    idx = grid.indices
    rows = (2 * idx[:, None] - idx[None, :]) % (2 * n)
    head = np.array([s.amplitudes[0] for s in states])
    return head + 2.0 * sums[rows, np.arange(n)]


def write_band_csv(bands: BathBands, path):
    """Dump (K, E_Kb_minus_2wc, size) rows for band plots."""
    write_csv(
        path,
        ["K", "E_Kb_minus_2wc", "size"],
        (
            (s.momentum, s.energy, s.size_second_moment())
            for s in bands.bound_states
        ),
    )
