"""Measurement-layer quantities: correlations, initial states, overlap
decompositions, droplet classification, and loss estimates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisMismatch, DomainError
from .hamiltonians import _require_pairs
from .output import write_csv
from .params import J, PairBasis, SystemParams

DROPLET_OVERLAP = 0.9      # least weight on the variational span of a droplet state
DROPLET_GROWTH_TOL = 0.10  # largest relative growth of a self-bound length


@dataclass
class WavepacketState:
    """Expansion coefficients of one two-excitation state at one time.

    The pair coefficients always occupy the leading ``dims['pairs']``
    slots; photon-sector slots follow when the basis has them.
    """

    coefficients: np.ndarray = field(repr=False)
    time: float
    dims: dict

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def pair_block(self) -> np.ndarray:
        return self.coefficients[: self.dims["pairs"]]

    def pair_weight(self) -> float:
        return float(np.sum(np.abs(self.pair_block()) ** 2))


@dataclass
class CorrelationRecord:
    """Pair correlation: probability per qubit separation."""

    separations: np.ndarray
    probabilities: np.ndarray

    def peak_separation(self) -> int:
        """argmax over integer separation, ties broken toward smaller values."""
        return int(self.separations[np.argmax(self.probabilities)])


def pair_correlation(state: WavepacketState, basis: PairBasis) -> CorrelationRecord:
    """Probability that the two excitations sit a given number of qubits apart."""
    weights = np.abs(state.pair_block()) ** 2
    acc = np.bincount(basis.separations, weights=weights, minlength=basis.n_qubits)
    alphas = np.arange(1, basis.n_qubits)
    return CorrelationRecord(separations=alphas, probabilities=acc[1:])


def spin_spin_correlation(state: WavepacketState, basis: PairBasis) -> np.ndarray:
    """|d_ij|^2 on the full (i, j) grid, mirrored across the diagonal and
    zero on it, matching the plotting convention for correlation maps."""
    n_e = basis.n_qubits
    grid = np.zeros((n_e, n_e))
    w = np.abs(state.pair_block()) ** 2
    grid[basis.i_index - 1, basis.j_index - 1] = w
    grid[basis.j_index - 1, basis.i_index - 1] = w
    return grid


def initial_state(kind: str, basis: PairBasis) -> WavepacketState:
    """Normalized partially or fully symmetric two-excitation state."""
    n_e = basis.n_qubits
    coeff = np.zeros(basis.size)
    if kind.lower() == "fs":
        coeff[:] = np.sqrt(2.0 / (n_e * (n_e - 1)))
    elif kind.lower() == "ps":
        nearest = basis.separations == 1
        coeff[nearest] = 1.0 / np.sqrt(n_e - 1)
    else:
        raise BasisMismatch(f"unknown initial state kind {kind!r}; use 'ps' or 'fs'")
    return WavepacketState(coefficients=coeff, time=0.0, dims={"pairs": basis.size})


def overlap_spectrum(psi0: WavepacketState, decomp) -> tuple[np.ndarray, np.ndarray]:
    """Squared projections of psi0 on each eigenstate, sorted by energy."""
    if psi0.dims != decomp.dims:
        raise BasisMismatch(f"state on {psi0.dims}, decomposition on {decomp.dims}")
    weights = np.abs(decomp.vectors.conj().T @ psi0.coefficients) ** 2
    return decomp.energies.copy(), weights


def photonic_fraction(state: WavepacketState) -> float:
    """Total weight outside the qubit-pair block, for photon-carrying bases."""
    if "pairs" not in state.dims or len(state.dims) < 2:
        raise BasisMismatch("state basis has no photon sector")
    total = state.norm() ** 2
    return float(total - state.pair_weight())


def loss_estimates(params: SystemParams, kappa: float) -> tuple[float, float]:
    """Photon admixture of the hybridized single-excitation state and the
    resulting effective loss rate (in units of J and J/hbar)."""
    bracket = 0.5 * (-params.delta + np.sqrt(params.u**2 + 16 * J * J)) - 2 * J
    if bracket <= 0:
        raise DomainError(f"loss estimate undefined: band-edge detuning {bracket:g} <= 0")
    p_ph = params.g**2 / (4 * np.sqrt(J)) * bracket ** (-1.5)
    return float(p_ph), float(p_ph * kappa)


def distribution_drift(p_a: np.ndarray, p_b: np.ndarray) -> float:
    """Sup-norm distance between cumulative pair-correlation profiles.

    Compares two arrays on their common leading separations; mass beyond
    the shorter range counts through the cumulative tail.
    """
    n = min(len(p_a), len(p_b))
    return float(np.abs(np.cumsum(p_a[:n]) - np.cumsum(p_b[:n])).max())


# ---------------------------------------------------------------------------
# droplet classification
# ---------------------------------------------------------------------------


@dataclass
class DropletClassification:
    """Which eigenstates are droplet-like, with their mode assignment."""

    indices: np.ndarray          # 1-based positions in ascending energy order
    mode_numbers: np.ndarray     # best-matching variational mode per state
    overlaps: np.ndarray         # squared overlap with the variational span
    supported: bool              # False when the ansatz is array-size limited

    @property
    def count(self) -> int:
        return len(self.indices)


def classify_droplet_states(decomp, variational, reference=None) -> DropletClassification:
    """Label eigenstates whose projection onto the variational span is large.

    A droplet family must be self bound, so when a reference optimization
    on an enlarged qubit array is supplied and its optimal length grew by
    more than DROPLET_GROWTH_TOL, no state is labeled droplet-like: the
    ansatz is then tracking the array size rather than an intrinsic length.
    """
    _require_pairs(decomp.dims, "droplet classification runs on the spin-model decomposition")
    if reference is not None:
        growth = reference.length / variational.length - 1.0
        if growth > DROPLET_GROWTH_TOL:
            empty = np.array([], dtype=int)
            return DropletClassification(
                indices=empty, mode_numbers=empty, overlaps=np.array([]), supported=False
            )
    span = variational.coefficients
    proj = span.T @ decomp.vectors            # (n_max, n_states)
    totals = np.sum(np.abs(proj) ** 2, axis=0)
    hits = np.nonzero(totals > DROPLET_OVERLAP)[0]
    modes = np.argmax(np.abs(proj[:, hits]) ** 2, axis=0) + 1 if len(hits) else np.array([], int)
    return DropletClassification(
        indices=hits + 1,
        mode_numbers=np.asarray(modes, dtype=int),
        overlaps=totals[hits],
        supported=True,
    )


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------


def write_pair_corr_csv(record: CorrelationRecord, path):
    write_csv(path, ["alpha", "P"], zip(record.separations, record.probabilities))


def write_overlap_csv(energies, weights, path):
    write_csv(path, ["E_minus_E0b", "weight"], zip(energies, weights))


def write_dynamics_csv(times, series: dict, path):
    """Columns: t then one P_alpha<k> column per requested separation."""
    keys = sorted(series)
    write_csv(
        path,
        ["t"] + [f"P_alpha{k}" for k in keys],
        ([t] + [series[k][row] for k in keys] for row, t in enumerate(times)),
    )


def write_corr_snapshot_csv(grid: np.ndarray, path):
    n_e = grid.shape[0]
    write_csv(
        path,
        ["i", "j", "P"],
        ((i + 1, j + 1, grid[i, j]) for i in range(n_e) for j in range(n_e)),
    )
