"""Bath-mediated effective interactions between qubits.

Eliminating the single-photon states produces three couplings: the
constrained single-qubit hop matrix ``hop`` (closed-form exponential
profile), the pair-to-bound coupling ``pair_bound`` on (pair index x
wavevector), and the bound-to-bound coupling ``bound_bound``.  A second
elimination of the bound band contracts ``pair_bound`` into the pair-hop
matrix ``pair_hop``, assembled as a negative semidefinite rank-structured
product rather than a quadruple loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bath import BathBands, profile_table
from .errors import DomainError
from .output import write_csv
from .params import J, PairBasis, SystemParams

# rows of the pair basis per block of the pair-hop imaginary-part check
_ROW_BLOCK = 256
# largest pair separation written by the pair-hop block dump
BLOCK_DUMP_MAX_SEPARATION = 9


@dataclass(frozen=True)
class EffectiveCouplings:
    """All effective interactions for one parameter set.

    hop : (N_e, N_e) real, constrained single-qubit hop strengths.
    pair_bound : (P, N) complex, pair ket to bound ket couplings, one
        column per center-of-mass wavevector.  Carries no factor of g;
        the g^2 prefactors enter at Hamiltonian assembly.
    pair_hop : (P, P) real symmetric negative semidefinite.
    """

    hop: np.ndarray
    pair_bound: np.ndarray
    pair_hop: np.ndarray


def hop_scale_and_length(params: SystemParams) -> tuple[float, float]:
    """Onsite hop energy and exponential fall-off length of the hop matrix."""
    ratio = params.cavity_qubit_detuning / (2 * J)
    if ratio <= 1:
        raise DomainError(
            "qubit inside the single-photon band; single-photon elimination invalid"
        )
    root = np.sqrt(ratio * ratio - 1)
    scale = -2 * J * (params.g / (2 * J)) ** 2 / root
    length = -1.0 / np.log(ratio - root)
    return float(scale), float(length)


def constrained_hop_matrix(params: SystemParams, positions: np.ndarray) -> np.ndarray:
    """Hop strengths between all qubit pairs, exponential in cavity distance."""
    scale, length = hop_scale_and_length(params)
    dist = np.abs(positions[:, None] - positions[None, :])
    return scale * np.exp(-dist / length)


def pair_bound_couplings(
    params: SystemParams,
    positions: np.ndarray,
    basis: PairBasis,
    bands: BathBands,
    profiles: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Couplings between two-excited-qubit kets and bound-pair kets.

    Row p, column K holds
      -sum_k (J / (N Delta_k)) [e^{-i k n_i} M^*(k, n_j, K) + (i <-> j)]
    evaluated by first contracting the k sum into T(d, K) =
    sum_k e^{i k d} S_K(k) / Delta_k over the needed distances d.
    """
    if np.any(bands.single_detunings <= 0):
        raise DomainError("single-photon detuning not positive for every k")
    n = params.n_cavities
    k = bands.grid.wavevectors
    if profiles is None:
        profiles = profile_table(bands)
    weighted = profiles / bands.single_detunings[:, None]

    i0, j0 = basis.i_index - 1, basis.j_index - 1
    n_i, n_j = positions[i0], positions[j0]
    # distances present in the pair basis: r * spacing for r = 0 ... N_e - 1
    dist_vals = np.unique(n_j - n_i)
    if dist_vals[0] != 0:
        dist_vals = np.concatenate(([0], dist_vals))
    t_table = np.exp(1j * np.outer(dist_vals, k)) @ weighted
    row_of = {int(d): row for row, d in enumerate(dist_vals)}
    rows = np.array([row_of[int(d)] for d in (n_j - n_i)])
    t_pair = t_table[rows, :]
    # rows e^{-i k n_j} and e^{-i k n_i} are taken from one table per qubit
    phases = np.exp(-1j * np.outer(positions, k))
    out = phases[j0]
    out *= t_pair
    t_pair = np.conjugate(t_pair, out=t_pair)
    t_pair *= phases[i0]
    out += t_pair
    out *= -(np.sqrt(2) * J / n)
    return out


def bound_bound_couplings(
    params: SystemParams,
    positions: np.ndarray,
    bands: BathBands,
    profiles: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Couplings between bound-pair kets with different wavevectors."""
    if np.any(bands.single_detunings <= 0):
        raise DomainError("single-photon detuning not positive for every k")
    n = params.n_cavities
    k = bands.grid.wavevectors
    if profiles is None:
        profiles = profile_table(bands)
    cross = profiles.T @ (profiles / bands.single_detunings[:, None])
    phases = np.exp(1j * np.outer(positions, k))
    geometry = phases.conj().T @ phases  # sum_j e^{i n_j (K' - K)}
    return -(2 * J / n) * geometry * cross


def pair_hop_matrix(
    params: SystemParams, pair_bound: np.ndarray, bands: BathBands
) -> np.ndarray:
    """Second-elimination pair-hop matrix on the pair basis.

    Assembled as -(g^4 / (N J^2)) Re(A A^H) with A = pair_bound / sqrt(pair
    detuning).  With the real bound-state phase convention A A^H is real,
    so only the real part is formed, in real arithmetic: Re(A A^H) =
    X X^T with X = [A_r A_i], a Gram product and therefore exactly
    symmetric and negative semidefinite.  The imaginary part Im(A A^H) =
    M - M^T with M = A_i A_r^T is not kept: it is evaluated here in row
    blocks, as [A_i, -A_r] X^T on and above the diagonal, and a
    DomainError is raised if its largest entry exceeds 1e-10 times the
    largest real entry.  No P x P complex array is formed.
    """
    if np.any(bands.pair_detunings <= 0):
        raise DomainError("pair detuning not positive for every K; not in the band gap")
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    x = np.concatenate((a.real, a.imag), axis=1)
    del a
    prefactor = params.g**4 / (params.n_cavities * J * J)
    y = x @ x.T  # numpy takes x @ x.T to syrk, which mirrors one triangle
    y *= -prefactor
    # the largest entry of a Gram matrix sits on its diagonal
    scale = np.abs(np.diagonal(y)).max() or 1.0
    n = pair_bound.shape[1]
    imag_max = 0.0
    for start in range(0, len(x), _ROW_BLOCK):
        rows = x[start : start + _ROW_BLOCK]
        rotated = np.concatenate((rows[:, n:], -rows[:, :n]), axis=1)
        imag_max = max(imag_max, np.abs(rotated @ x[start:].T).max())
    imag_max *= prefactor
    if imag_max > 1e-10 * scale:
        raise DomainError(f"pair-hop matrix unexpectedly complex (max imag {imag_max:g})")
    return y


def build_effective_couplings(
    params: SystemParams,
    positions: np.ndarray,
    basis: PairBasis,
    bands: BathBands,
) -> EffectiveCouplings:
    """Compute the effective interactions of the spin model for one parameter
    set; the bound-to-bound block comes from ``bound_bound_couplings``."""
    profiles = profile_table(bands)
    hop = constrained_hop_matrix(params, positions)
    pair_bound = pair_bound_couplings(params, positions, basis, bands, profiles)
    pair_hop = pair_hop_matrix(params, pair_bound, bands)
    return EffectiveCouplings(hop=hop, pair_bound=pair_bound, pair_hop=pair_hop)


def write_hop_csv(couplings: EffectiveCouplings, path):
    n_e = couplings.hop.shape[0]
    write_csv(
        path,
        ["j", "l", "W"],
        ((j + 1, l + 1, couplings.hop[j, l]) for j in range(n_e) for l in range(n_e)),
    )


def write_pair_hop_blocks_csv(couplings: EffectiveCouplings, basis: PairBasis, path):
    """Pair-hop entries restricted to separations <= BLOCK_DUMP_MAX_SEPARATION.

    Rows follow the block layout of the pair basis itself (ascending
    separation, ascending left index), so the dump can be rendered
    directly as the block-structured contour map.
    """
    keep = np.nonzero(basis.separations <= BLOCK_DUMP_MAX_SEPARATION)[0]
    write_csv(
        path,
        ["row", "col", "i", "j", "l", "h", "Y"],
        (
            (a, b, basis.i_index[p], basis.j_index[p], basis.i_index[q], basis.j_index[q],
             couplings.pair_hop[p, q])
            for a, p in enumerate(keep)
            for b, q in enumerate(keep)
        ),
    )
