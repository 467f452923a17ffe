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


def _largest_row_norm(m: np.ndarray) -> float:
    return float(np.sqrt((m.real**2 + m.imag**2).sum(axis=1).max()))


def pair_hop_matrix(
    params: SystemParams, pair_bound: np.ndarray, bands: BathBands
) -> np.ndarray:
    """Second-elimination pair-hop matrix on the pair basis.

    Equals -(g^4 / (N J^2)) Re(A A^H) with A = pair_bound / sqrt(pair
    detuning).  With the real bound-state phase convention column -K of A is
    column K conjugated, up to one phase, so A A^H is real and the pairs
    (K, -K) add up to twice Re(A_K A_K^H).  The matrix is therefore formed
    over K >= 0 alone, in real arithmetic, as the Gram product X X^T with
    X = [Re A_+ W, Im A_+ W], A_+ the columns K >= 0 and W weight 1 at K = 0
    and sqrt(2) above: exactly symmetric, negative semidefinite, N + 1 real
    columns.

    The pairing is checked in O(P N) instead of forming Im(A A^H).  Each
    column -K (K = 0 included) is aligned with column K conjugated by one
    phase, which keeps the check gauge invariant; D is what is left.  With
    delta the largest row norm of D and alpha that of A, every entry of
    Im(A A^H), and every entry of the Gram product's distance from
    Re(A A^H), is at most 2 alpha delta + delta^2.  A DomainError is raised
    unless that is at most 1e-10 alpha^2, 1e-10 times the largest entry of
    Re(A A^H), which sits on its diagonal.  No P x P complex array is formed.
    """
    if np.any(bands.pair_detunings <= 0):
        raise DomainError("pair detuning not positive for every K; not in the band gap")
    a = pair_bound / np.sqrt(bands.pair_detunings)[None, :]
    prefactor = params.g**4 / (params.n_cavities * J * J)
    zero = bands.grid.zero_index
    plus, minus = a[:, zero:], a[:, zero::-1]  # columns K >= 0 and -K
    phase = np.exp(1j * np.angle(np.einsum("pk,pk->k", plus, minus)))
    delta = _largest_row_norm(minus - plus.conj() * phase)
    alpha = _largest_row_norm(a)
    bound = 2 * alpha * delta + delta * delta
    if bound > 1e-10 * alpha * alpha:
        raise DomainError(
            f"pair-hop matrix unexpectedly complex (max imag up to {prefactor * bound:g}, "
            "columns K and -K not conjugate)"
        )
    weight = np.full(plus.shape[1], np.sqrt(2))
    weight[0] = 1.0
    x = np.concatenate((plus.real * weight, plus.imag * weight), axis=1)
    del a, plus, minus
    y = x @ x.T  # numpy takes x @ x.T to syrk, which mirrors one triangle
    y *= -prefactor
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
