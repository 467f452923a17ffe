"""Bath-mediated effective interactions between qubits.

Eliminating the single-photon states produces three couplings: the
constrained single-qubit hop matrix ``hop`` (closed-form exponential
profile), the pair-to-bound coupling ``pair_bound`` on (pair index x
wavevector), and the bound-to-bound coupling ``bound_bound``.  A second
elimination of the bound band contracts ``pair_bound`` into the pair-hop
matrix ``pair_hop``, a negative semidefinite matrix of rank at most N + 1,
held as its real factor (``PairHopFactor``) and built from row blocks of
``pair_bound`` rather than a quadruple loop.
"""

from __future__ import annotations

import numpy as np

from .bath import BathBands
from .errors import DomainError
from .output import write_csv
from .params import J, PairBasis, SystemParams

# largest pair separation written by the pair-hop block dump
BLOCK_DUMP_MAX_SEPARATION = 9
# pair rows per block read by the pair-hop factor's build
FACTOR_ROWS = 128


def hop_scale_and_length(params: SystemParams) -> tuple[float, float]:
    """Onsite hop energy and exponential fall-off length of the hop matrix."""
    ratio = params.cavity_qubit_detuning / (2 * J)
    if ratio <= 1:
        raise DomainError(
            "qubit inside the single-photon band; single-photon elimination invalid"
        )
    root = np.sqrt(ratio * ratio - 1)
    decay = ratio - root  # exp(-1 / length), lost to rounding far below the band
    if not 0 < decay < 1:
        raise DomainError(
            f"hop fall-off exp(-1/L) = {decay:g} at cavity-qubit detuning "
            f"{params.cavity_qubit_detuning:g}: not resolved in floating point"
        )
    scale = -2 * J * (params.g / (2 * J)) ** 2 / root
    _refuse_underflow(scale, params, "hop scale")
    length = -1.0 / np.log(decay)
    return float(scale), float(length)


def _refuse_underflow(prefactor: float, params: SystemParams, name: str):
    """Refuse a coupling prefactor that rounds to zero while g > 0: the model
    it scales would be exactly zero, and no route should solve it."""
    if prefactor == 0 and params.g > 0:
        raise DomainError(
            f"{name} at g={params.g:g} underflows to zero: not resolved in floating point"
        )


def constrained_hop_matrix(params: SystemParams, positions: np.ndarray) -> np.ndarray:
    """Hop strengths between all qubit pairs, exponential in cavity distance."""
    scale, length = hop_scale_and_length(params)
    dist = np.abs(positions[:, None] - positions[None, :])
    return scale * np.exp(-dist / length)


class PairBoundRows:
    """Couplings between two-excited-qubit kets and bound-pair kets, (P, N)
    complex with one column per center-of-mass wavevector, formed on request
    for any selection of pair rows.  They carry no factor of g; the g^2
    prefactors enter at Hamiltonian assembly.

    Row p, column K holds
      -sum_k (J / (N Delta_k)) [e^{-i k n_i} M^*(k, n_j, K) + (i <-> j)]
    evaluated by first contracting the k sum into T(d, K) =
    sum_k e^{i k d} S_K(k) / Delta_k over the distances d of the pair basis.
    That table and the qubit phases e^{-i k n} are formed once, here; a row
    selection then costs only the elementwise assembly of its rows, whose
    bits do not depend on the selection.  Like an ndarray of the couplings
    it has ``shape`` and gives rows by indexing.
    """

    def __init__(self, params: SystemParams, positions: np.ndarray, basis: PairBasis,
                 bands: BathBands):
        if np.any(bands.single_detunings <= 0):
            raise DomainError("single-photon detuning not positive for every k")
        k = bands.grid.wavevectors
        weighted = bands.profiles / bands.single_detunings[:, None]
        self._i0, self._j0 = basis.i_index - 1, basis.j_index - 1
        # one row of T per distance n_j - n_i present in the pair basis
        dist_vals, self._distance = np.unique(
            positions[self._j0] - positions[self._i0], return_inverse=True
        )
        self._table = np.exp(1j * np.outer(dist_vals, k)) @ weighted
        # rows e^{-i k n_j} and e^{-i k n_i} are taken from one table per qubit
        self._phases = np.exp(-1j * np.outer(positions, k))
        self._scale = -(np.sqrt(2) * J / params.n_cavities)
        self.shape = (basis.size, len(k))

    def __getitem__(self, rows) -> np.ndarray:
        t_pair = self._table[self._distance[rows]]
        out = self._phases[self._j0[rows]]
        out *= t_pair
        t_pair = np.conjugate(t_pair, out=t_pair)
        t_pair *= self._phases[self._i0[rows]]
        out += t_pair
        out *= self._scale
        return out


def pair_bound_couplings(
    params: SystemParams, positions: np.ndarray, basis: PairBasis, bands: BathBands
) -> np.ndarray:
    """Every row of the pair-to-bound couplings, (P, N) complex; see
    ``PairBoundRows``."""
    return PairBoundRows(params, positions, basis, bands)[:]


def bound_bound_couplings(
    params: SystemParams, positions: np.ndarray, bands: BathBands
) -> np.ndarray:
    """Couplings between bound-pair kets with different wavevectors."""
    if np.any(bands.single_detunings <= 0):
        raise DomainError("single-photon detuning not positive for every k")
    n = params.n_cavities
    k = bands.grid.wavevectors
    cross = bands.profiles.T @ (bands.profiles / bands.single_detunings[:, None])
    phases = np.exp(1j * np.outer(positions, k))
    geometry = phases.conj().T @ phases  # sum_j e^{i n_j (K' - K)}
    return -(2 * J / n) * geometry * cross


def _largest_row_norm_squared(m: np.ndarray) -> float:
    return float((m.real**2 + m.imag**2).sum(axis=1).max())


class PairHopFactor:
    """The pair-hop matrix -c X X^T, held as its real (P, N + 1) factor X and
    the scale c > 0 (see ``pair_hop_factor``).

    ``@`` applies -c X (X^T v) without forming the matrix; ``toarray()``
    forms it, O(P^2) bytes."""

    def __init__(self, x: np.ndarray, scale: float):
        self.x = x
        self.scale = scale

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return -self.scale * (self.x @ (self.x.T @ v))

    def expectations(self, vecs: np.ndarray) -> np.ndarray:
        """<v|Y|v> = -c ||X^T v||^2 for each column v of ``vecs``."""
        xv = self.x.T @ vecs
        return -self.scale * (xv.real**2 + xv.imag**2).sum(axis=0)

    def toarray(self) -> np.ndarray:
        y = self.x @ self.x.T  # numpy takes x @ x.T to syrk, which mirrors one triangle
        y *= -self.scale
        return y


def pair_hop_factor(params: SystemParams, pair_bound, bands: BathBands) -> PairHopFactor:
    """Second-elimination pair-hop matrix on the pair basis, as its factor.

    The matrix is -(g^4 / (N J^2)) Re(A A^H) with A = pair_bound / sqrt(pair
    detuning).  With the real bound-state phase convention column -K of A is
    column K conjugated, up to one phase, so A A^H is real and the pairs
    (K, -K) add up to twice Re(A_K A_K^H).  It is therefore the Gram product
    -c X X^T over K >= 0 alone, in real arithmetic, with X = [Re A_+ W,
    Im A_+ W], A_+ the columns K >= 0 and W weight 1 at K = 0 and sqrt(2)
    above: exactly symmetric, negative semidefinite, N + 1 real columns.

    ``pair_bound`` is the (P, N) couplings or anything that gives their rows
    by slicing, such as ``PairBoundRows``.  It is read ``FACTOR_ROWS`` rows at
    a time, so neither A nor the P x P matrix is formed; each row of X has
    the bits it has when the whole of A is formed at once.

    The pairing is checked in O(P N) instead of forming Im(A A^H).  Each
    column -K (K = 0 included) is aligned with column K conjugated by one
    phase, which keeps the check gauge invariant; D is what is left.  The
    phases sum over every row, so the rows are read a second time for D.
    With delta the largest row norm of D and alpha that of A, every entry of
    Im(A A^H), and every entry of the Gram product's distance from
    Re(A A^H), is at most 2 alpha delta + delta^2.  A DomainError is raised
    unless that is at most 1e-10 alpha^2, 1e-10 times the largest entry of
    Re(A A^H), which sits on its diagonal.
    """
    if np.any(bands.pair_detunings <= 0):
        raise DomainError("pair detuning not positive for every K; not in the band gap")
    root = np.sqrt(bands.pair_detunings)[None, :]
    prefactor = params.g**4 / (params.n_cavities * J * J)
    _refuse_underflow(prefactor, params, "pair-hop scale")
    zero = bands.grid.zero_index
    n_pairs, n_k = pair_bound.shape
    width = n_k - zero  # columns K >= 0
    weight = np.full(width, np.sqrt(2))
    weight[0] = 1.0
    blocks = [slice(start, start + FACTOR_ROWS) for start in range(0, n_pairs, FACTOR_ROWS)]
    x = np.empty((n_pairs, 2 * width))
    overlap = np.zeros(width, dtype=complex)
    alpha2 = 0.0
    for rows in blocks:
        a = pair_bound[rows] / root
        plus, minus = a[:, zero:], a[:, zero::-1]  # columns K >= 0 and -K
        overlap += np.einsum("pk,pk->k", plus, minus)
        alpha2 = max(alpha2, _largest_row_norm_squared(a))
        x[rows, :width] = plus.real * weight
        x[rows, width:] = plus.imag * weight
    phase = np.exp(1j * np.angle(overlap))
    delta2 = 0.0
    for rows in blocks:
        a = pair_bound[rows] / root
        residue = a[:, zero::-1] - a[:, zero:].conj() * phase
        delta2 = max(delta2, _largest_row_norm_squared(residue))
    alpha, delta = np.sqrt(alpha2), np.sqrt(delta2)
    bound = 2 * alpha * delta + delta * delta
    if bound > 1e-10 * alpha * alpha:
        raise DomainError(
            f"pair-hop matrix unexpectedly complex (max imag up to {prefactor * bound:g}, "
            "columns K and -K not conjugate)"
        )
    return PairHopFactor(x, prefactor)


def write_hop_csv(hop: np.ndarray, path):
    n_e = hop.shape[0]
    write_csv(
        path,
        ["j", "l", "W"],
        ((j + 1, l + 1, hop[j, l]) for j in range(n_e) for l in range(n_e)),
    )


def write_pair_hop_blocks_csv(pair_hop: np.ndarray, basis: PairBasis, path):
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
             pair_hop[p, q])
            for a, p in enumerate(keep)
            for b, q in enumerate(keep)
        ),
    )
