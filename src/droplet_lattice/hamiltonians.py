"""Hermitian model Hamiltonians on tagged bases.

Every matrix is assembled in the frame rotating at twice the qubit
frequency, so diagonals are detunings and eigenvalues are reported as
E - E_0b (energy above the bottom of the bound band) by adding the
two-excitation detuning as a constant offset.

Basis layouts
-------------
A model's ``dims`` maps each block of its basis, in order, to its size; the
keys alone tell the layouts apart.

pairs                         spin models: pair kets only,
                              P = N_e (N_e - 1) / 2
pairs, bound                  adiabatic: pairs then bound-pair kets, P + N
pairs, qubit_photon, bound    explicit photon: pairs, qubit-photon kets
                              (qubit index major, wavevector minor), then
                              bound kets, P + N_e N + N
pairs, qubit_photon,          complete sector: pairs, qubit-photon kets
photon_pairs                  with a real-space photon, then symmetrized
                              photon-pair kets |n <= m>,
                              P + N_e N + N (N + 1) / 2
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .bath import BathBands
from .couplings import EffectiveCouplings, bound_bound_couplings, pair_bound_couplings
from .errors import BasisMismatch, SizeError
from .oracles import photon_pair_index, single_photon_sector, two_photon_ring
from .output import atomic_open
from .params import J, PairBasis, SystemParams

COMPLETE_DIM_CAP = 40_000
EXPORT_NNZ_CAP = 20_000_000
HERMITICITY_PROBES = 4


class FullOperator:
    """Matrix-free two-excitation Hamiltonian with truncation to bound pairs.

    Keeps the pair block implicit through the qubit-photon couplings; a
    matvec costs a handful of (N_e x N) by (N x N) products, so iterative
    eigensolvers handle the production array sizes without ever forming
    the 3e7-nonzero sparse matrix.

    In block form H = [[A, B], [B^H, D]] with A on pairs and bound kets
    (zero on pairs, the pair detunings on bound kets, no pair-bound
    entries), D the diagonal single-photon detunings on the qubit-photon
    kets, and B the qubit-photon couplings.  ``_absorb`` applies B and
    ``_emit`` applies B^H.

    Like an ndarray it has ``shape``, ``dtype`` and ``@`` (column by column
    on a block); ARPACK applies it through ``matvec``.
    """

    def __init__(self, params: SystemParams, positions, basis: PairBasis, bands: BathBands):
        self.params = params
        self.positions = np.asarray(positions)
        self.basis = basis
        self.bands = bands
        n, n_e, p = params.n_cavities, params.n_qubits, basis.size
        self.dim = p + n_e * n + n
        self.shape = (self.dim, self.dim)
        self.dtype = np.dtype(complex)
        self._phases = np.exp(1j * np.outer(self.positions, bands.grid.wavevectors))
        self._i0 = basis.i_index - 1
        self._j0 = basis.j_index - 1
        self._pair_slice = slice(0, p)
        self._photon_slice = slice(p, p + n_e * n)
        self._bound_slice = slice(p + n_e * n, self.dim)

    def _split(self, v: np.ndarray):
        n, n_e = self.params.n_cavities, self.params.n_qubits
        return v[self._pair_slice], v[self._photon_slice].reshape(n_e, n), v[self._bound_slice]

    def _absorb(self, c: np.ndarray):
        """Pair and bound components of B c for qubit-photon amplitudes c."""
        n, g = self.params.n_cavities, self.params.g
        phases = self._phases
        emit = phases @ c.T  # emit[a, b] = sum_k e^{i k n_a} c_{b k}
        pairs = (g / np.sqrt(n)) * (emit[self._i0, self._j0] + emit[self._j0, self._i0])
        absorb = (phases * c) @ self.bands.profiles
        bound = (g / n) * np.sqrt(2) * (phases.conj() * absorb).sum(axis=0)
        return pairs, bound

    def _emit(self, d: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Qubit-photon components of B^H (d, b) for pair and bound amplitudes."""
        n, n_e, g = self.params.n_cavities, self.params.n_qubits, self.params.g
        phases = self._phases
        dmat = np.zeros((n_e, n_e), dtype=complex)
        dmat[self._i0, self._j0] = d
        dmat[self._j0, self._i0] = d
        oc = (g / np.sqrt(n)) * (dmat @ phases.conj())
        bound_in = (phases * b[None, :]) @ self.bands.profiles.T
        oc += (g / n) * np.sqrt(2) * phases.conj() * bound_in
        return oc

    def matvec(self, v: np.ndarray) -> np.ndarray:
        d, c, b = self._split(v)
        pairs, bound = self._absorb(c)
        oc = self.bands.single_detunings[None, :] * c + self._emit(d, b)
        return np.concatenate([pairs, oc.ravel(), self.bands.pair_detunings * b + bound])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if v.ndim == 1:
            return self.matvec(v)
        return np.column_stack([self.matvec(col) for col in v.T])

    def schur_complement(self, sigma: float) -> np.ndarray:
        """Dense A - sigma - B (D - sigma)^-1 B^H on pairs then bound kets.

        This is the first elimination step of the spin-model derivation made
        exact at energy sigma (Loewdin partitioning): the single-photon
        detunings are shifted by sigma, the hop is the finite-ring lattice
        sum rather than the infinite-lattice closed form, and the pair-bound
        and bound-bound blocks come from the same contractions as the
        effective couplings.  Needs sigma below every single-photon
        detuning.
        """
        params, positions = self.params, self.positions
        n, g = params.n_cavities, params.g
        bands = replace(self.bands, single_detunings=self.bands.single_detunings - sigma)
        hop = -(g * g / n) * ((self._phases / bands.single_detunings) @ self._phases.conj().T)
        # this operator's pair-bound phases are the complex conjugate of the
        # adiabatic model's, which pair_bound_couplings follows
        pair_bound = pair_bound_couplings(params, positions, self.basis, bands)
        bound_bound = bound_bound_couplings(params, positions, bands)
        s = _pairs_plus_bound(hop.real, pair_bound.conj(), bound_bound, self.basis, params, bands)
        s[np.diag_indices_from(s)] -= sigma
        return s

    def lower_bound(self) -> float:
        """A lower bound of the lowest eigenvalue, from the Schur complement at 0.

        Every eigenvalue of S(sigma) falls with slope at most -1 in sigma, and
        H has an eigenvalue where S(sigma) turns singular, so
        sigma + min(0, lambda_min S(sigma)) lies at or below the lowest
        eigenvalue; sigma = 0 is below every single-photon detuning.
        """
        low = eigh(self.schur_complement(0.0), eigvals_only=True, subset_by_index=[0, 0])
        return min(float(low[0]), 0.0)

    def shift_invert(self, sigma: float) -> "ShiftInvert":
        """(H - sigma)^-1 with sigma stepped down until it lies below the spectrum.

        Given D - sigma > 0, H - sigma has as many negative eigenvalues as
        S(sigma) (Haynsworth inertia), so a Cholesky factorization of
        S(sigma) that succeeds proves sigma lies below every eigenvalue.
        """
        floor = float(self.bands.single_detunings.min())
        step = 1e-3 * max(abs(sigma), 1e-9)
        while True:
            if sigma < floor:
                try:
                    factor = cho_factor(self.schur_complement(sigma), lower=True)
                    return ShiftInvert(self, sigma, factor)
                except LinAlgError:
                    pass
            sigma -= step
            step *= 2

    def to_sparse(self) -> sp.csr_matrix:
        """Explicit sparse matrix; guarded against production array sizes."""
        params, basis = self.params, self.basis
        n, n_e, p = params.n_cavities, params.n_qubits, basis.size
        nnz = p * 4 * n + n_e * n * (n_e + 2 * n) + self.dim
        if nnz > EXPORT_NNZ_CAP:
            raise SizeError(f"sparse form would hold ~{nnz} nonzeros")
        g = params.g
        phases = self._phases
        rows, cols, vals = [], [], []

        def qp(i0, kidx):
            return p + i0 * n + kidx

        kcols = np.arange(n)
        for q in range(p):
            a, bq = self._i0[q], self._j0[q]
            for keep, flip in ((a, bq), (bq, a)):
                amp = (g / np.sqrt(n)) * phases[flip]
                rows.extend([q] * n)
                cols.extend(qp(keep, kcols))
                vals.extend(amp)
                rows.extend(qp(keep, kcols))
                cols.extend([q] * n)
                vals.extend(np.conj(amp))
        for i0 in range(n_e):
            mb = np.sqrt(2) * np.exp(
                1j
                * self.positions[i0]
                * (self.bands.grid.wavevectors[None, :] - self.bands.grid.wavevectors[:, None])
            ) * self.bands.profiles
            block = (g / n) * mb
            r_idx, c_idx = np.nonzero(np.ones_like(block, dtype=bool))
            rows.extend(qp(i0, r_idx))
            cols.extend(p + n_e * n + c_idx)
            vals.extend(block[r_idx, c_idx])
            rows.extend(p + n_e * n + c_idx)
            cols.extend(qp(i0, r_idx))
            vals.extend(np.conj(block[r_idx, c_idx]))
        # pair-block diagonal is zero in the rotating frame; skip those slots
        diag = np.concatenate(
            [np.tile(self.bands.single_detunings, n_e), self.bands.pair_detunings]
        )
        rows.extend(range(p, self.dim))
        cols.extend(range(p, self.dim))
        vals.extend(diag)
        return sp.coo_matrix(
            (np.asarray(vals, complex), (np.asarray(rows), np.asarray(cols))),
            shape=(self.dim, self.dim),
        ).tocsr()


class ShiftInvert:
    """Exact (H - sigma)^-1 for a ``FullOperator``, from a factored Schur complement.

    One application eliminates the qubit-photon kets with (D - sigma)^-1,
    solves the pairs-plus-bound system with the Cholesky factor, and
    back-substitutes; it uses the operator's own coupling products, so it
    never forms the qubit-photon blocks.  Applied with ``@`` like the operator.
    """

    def __init__(self, op: FullOperator, sigma: float, factor):
        self.op = op
        self.sigma = sigma
        self.factor = factor
        self.shape = op.shape
        self.dtype = op.dtype
        self._detunings = op.bands.single_detunings[None, :] - sigma

    __matmul__ = FullOperator.__matmul__

    def matvec(self, v: np.ndarray) -> np.ndarray:
        op = self.op
        p = op.basis.size
        d, c, b = op._split(v)
        t = c / self._detunings
        pairs, bound = op._absorb(t)
        y = cho_solve(self.factor, np.concatenate([d - pairs, b - bound]), check_finite=False)
        oc = t - op._emit(y[:p], y[p:]) / self._detunings
        return np.concatenate([y[:p], oc.ravel(), y[p:]])


Payload = Union[np.ndarray, sp.spmatrix, sp.sparray, FullOperator]


@dataclass
class HamiltonianMatrix:
    """A Hermitian operator (any payload with shape, dtype and @) and its metadata."""

    payload: Payload = field(repr=False)
    energy_offset: float
    dims: dict
    pair_basis: Optional[PairBasis] = None

    @property
    def dim(self) -> int:
        return self.payload.shape[0]


def _require_pairs(dims: dict, message: str, error=BasisMismatch):
    """Raise ``error(message)`` unless ``dims`` is the pair basis alone."""
    if list(dims) != ["pairs"]:
        raise error(message)


def _pair_model(payload: Payload, basis: PairBasis, params: SystemParams) -> HamiltonianMatrix:
    """A spin model: the payload on the pair basis alone."""
    return HamiltonianMatrix(
        payload=payload, energy_offset=params.delta, dims={"pairs": basis.size}, pair_basis=basis
    )


def _constrained_hop_payload(w: np.ndarray, basis: PairBasis) -> sp.csr_array:
    """Pair-basis matrix of the constrained hop with strengths w[j, l], as CSR.

    Row {i, j} holds its diagonal w[i, i] + w[j, j] and, for each of the
    N_e - 2 unexcited qubits l, the hops to {l, j} (strength w[i, l]) and to
    {i, l} (strength w[l, j]): 2 N_e - 3 distinct columns in every row.  So
    the CSR arrays are filled as (P, 2 N_e - 3) blocks and sorted along their
    rows, with no P x P array on the way.  Zero strengths are not stored."""
    n_e, p = basis.n_qubits, basis.size
    i, j = basis.i_index - 1, basis.j_index - 1
    width = 2 * n_e - 3
    index = sp.get_index_dtype(maxval=p * width)
    rows = np.arange(p, dtype=index)
    table = np.zeros((n_e, n_e), dtype=index)  # pair index of qubits {i, j}
    table[i, j] = table[j, i] = rows
    data, indices = np.empty((p, width)), np.empty((p, width), dtype=index)
    data[:, 0], indices[:, 0] = w[i, i] + w[j, j], rows
    # the unexcited qubits of each row, ascending: skip i, then j (i < j)
    i, j = i[:, None], j[:, None]
    others = np.broadcast_to(np.arange(n_e - 2), (p, n_e - 2))
    others = others + (others >= i)
    others += others >= j
    data[:, 1:n_e - 1], indices[:, 1:n_e - 1] = w[i, others], table[others, j]
    data[:, n_e - 1:], indices[:, n_e - 1:] = w[others, j], table[i, others]
    del others  # free it before the sort's temporaries
    data = np.take_along_axis(data, np.argsort(indices, axis=1), axis=1)
    indices.sort(axis=1)
    h = sp.csr_array((data.ravel(), indices.ravel(), np.arange(p + 1, dtype=index) * width),
                     shape=(p, p))
    h.eliminate_zeros()
    return h


def build_constrained_hop(
    couplings: EffectiveCouplings, basis: PairBasis, params: SystemParams
) -> HamiltonianMatrix:
    """Constrained single-excitation hop model on the pair basis.

    Each pair ket couples to the 2(N_e - 2) kets sharing one excited
    qubit; the diagonal carries twice the onsite hop energy (the self
    interaction of each excitation).  The payload is a CSR array.
    """
    return _pair_model(_constrained_hop_payload(couplings.hop, basis), basis, params)


def build_unconstrained_hop(
    couplings: EffectiveCouplings, basis: PairBasis, params: SystemParams
) -> HamiltonianMatrix:
    """Two-magnon sector of the unconstrained flip-flop model (twice the
    hop matrix contracted with sigma+ sigma-).

    On the pair basis this is exactly twice the constrained ``single``
    payload: both move one excitation to an unexcited qubit with the
    symmetric hop strength and put the two onsite hop energies on the
    diagonal, the flip-flop model with twice the weight.
    ``oracles.unconstrained_hop_by_strings`` builds it independently.
    """
    return _pair_model(2 * _constrained_hop_payload(couplings.hop, basis), basis, params)


def build_pair_hop(
    couplings: EffectiveCouplings, basis: PairBasis, params: SystemParams
) -> HamiltonianMatrix:
    return _pair_model(couplings.pair_hop.copy(), basis, params)


def build_spin_model(
    couplings: EffectiveCouplings, basis: PairBasis, params: SystemParams
) -> HamiltonianMatrix:
    single = build_constrained_hop(couplings, basis, params)
    # CSR plus dense adds the stored entries onto one copy of the pair hop
    return _pair_model(single.payload + couplings.pair_hop, basis, params)


def _pairs_plus_bound(
    hop: np.ndarray,
    pair_bound: np.ndarray,
    bound_bound: Optional[np.ndarray],
    basis: PairBasis,
    params: SystemParams,
    bands: BathBands,
) -> np.ndarray:
    """[[constrained hop, c pair_bound], [h.c., diag(pair detunings) + c' bound_bound]]
    on pairs then bound kets, c = g^2 / (J sqrt N) and c' = g^2 / (N J); the
    bound-bound term is left out when ``bound_bound`` is None."""
    n, p, g = params.n_cavities, basis.size, params.g
    h = np.zeros((p + n, p + n), dtype=complex)
    single = _constrained_hop_payload(hop, basis).tocoo()
    h[single.row, single.col] = single.data
    h[:p, p:] = (g * g / (J * np.sqrt(n))) * pair_bound
    h[p:, :p] = h[:p, p:].conj().T
    h[p:, p:] = np.diag(bands.pair_detunings)
    if bound_bound is not None:
        h[p:, p:] += (g * g / (n * J)) * bound_bound
    return h


def build_adiabatic_model(
    couplings: EffectiveCouplings,
    basis: PairBasis,
    params: SystemParams,
    bands: BathBands,
    bound_bound: Optional[np.ndarray] = None,
) -> HamiltonianMatrix:
    """Intermediate model after one elimination step: pairs plus bound kets.

    ``bound_bound`` (from ``couplings.bound_bound_couplings``) adds the
    bound-to-bound block; without it that block is dropped.
    """
    h = _pairs_plus_bound(couplings.hop, couplings.pair_bound, bound_bound, basis, params, bands)
    return HamiltonianMatrix(
        payload=h,
        energy_offset=params.delta,
        dims={"pairs": basis.size, "bound": params.n_cavities},
        pair_basis=basis,
    )


def build_full_model(
    params: SystemParams, positions, basis: PairBasis, bands: BathBands
) -> HamiltonianMatrix:
    """Two-excitation model with explicit photons, truncated to bound pairs."""
    op = FullOperator(params, positions, basis, bands)
    return HamiltonianMatrix(
        payload=op,
        energy_offset=params.delta,
        dims={
            "pairs": basis.size,
            "qubit_photon": params.n_qubits * params.n_cavities,
            "bound": params.n_cavities,
        },
        pair_basis=basis,
    )


def build_complete_sector(params: SystemParams, positions, basis: PairBasis) -> HamiltonianMatrix:
    """Literal two-excitation sector with all photon-pair states.

    Validation reference for the bound-pair truncation.  Its photon blocks
    are the bath oracles: each qubit carries the one-photon ring plus the
    cavity-qubit detuning, and the photon pairs (symmetrized real-space
    kets |n <= m> with the sqrt(2) normalization on doubly occupied sites)
    carry the two-photon ring plus twice that detuning, so this block
    reproduces both the scattering continuum and the bound band of the bath.
    """
    n, n_e, p = params.n_cavities, params.n_qubits, basis.size
    n_pp = n * (n + 1) // 2
    dim = p + n_e * n + n_pp
    if dim > COMPLETE_DIM_CAP:
        raise SizeError(f"complete sector dimension {dim} exceeds cap {COMPLETE_DIM_CAP}")
    positions = np.asarray(positions)
    g, det = params.g, params.cavity_qubit_detuning
    one_photon = single_photon_sector(params) + det * np.eye(n)
    photons = sp.kron(sp.identity(n_e), one_photon, format="csr")
    photon_pairs = two_photon_ring(params) + 2 * det * sp.identity(n_pp)
    # pair (i, j) -> qubit i excited with a photon in qubit j's cavity, and i <-> j
    i0, j0 = basis.i_index - 1, basis.j_index - 1
    cols = np.concatenate([i0 * n + positions[j0], j0 * n + positions[i0]]) - 1
    emit = sp.coo_matrix((np.full(2 * p, g), (np.tile(np.arange(p), 2), cols)), shape=(p, n_e * n))
    # qubit at cavity `at` with a photon at `site` -> photon pair |site, at>
    site, at = np.tile(np.arange(1, n + 1), n_e), np.repeat(positions, n)
    cols = photon_pair_index(n, np.minimum(site, at), np.maximum(site, at))
    amps = g * np.where(site == at, np.sqrt(2), 1.0)
    absorb = sp.coo_matrix((amps, (np.arange(n_e * n), cols)), shape=(n_e * n, n_pp))
    h = sp.bmat(
        [[None, emit, None], [emit.T, photons, absorb], [None, absorb.T, photon_pairs]],
        format="csr",
    )
    return HamiltonianMatrix(
        payload=h,
        energy_offset=params.delta,
        dims={"pairs": p, "qubit_photon": n_e * n, "photon_pairs": n_pp},
        pair_basis=basis,
    )


def export_triplets(h: HamiltonianMatrix, path):
    """Write the matrix as text triplets: row col re im, one entry per line."""
    payload = h.payload
    coo = sp.coo_matrix(payload.to_sparse() if isinstance(payload, FullOperator) else payload)
    if coo.nnz > EXPORT_NNZ_CAP:
        raise SizeError(f"{coo.nnz} nonzeros exceed the export cap")
    with atomic_open(path) as fh:
        fh.write("# row col re im\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            v = complex(v)
            fh.write(f"{r} {c} {v.real:.16e} {v.imag:.16e}\n")


def hermiticity_defect(h: HamiltonianMatrix) -> float:
    """Max deviation from Hermiticity, relative to the largest entry.

    Dense and sparse payloads are checked exactly; the matrix-free
    ``FullOperator`` is probed with ``HERMITICITY_PROBES`` fixed
    pseudo-random vector pairs, the one check that scales to production
    array sizes.
    """
    payload = h.payload
    if isinstance(payload, FullOperator):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(HERMITICITY_PROBES):
            a = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
            b = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
            lhs = np.vdot(b, payload @ a)
            rhs = np.vdot(payload @ b, a)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        return worst
    return float(abs(payload - payload.conj().T).max() / (abs(payload).max() or 1.0))
