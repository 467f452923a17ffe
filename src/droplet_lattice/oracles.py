"""Brute-force reference constructions.

These deliberately avoid the optimized assembly paths: spin models are
built from literal operator strings on the 2^N_e qubit space, the bath
sectors from the raw tight-binding model, and the pair-hop matrix from
an explicit wavevector loop.  They exist to arbitrate conventions and
stay independent of the code they check.  The bath sectors are also the
photon blocks of the complete-sector model, itself a reference for the
bound-pair truncation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .bath import BathBands
from .errors import SizeError
from .params import J, PairBasis, SystemParams

OPERATOR_STRING_CAP = 10  # 2^10 qubit space is the practical limit here
BATH_SECTOR_CAP = 61  # cavities; the two-photon sector is dense and O(N^2) wide


def ladder_operators(n_qubits: int) -> tuple[list, list]:
    """Raising and lowering operators for each qubit on 2^N_e, as CSR arrays."""
    if n_qubits > OPERATOR_STRING_CAP:
        raise SizeError(f"operator strings limited to {OPERATOR_STRING_CAP} qubits")
    raise_1 = sp.csr_array([[0.0, 0.0], [1.0, 0.0]])  # |e><g| with |g> = (1, 0)
    ups, downs = [], []
    for site in range(n_qubits):
        op = sp.csr_array([[1.0]])
        for slot in range(n_qubits):
            op = sp.kron(op, raise_1 if slot == site else sp.eye_array(2), format="csr")
        ups.append(op)
        downs.append(op.T)
    return ups, downs


def two_excitation_injector(basis: PairBasis) -> np.ndarray:
    """Isometry from the pair basis into the 2^N_e qubit space."""
    n_e = basis.n_qubits
    inj = np.zeros((2**n_e, basis.size))
    for p in range(basis.size):
        i, j = basis.decode(p)
        state = (1 << (n_e - i)) | (1 << (n_e - j))
        inj[state, p] = 1.0
    return inj


def constrained_hop_by_strings(hop: np.ndarray, basis: PairBasis) -> np.ndarray:
    """Literal triple-sum operator assembly of the constrained hop model,
    projected to the two-excitation sector in pair-basis order."""
    n_e = basis.n_qubits
    ups, downs = ladder_operators(n_e)
    h = np.zeros((2**n_e, 2**n_e))
    for i in range(n_e):
        for j in range(n_e):
            for l in range(n_e):
                h += (0.5 * hop[j, l] * (ups[i] @ ups[j] @ downs[i] @ downs[l])).toarray()
                h += (0.5 * hop[i, l] * (ups[i] @ ups[j] @ downs[l] @ downs[j])).toarray()
    inj = two_excitation_injector(basis)
    return inj.T @ h @ inj


def unconstrained_hop_by_strings(hop: np.ndarray, basis: PairBasis) -> np.ndarray:
    """Two-magnon sector of twice the quadratic flip-flop model."""
    n_e = basis.n_qubits
    ups, downs = ladder_operators(n_e)
    h = np.zeros((2**n_e, 2**n_e))
    for i in range(n_e):
        for j in range(n_e):
            h += (2.0 * hop[i, j] * (ups[i] @ downs[j])).toarray()
    inj = two_excitation_injector(basis)
    return inj.T @ h @ inj


def pair_hop_by_strings(pair_hop: np.ndarray, basis: PairBasis) -> np.ndarray:
    """Literal quadruple-sum assembly of the pair-hop model."""
    n_e = basis.n_qubits
    ups, downs = ladder_operators(n_e)
    h = np.zeros((2**n_e, 2**n_e))
    for p in range(basis.size):
        i, j = basis.decode(p)
        for q in range(basis.size):
            l, m = basis.decode(q)
            h += (pair_hop[p, q] * (
                ups[i - 1] @ ups[j - 1] @ downs[l - 1] @ downs[m - 1]
            )).toarray()
    inj = two_excitation_injector(basis)
    return inj.T @ h @ inj


def single_photon_sector(params: SystemParams) -> np.ndarray:
    """One-photon block of the bath model on the ring."""
    n = params.n_cavities
    h = np.zeros((n, n))
    for site in range(n):
        h[site, (site + 1) % n] = -J
        h[(site + 1) % n, site] = -J
    return h


def photon_pair_index(n: int, n1, m1):
    """Row-major upper-triangle index of the photon-pair ket |n1 <= m1>
    (1-based sites) on an n-cavity ring; works elementwise on arrays."""
    return (n1 - 1) * n - (n1 - 1) * (n1 - 2) // 2 + (m1 - n1)


def two_photon_ring(params: SystemParams) -> sp.csr_matrix:
    """Two-photon block of the bath model on the ring, sparse.

    Symmetrized basis |n <= m> with sqrt(2) normalization on n = m; the
    spectrum holds both the scattering continuum and the bound band.
    """
    n, u = params.n_cavities, params.u
    entries = {}
    for n1 in range(1, n + 1):
        for m1 in range(n1, n + 1):
            src = photon_pair_index(n, n1, m1)
            entries[src, src] = u if n1 == m1 else 0.0
            pref = 1 / np.sqrt(2) if n1 == m1 else 1.0
            for u_, v_ in (
                (n1 % n + 1, m1),
                ((n1 - 2) % n + 1, m1),
                (n1, m1 % n + 1),
                (n1, (m1 - 2) % n + 1),
            ):
                key = (src, photon_pair_index(n, min(u_, v_), max(u_, v_)))
                amp = -J * pref * (np.sqrt(2) if u_ == v_ else 1.0)
                entries[key] = entries.get(key, 0.0) + amp
    dim = n * (n + 1) // 2
    rows, cols = zip(*entries)
    return sp.csr_matrix((list(entries.values()), (rows, cols)), shape=(dim, dim))


def two_photon_bath_sector(params: SystemParams) -> np.ndarray:
    """Dense ``two_photon_ring``, for exact diagonalization of the bath."""
    if params.n_cavities > BATH_SECTOR_CAP:
        raise SizeError(f"bath sector oracle limited to {BATH_SECTOR_CAP} cavities")
    return two_photon_ring(params).toarray()


def pair_hop_reference(
    params: SystemParams, pair_bound: np.ndarray, bands: BathBands
) -> np.ndarray:
    """Pair-hop matrix by explicit wavevector summation per entry pair.

    Slow on purpose; restricts to small pair bases.
    """
    p = pair_bound.shape[0]
    if p > 200:
        raise SizeError("reference pair-hop assembly limited to small bases")
    pref = -params.g**4 / (params.n_cavities * J * J)
    out = np.zeros((p, p), dtype=complex)
    inv_det = 1.0 / bands.pair_detunings
    for a in range(p):
        for b in range(p):
            acc = 0.0 + 0.0j
            for col in range(pair_bound.shape[1]):
                acc += pair_bound[a, col] * np.conj(pair_bound[b, col]) * inv_det[col]
            out[a, b] = pref * acc
    return out.real
