"""Eigendecomposition, spectral propagation, perturbation theory, and the
variational droplet ansatz.

All reported eigenvalues are E - E_0b: the rotating-frame eigenvalue plus
the two-excitation detuning carried by the Hamiltonian container.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.blas import dsymv

from .errors import (
    BasisMismatch,
    BracketError,
    ConfigError,
    ConvergenceError,
    DegeneracyWarning,
    SizeError,
)
from .hamiltonians import FullOperator, HamiltonianMatrix, _require_pairs
from .observables import WavepacketState

DENSE_FALLBACK_DIM = 4000
# a dense pair-basis payload from this dimension up, asked for at most this
# many levels, goes to Lanczos: from dim 300 it beats the LAPACK subset up to
# k = 8 (at k = 16 only from dim of about 1000)
LANCZOS_MIN_DIM = 300
LANCZOS_MAX_K = 8
DENSE_BYTES_CAP = 2**30
# payload rows per block of the reflection defect's sum
DEFECT_ROWS = 128
DEGENERACY_GAP = 1e-10
# relative lengths searched by the variational optimization, and its tolerance
VARIATIONAL_BRACKET = (1.0, 30.0)
VARIATIONAL_XATOL = 1e-3


@dataclass
class SpectralDecomposition:
    """Eigenpairs of one Hamiltonian, energies ascending as E - E_0b."""

    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)
    residual_norms: np.ndarray = field(repr=False)
    energy_offset: float
    dims: dict
    solver: dict
    # for a decomposition split by the pair reflection: each level's parity
    # (+1 even, -1 odd) and the reflection as an index map of the pair basis
    parity: Optional[np.ndarray] = field(default=None, repr=False)
    mirror: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def rotating_frame_energies(self) -> np.ndarray:
        return self.energies - self.energy_offset

    def state(self, index: int) -> WavepacketState:
        """Eigenvector ``index`` (0-based, ascending energy) as a state at t = 0."""
        return WavepacketState(coefficients=self.vectors[:, index], time=0.0, dims=self.dims)


def _canonicalize_signs(vectors: np.ndarray, mirror: Optional[np.ndarray] = None) -> np.ndarray:
    """Fix each eigenvector's global phase: largest component positive real.

    Of several components of equal magnitude the first is the pivot.  With
    the reflection ``mirror`` of a pair basis the pivot is the largest
    |v[p]| + |v[mirror[p]]| instead: the two members of an orbit tie bit for
    bit, so the lower index wins whatever rounding does to either, and
    solvers whose vectors differ by rounding agree on the sign.  A state
    lifted from a parity block, whose mirrored components agree in magnitude
    bit for bit, gets the same pivot either way."""
    magnitude = np.abs(vectors)
    if mirror is not None:
        magnitude += magnitude[mirror]
    lead = np.argmax(magnitude, axis=0)
    del magnitude  # an n x n array: free it before the product below
    pivot = vectors[lead, np.arange(vectors.shape[1])]
    if np.iscomplexobj(vectors):
        # hypot, as Python's abs() of a complex scalar; np.abs rounds differently
        mag = np.hypot(pivot.real, pivot.imag)
        nonzero = mag > 0
        factor = np.ones_like(pivot)
        factor[nonzero] = np.conj(pivot[nonzero]) / mag[nonzero]
    else:
        factor = np.where(pivot < 0, -1.0, 1.0)
    return vectors * factor


def _start_vector(dim: int) -> np.ndarray:
    """Fixed pseudo-random ARPACK start vector, so iterative solves repeat bit
    for bit; random rather than constant so that no symmetry sector of the
    operator is missing from it."""
    rng = np.random.default_rng(0)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class _Counted:
    """The operator ARPACK applies (a payload or a shift inverse), as a
    linear operator of its shape and dtype whose products with vectors are
    counted; ``product(v)`` computes them, ``operator @ v`` by default."""

    def __init__(self, operator, product=None):
        self.operator = operator
        self.shape = operator.shape
        self.dtype = operator.dtype
        self.product = product or operator.__matmul__
        self.applications = 0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.applications += 1
        return self.product(v)


def _arpack(op, k: int, ncv: int, **mode):
    """Lowest ``k`` eigenpairs of ``op`` from ARPACK, ascending.

    A real operator gets the real part of the fixed start vector, so ARPACK
    runs its real symmetric routine."""
    dim = op.shape[0]
    ncv = min(dim - 1, ncv)
    if k + 1 >= ncv:
        raise ConfigError(
            f"k_lowest {k} is above {dim - 3}: ARPACK needs k + 1 < ncv <= {dim - 1} "
            f"on a dim-{dim} operator"
        )
    v0 = _start_vector(dim)
    if not np.issubdtype(op.dtype, np.complexfloating):
        v0 = v0.real
    try:
        vals, vecs = spla.eigsh(op, k=k, ncv=ncv, v0=v0, maxiter=20000, **mode)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver stalled: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _representatives(mirror: np.ndarray) -> np.ndarray:
    """One pair per orbit {p, mirror[p]} of the reflection: its lower index."""
    return np.flatnonzero(np.arange(len(mirror)) <= mirror)


#: a reflection block by its parity
PARITY_NAMES = {1: "even", -1: "odd"}


def splits_by_parity(h: HamiltonianMatrix) -> bool:
    """Whether the full spectrum of ``h`` comes from its two reflection
    blocks: a real payload on the pair basis alone that carries its pair
    basis (``spin``, ``single``, ``tilde-single``, ``pair``)."""
    return (h.pair_basis is not None and list(h.dims) == ["pairs"]
            and not np.iscomplexobj(h.payload))


def occupied_parities(psi: np.ndarray, mirror: np.ndarray) -> tuple:
    """The parities (+1 even, -1 odd) of the reflection blocks in which psi
    has weight: those of its parts (psi +- psi[mirror]) / 2 that are not
    identically zero.  ``fs`` and ``ps`` are even."""
    image = psi[mirror]
    return tuple(sign for sign in (1, -1) if np.any(psi + sign * image))


def _gate(vals: np.ndarray) -> tuple:
    """The spectral scale of ``vals`` and the residual gate 1e-8 * max(scale, 1)."""
    scale = max(np.abs(vals).max() if len(vals) else 1.0, 1e-30)
    return scale, 1e-8 * max(scale, 1.0)


def _gather(payload, rows, cols=None) -> np.ndarray:
    """``payload[rows][:, cols]`` (all columns without ``cols``) as an
    ndarray of its own, from a dense or a sparse payload."""
    block = payload[rows] if cols is None else payload[np.ix_(rows, cols)]
    return block.toarray() if sp.issparse(block) else block


def _reflection_defect(payload, mirror: np.ndarray) -> float:
    """||H - H[mirror][:, mirror]||_F: zero for a payload that commutes with
    the reflection.  The Frobenius norm bounds the spectral norm of the
    defect, so it bounds what the defect adds to any level's residual
    against the whole payload.  It is summed over ``DEFECT_ROWS`` rows at a
    time, so no mirrored copy of the whole payload is held."""
    squares = 0.0
    for start in range(0, len(mirror), DEFECT_ROWS):
        rows = slice(start, start + DEFECT_ROWS)
        block = _gather(payload, mirror[rows], mirror)
        block -= _gather(payload, rows)
        squares += float(np.vdot(block, block))
    return float(np.sqrt(squares))


def _shift_invert(h: HamiltonianMatrix, k_lowest, parity):
    """The lowest ``k_lowest`` levels of the matrix-free explicit-photon
    operator, in shift-invert mode with the exact inverse of
    ``FullOperator.shift_invert`` at a shift below the whole spectrum, so the
    eigenvalues nearest the shift are the lowest."""
    if k_lowest is None:
        raise ConfigError(
            f"full decomposition of a dim-{h.dim} matrix-free operator is not supported; "
            "pass k_lowest"
        )
    inverse = _Counted(h.payload.shift_invert(h.payload.lower_bound()))
    sigma = inverse.operator.sigma
    vals, vecs = _arpack(h.payload, k_lowest, max(2 * k_lowest + 1, 20),
                         sigma=sigma, which="LM", OPinv=inverse)
    return vals, vecs, None, None, {"method": "shift-invert", "sigma": sigma,
                                    "applications": inverse.applications}


def _lanczos(h: HamiltonianMatrix, k_lowest, parity):
    """The lowest ``k_lowest`` levels from Lanczos (ARPACK, lowest algebraic).
    A sparse payload is applied by its CSR product, a dense one by BLAS
    ``dsymv``, which reads one triangle; the residuals against the whole
    payload catch a dense one whose two triangles differ."""
    product = None
    if not sp.issparse(h.payload):
        # dsymv gets the transpose, F-ordered for a C-ordered payload, which
        # f2py would otherwise copy on every call
        product = functools.partial(dsymv, 1.0, np.ascontiguousarray(h.payload, float).T)
    counted = _Counted(h.payload, product)
    vals, vecs = _arpack(counted, k_lowest, max(4 * k_lowest, 40), which="SA")
    return vals, vecs, None, None, {"method": "lanczos", "applications": counted.applications}


def _dense(h: HamiltonianMatrix) -> np.ndarray:
    """The payload as an ndarray: a sparse one is copied dense, and refused
    above ``DENSE_BYTES_CAP``."""
    payload = h.payload
    if not sp.issparse(payload):
        return payload
    nbytes = payload.shape[0] * payload.shape[1] * payload.dtype.itemsize
    if nbytes > DENSE_BYTES_CAP:
        raise SizeError(
            f"dense copy of a {h.dim}-dim sparse matrix needs {nbytes / 2**30:.1f} GiB"
        )
    return payload.toarray()


def _parity_blocks(h: HamiltonianMatrix, k_lowest, parity):
    """Every level of a model that ``splits_by_parity``, from the even and odd
    blocks of its payload under the reflection ``h.pair_basis.mirror``, or
    from the one block of ``parity`` (+1 even, -1 odd).

    Each orbit {p, mirror[p]} is represented by its lower index.  An orbit of
    two gives the even and the odd ket (|p> +- |mirror[p]>) / sqrt(2); a pair
    that is its own image gives an even ket only.  Each block is decomposed
    with LAPACK's divide-and-conquer driver, and each level's residual is
    taken on its block.  The vectors are lifted back into the pair basis,
    mirrored components copied (even) or negated (odd), so their magnitudes
    agree bit for bit.  The energies are sorted stably, so an exact tie puts
    the even level first.  The reflection defect of the whole payload is held
    to the residual gate, so a payload without the symmetry fails even where
    the block solved looks exact.  A sparse payload is never copied dense
    whole: the blocks and the defect's slabs are gathered from it.
    """
    payload, mirror = h.payload, h.pair_basis.mirror
    defect = _reflection_defect(payload, mirror)
    reps = _representatives(mirror)
    partners = mirror[reps]
    fixed = partners == reps
    orbits, images = reps[~fixed], partners[~fixed]
    blocks = {}
    if parity in (None, 1):
        # <e_a|H|e_b> = (H[a, b] + H[a, mirror b]) s_a s_b, s = 1/sqrt(2) on fixed pairs
        scale = np.where(fixed, np.sqrt(0.5), 1.0)
        blocks[1] = _gather(payload, reps, reps)
        blocks[1] += _gather(payload, reps, partners)
        blocks[1] *= np.outer(scale, scale)
    if parity in (None, -1):
        blocks[-1] = _gather(payload, orbits, orbits)
        blocks[-1] -= _gather(payload, orbits, images)
    solved = {sign: eigh(block, driver="evd") for sign, block in blocks.items()}
    vals = np.concatenate([block_vals for block_vals, _ in solved.values()])
    spectral_scale, gate = _gate(vals)
    if defect > gate:
        raise ConvergenceError(
            f"reflection residual ||H - H[mirror][:, mirror]||_F {defect:g} too large for "
            f"spectrum scale {spectral_scale:g}: the payload breaks the pair reflection"
        )
    vecs = np.zeros((len(mirror), len(vals)))
    residuals, start = [], 0
    for sign, (block_vals, block_vecs) in solved.items():
        h_vecs = blocks[sign] @ block_vecs
        h_vecs -= block_vecs * block_vals
        residuals.append(np.linalg.norm(h_vecs, axis=0))
        cols = slice(start, start + len(block_vals))
        start += len(block_vals)
        if sign > 0:
            block_vecs *= np.where(fixed, 1.0, np.sqrt(0.5))[:, None]
            vecs[partners, cols] = block_vecs
            vecs[reps, cols] = block_vecs
        else:
            block_vecs *= np.sqrt(0.5)
            vecs[orbits, cols] = block_vecs
            vecs[images, cols] = -block_vecs
    order = np.argsort(vals, kind="stable")
    parities = np.concatenate([np.full(len(v), sign) for sign, (v, _) in solved.items()])
    stats = {"method": "parity-blocks", "blocks": [len(reps), len(orbits)], "driver": "evd"}
    if parity is not None:
        stats["solved"] = [PARITY_NAMES[parity]]
    return vals[order], vecs[:, order], np.concatenate(residuals)[order], parities[order], stats


def _lapack(h: HamiltonianMatrix, k_lowest, parity):
    """A LAPACK symmetric decomposition, full or the index subset of the
    lowest ``k_lowest`` levels, of the payload copied dense (``_dense``)."""
    subset = None if k_lowest is None else [0, min(k_lowest, h.dim) - 1]
    vals, vecs = eigh(_dense(h), subset_by_index=subset, driver="evr")
    return vals, vecs, None, None, {"method": "lapack", "driver": "evr"}


#: (takes(h, k_lowest), solve) rows; ``eigensolve`` runs the first that takes
#: the request.  solve(h, k_lowest, parity) returns the energies ascending,
#: the vectors, the residuals or None, each level's parity or None, and the
#: solver record, which starts with "method".  The adiabatic models stay on
#: LAPACK for every k: their lowest levels crowd against the whole bound
#: band, so Lanczos needs a thousand or more applications.
_ROUTES = (
    (lambda h, k: isinstance(h.payload, FullOperator), _shift_invert),
    (lambda h, k: k is not None and (
        h.dim >= LANCZOS_MIN_DIM and k <= LANCZOS_MAX_K if splits_by_parity(h)
        else sp.issparse(h.payload) and h.dim > DENSE_FALLBACK_DIM
    ), _lanczos),
    (lambda h, k: k is None and splits_by_parity(h), _parity_blocks),
    (lambda h, k: True, _lapack),
)


def eigensolve(
    h: HamiltonianMatrix, k_lowest: Optional[int] = None, parity: Optional[int] = None
) -> SpectralDecomposition:
    """Diagonalize a tagged Hamiltonian: every level, the lowest
    ``k_lowest``, or with ``parity`` (+1 even, -1 odd) every level of that
    reflection block of a model that ``splits_by_parity``.

    The first row of ``_ROUTES`` that takes the request solves it:
    ``_shift_invert`` for the matrix-free explicit-photon operator;
    ``_lanczos`` for ``k_lowest`` levels of a real pair-basis payload, dense
    or sparse, of dimension ``LANCZOS_MIN_DIM`` or more with
    ``k_lowest <= LANCZOS_MAX_K``, or of any other sparse payload above
    ``DENSE_FALLBACK_DIM``;
    ``_parity_blocks`` for every level of a model that ``splits_by_parity``;
    ``_lapack`` for the rest.  Every eigenvector then gets its canonical
    sign, and each level's residual (against the whole payload unless the
    route took it on its block) is held to the gate 1e-8 * max(scale, 1).
    ``solver`` on the result is the route's record.
    """
    if parity is not None and (
        parity not in PARITY_NAMES or k_lowest is not None or not splits_by_parity(h)
    ):
        raise ConfigError(
            f"parity {parity!r} is +1 or -1 and needs the full spectrum of a real "
            "pair-basis model"
        )
    solve = next(solve for takes, solve in _ROUTES if takes(h, k_lowest))
    vals, vecs, residuals, parities, stats = solve(h, k_lowest, parity)
    mirror = h.pair_basis.mirror if splits_by_parity(h) else None
    vecs = _canonicalize_signs(vecs, mirror)
    if residuals is None:
        h_vecs = h.payload @ vecs
        h_vecs -= vecs * vals
        residuals = np.linalg.norm(h_vecs, axis=0)
    scale, gate = _gate(vals)
    if residuals.max(initial=0.0) > gate:
        raise ConvergenceError(
            f"residual {residuals.max():g} too large for spectrum scale {scale:g}"
        )
    return SpectralDecomposition(
        energies=vals + h.energy_offset,
        vectors=vecs,
        residual_norms=residuals,
        energy_offset=h.energy_offset,
        dims=dict(h.dims),
        solver=stats,
        parity=parities,
        mirror=None if parities is None else mirror,
    )


def propagate(
    decomp: SpectralDecomposition, psi0: WavepacketState, times: Sequence[float]
) -> list[WavepacketState]:
    """Evolve psi0 through a decomposition split by the pair reflection.

    psi0 splits exactly into its even and odd parts (psi0 +- psi0[mirror]) / 2;
    each part evolves under the levels of its parity alone, and the odd part
    is skipped when it is identically zero (a mirror-symmetric state).  A
    decomposition not split, or lacking a level of a part's block (one even
    ket per orbit, one odd ket per orbit of two), raises ``BasisMismatch``.
    The vectors are real, so a part's snapshots are two real products on the
    rows of one pair per orbit, copied (even) or negated (odd) onto the
    mirrored rows.  A decomposition of one block lends its vectors as they
    are; only a part of a split one copies its levels' columns.
    """
    if psi0.dims != decomp.dims:
        raise BasisMismatch(f"state on {psi0.dims}, decomposition on {decomp.dims}")
    if decomp.parity is None:
        raise BasisMismatch("propagation needs a decomposition split by the pair reflection")
    times = np.asarray(times, dtype=float)
    energies = decomp.rotating_frame_energies()
    psi, mirror = psi0.coefficients, decomp.mirror
    reps = _representatives(mirror)
    occupied = occupied_parities(psi, mirror)
    block_dims = {1: len(reps), -1: len(mirror) - len(reps)}
    for sign in occupied:
        if np.count_nonzero(decomp.parity == sign) != block_dims[sign]:
            raise BasisMismatch(
                f"the state has weight in the {PARITY_NAMES[sign]} block, "
                "which the decomposition does not hold in full"
            )

    def evolve(sign):
        levels = decomp.parity == sign
        vecs, block_energies = decomp.vectors, energies
        if not levels.all():
            vecs, block_energies = vecs[:, levels], energies[levels]
        weights = vecs.T @ ((psi + sign * psi[mirror]) / 2)
        phases = np.exp(-1j * np.outer(block_energies, times)) * weights[:, None]
        half = vecs[reps]
        lifted = np.empty((len(psi), len(times)), dtype=complex)
        for out, component in ((lifted.real, phases.real), (lifted.imag, phases.imag)):
            rows = half @ np.ascontiguousarray(component)
            out[mirror[reps]] = rows if sign > 0 else -rows
            out[reps] = rows
        return lifted

    snapshots = evolve(1)
    if -1 in occupied:
        snapshots += evolve(-1)
    return [
        WavepacketState(coefficients=snapshots[:, col], time=float(t), dims=dict(decomp.dims))
        for col, t in enumerate(times)
    ]


def first_order_perturbation(
    decomp: SpectralDecomposition,
    pair_hop: np.ndarray,
    indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """First-order corrected energies E0 + <v|pair_hop|v> for selected states.

    indices are 0-based positions in the decomposition; defaults to all.
    Warns when adjacent levels are closer than the degeneracy gap, where
    the non-degenerate formula stops being meaningful.
    """
    _require_pairs(decomp.dims, "perturbation theory runs on the spin-model decomposition")
    if indices is None:
        indices = np.arange(len(decomp.energies))
    indices = np.asarray(indices, dtype=int)
    gaps = []
    for n in indices:
        if n > 0:
            gaps.append(abs(decomp.energies[n] - decomp.energies[n - 1]))
        if n + 1 < len(decomp.energies):
            gaps.append(abs(decomp.energies[n + 1] - decomp.energies[n]))
    if gaps and min(gaps) < DEGENERACY_GAP:
        warnings.warn(
            "selected level nearly degenerate; first-order theory unreliable",
            DegeneracyWarning,
            stacklevel=2,
        )
    vecs = decomp.vectors[:, indices]
    corrections = np.einsum("pi,pq,qi->i", vecs.conj(), pair_hop, vecs).real
    return decomp.energies[indices] + corrections


# ---------------------------------------------------------------------------
# variational droplet ansatz
# ---------------------------------------------------------------------------


@dataclass
class VariationalResult:
    """Optimized droplet family: one relative length, one state per mode."""

    length: float
    energies: np.ndarray
    coefficients: np.ndarray = field(repr=False)  # (P, n_max), orthonormal columns
    n_max: int


def variational_vector(h_spin: HamiltonianMatrix, length: float, n: int) -> np.ndarray:
    """Normalized product ansatz: box mode n along the center of mass,
    Lorentzian of the given length along the relative coordinate."""
    basis = h_spin.pair_basis
    if basis is None:
        raise BasisMismatch("spin Hamiltonian lacks its pair basis")
    n_e = basis.n_qubits
    box = np.sqrt(2 / n_e) * np.sin(n * np.pi * basis.centers / n_e)
    lorentz = 2 * np.sqrt(length**3 / np.pi) / (
        (basis.separations - 1) ** 2 + length**2
    )
    vec = box * lorentz
    return vec / np.linalg.norm(vec)


def variational_energy(h_spin: HamiltonianMatrix, length: float, n: int = 1) -> float:
    """Rayleigh quotient of the ansatz, reported as E - E_0b."""
    _require_pairs(h_spin.dims, "the variational ansatz runs on a spin model")
    if length <= 0:
        raise BracketError(f"length must be positive, got {length}")
    vec = variational_vector(h_spin, length, n)
    return float(vec @ h_spin.payload @ vec) + h_spin.energy_offset


def golden_section(fun, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Deterministic golden-section minimum of a unimodal scalar function."""
    invphi = (np.sqrt(5) - 1) / 2
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)


def minimize_variational(h_spin: HamiltonianMatrix, n_max: Optional[int] = None) -> VariationalResult:
    """Optimize the relative length on the ground mode, then reuse it.

    The same length is shared by all modes since the relative profile is
    mode independent.  The returned family is orthonormalized in order of
    increasing mode number (the ground vector itself is unchanged), so
    overlaps with the family are projections onto its span.
    """
    lo, hi = VARIATIONAL_BRACKET
    xatol = VARIATIONAL_XATOL
    length, _ = golden_section(lambda L: variational_energy(h_spin, L, 1), lo, hi, xatol)
    if length - lo < 5 * xatol or hi - length < 5 * xatol:
        raise BracketError(
            f"variational optimum {length:.4g} sits at the bracket edge {VARIATIONAL_BRACKET}"
        )
    basis = h_spin.pair_basis
    if n_max is None:
        n_max = max(1, round(basis.n_qubits / length))
    if n_max > basis.size:
        raise ConfigError(f"n_max {n_max} exceeds the {basis.size} pair kets of the basis")
    raw = np.stack(
        [variational_vector(h_spin, length, n) for n in range(1, n_max + 1)], axis=1
    )
    ortho, _ = np.linalg.qr(raw)
    # align each orthonormal column with its raw parent
    for col in range(n_max):
        if ortho[:, col] @ raw[:, col] < 0:
            ortho[:, col] = -ortho[:, col]
    energies = (
        np.einsum("pi,pq,qi->i", ortho, h_spin.payload, ortho) + h_spin.energy_offset
    )
    return VariationalResult(
        length=float(length),
        energies=energies,
        coefficients=ortho,
        n_max=n_max,
    )
