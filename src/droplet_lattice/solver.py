"""Eigendecomposition, spectral propagation, perturbation theory, and the
variational droplet ansatz.

All reported eigenvalues are E - E_0b: the rotating-frame eigenvalue plus
the two-excitation detuning carried by the Hamiltonian container.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from . import lapack
from .errors import (BasisMismatch, BracketError, ConfigError, ConvergenceError,
                     DegeneracyWarning, DomainError)
from .couplings import PairHopFactor
from .hamiltonians import FullOperator, HamiltonianMatrix, _refuse_above_cap, _require_pairs
from .lapack import dsymv
from .observables import WavepacketState

DENSE_FALLBACK_DIM = 4000
# a dense pair-basis payload from this dimension up, asked for at most this
# many levels, goes to Lanczos: from dim 300 it beats the LAPACK subset up to
# k = 8 (at k = 16 only from dim of about 1000)
LANCZOS_MIN_DIM = 300
LANCZOS_MAX_K = 8
DEGENERACY_GAP = 1e-10
# relative lengths searched by the variational optimization, and its tolerance
VARIATIONAL_BRACKET = (1.0, 30.0)
VARIATIONAL_XATOL = 1e-3


@dataclass
class SpectralDecomposition:
    """Eigenpairs of one Hamiltonian, energies ascending as E - E_0b.

    ``stored`` holds the eigenvectors as a dim x levels array or, for a
    decomposition from the parity blocks, as the blocks solved: by parity
    (+1 even, -1 odd) the block's vectors on its kets' representative rows
    (``_kets``), 1/sqrt(2) applied on orbits of two, one column per level of
    that parity in ascending order.  Blocks are lifted into the pair basis
    (``_lift``) only when read: ``vectors`` lifts every level and keeps the
    lift in place of the blocks, ``columns`` and ``state`` lift only the
    levels they read."""

    energies: np.ndarray
    stored: Union[np.ndarray, dict] = field(repr=False)
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
        return len(self.mirror) if isinstance(self.stored, dict) else self.stored.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """Every eigenvector, one column per level."""
        if isinstance(self.stored, dict):
            self.stored = _lift(self.stored, self.parity, self.mirror)
        return self.stored

    def columns(self, levels: Sequence[int]) -> np.ndarray:
        """``vectors[:, levels]``, lifting only those levels from the blocks."""
        if isinstance(self.stored, dict):
            return _lift(self.stored, self.parity, self.mirror, np.asarray(levels, dtype=int))
        return self.stored[:, levels]

    def block(self, sign: int) -> np.ndarray:
        """The levels of parity ``sign`` on its kets' representative rows,
        Fortran-ordered: the block solved or, once lifted, its gather."""
        if isinstance(self.stored, dict):
            return self.stored[sign]
        rows = _kets(self.mirror)[sign][0]
        return self.stored.T[np.ix_(self.parity == sign, rows)].T

    def rotating_frame_energies(self) -> np.ndarray:
        return self.energies - self.energy_offset

    def state(self, index: int) -> WavepacketState:
        """Eigenvector ``index`` (0-based, ascending energy) as a state at t = 0."""
        return WavepacketState(coefficients=self.columns([index])[:, 0], time=0.0, dims=self.dims)


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
    runs its real symmetric routine.  Any ARPACK failure, a stalled solve or
    one that cannot start (an operator that maps the start vector to zero),
    raises ``ConvergenceError``.  ARPACK is imported here, by the tasks
    that run it."""
    from scipy.sparse.linalg import ArpackError, eigsh

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
        vals, vecs = eigsh(op, k=k, ncv=ncv, v0=v0, maxiter=20000, **mode)
    except ArpackError as exc:
        raise ConvergenceError(f"iterative eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _kets(mirror: np.ndarray) -> dict:
    """By parity, the representative rows of the reflection kets and their
    images: each orbit {p, mirror[p]}, by its lower index, gives an even
    ket, each orbit of two an odd one."""
    reps = np.flatnonzero(np.arange(len(mirror)) <= mirror)
    partners = mirror[reps]
    two = reps != partners
    return {1: (reps, partners), -1: (reps[two], partners[two])}


def _lift(blocks: dict, parity: np.ndarray, mirror: np.ndarray, levels=None) -> np.ndarray:
    """The vectors of ``levels`` (every level without it) lifted from the
    parity blocks ``blocks`` into the pair basis: each block's rows go to
    its kets' representative rows and are copied (even) or negated (odd)
    onto the mirrored rows, so mirrored components agree in magnitude bit
    for bit.  A level's column in its block is its rank among the levels of
    its parity.  The P x levels array is Fortran-ordered, each level's
    column contiguous, the layout ``lapack.eigh`` gives.  Lifting every
    level pops each block from ``blocks`` once placed and negates the odd one
    in place, so the blocks and the lift are held together only while it is
    filled."""
    kets = _kets(mirror)
    wanted = parity if levels is None else parity[levels]
    lifted = np.zeros((len(mirror), len(wanted)), order="F")
    for sign in list(blocks):
        cols = np.flatnonzero(wanted == sign)
        if levels is None:
            block = blocks.pop(sign)
        else:
            block = blocks[sign][:, (np.cumsum(parity == sign) - 1)[levels[cols]]]
        rows, mirrored = kets[sign]
        lifted[np.ix_(rows, cols)] = block
        if sign < 0:
            np.negative(block, out=block)
        lifted[np.ix_(mirrored, cols)] = block
    return lifted


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
    """The spectral scale of ``vals`` and the residual gate 1e-8 * max(scale, 1),
    NaN when a value is.  Every comparison with the gate is written
    ``not x <= gate``, so a NaN on either side fails it."""
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
    against the whole payload.  It is the norm of the stored entries of one
    difference, sparse for a sparse payload."""
    diff = payload[mirror][:, mirror] - payload
    return float(np.linalg.norm(diff.data if sp.issparse(diff) else diff))


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
    A dense payload is applied by BLAS ``dsymv``, which reads one triangle;
    the residuals against the whole payload catch one whose two triangles
    differ.  Any other payload (CSR, ``SpinOperator``) is applied by its own
    ``@``."""
    product = None
    if isinstance(h.payload, np.ndarray):
        # dsymv gets the transpose, F-ordered for a C-ordered payload, which
        # f2py would otherwise copy on every call
        product = functools.partial(dsymv, 1.0, np.ascontiguousarray(h.payload, float).T)
    counted = _Counted(h.payload, product)
    vals, vecs = _arpack(counted, k_lowest, max(4 * k_lowest, 40), which="SA")
    return vals, vecs, None, None, {"method": "lanczos", "applications": counted.applications}


def _require_finite(h: HamiltonianMatrix):
    """Refuse (exit 3) a payload with an entry that is not finite, from the
    arrays it is formed from: an ndarray itself, the stored entries of a
    sparse payload, the ``arrays`` of a ``SpinOperator`` or ``FullOperator``.
    The LAPACK calls (``lapack``) do not scan their input, and ARPACK never did."""
    payload = h.payload
    arrays = (payload.data,) if sp.issparse(payload) else getattr(payload, "arrays", (payload,))
    if not all(np.isfinite(array).all() for array in arrays):
        raise DomainError(f"the dim-{h.dim} {type(payload).__name__} has entries that are "
                          "not finite: the parameters leave floating-point range")


def _dense(h: HamiltonianMatrix) -> np.ndarray:
    """The payload as an ndarray.  Any other payload (CSR, ``SpinOperator``)
    is formed by its ``toarray()``, the one place a solver forms a P x P
    array, after ``_refuse_above_cap``."""
    payload = h.payload
    if isinstance(payload, np.ndarray):
        return payload
    _refuse_above_cap(h.dim * h.dim * payload.dtype.itemsize,
                      f"dense copy of a {h.dim}-dim {type(payload).__name__} needs")
    return payload.toarray()


def _reflection_blocks(payload, mirror: np.ndarray, parity) -> tuple:
    """The blocks, by parity, of ``payload`` on the kets of ``_parity_blocks``
    (only that of ``parity`` unless it is None) and its reflection defect
    ||H - H[mirror][:, mirror]||_F, or for a ``SpinOperator`` a bound of it.
    An ndarray or sparse payload, or the CSR hop of a ``SpinOperator``'s
    ``parts``, gives both by gathers.  The pair hop -c X X^T adds -c X_e X_e^T
    and -c X_o X_o^T, one syrk each, with X_e = (X[reps] + X[partners]) w
    (w = 1/sqrt(2) on orbits of two, 1/2 on pairs that are their own image)
    and X_o = (X[orbits] - X[images]) / sqrt(2); it is symmetric, so its
    defect is 2 sqrt(2) c ||X_e X_o^T||_F, from its even-odd block."""
    kets = _kets(mirror)
    (reps, partners), (orbits, images) = kets[1], kets[-1]
    payload, factor = getattr(payload, "parts", (payload, None))
    fixed = partners == reps
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
    defect = _reflection_defect(payload, mirror)
    if factor is not None:
        even = factor.x[reps] + factor.x[partners]
        even *= np.where(fixed, 0.5, np.sqrt(0.5))[:, None]
        odd = factor.x[orbits] - factor.x[images]
        odd *= np.sqrt(0.5)
        for sign, half in ((1, even), (-1, odd)):
            if sign in blocks:
                gram = half @ half.T  # syrk
                gram *= factor.scale
                blocks[sign] -= gram
        defect += 2 * np.sqrt(2) * factor.scale * float(np.linalg.norm(even @ odd.T))
    return blocks, defect


def _parity_blocks(h: HamiltonianMatrix, k_lowest, parity):
    """Every level of a model that ``splits_by_parity``, from the even and odd
    blocks of its payload under the reflection ``h.pair_basis.mirror``, or
    from the one block of ``parity`` (+1 even, -1 odd).

    Each orbit {p, mirror[p]} is represented by its lower index.  An orbit of
    two gives the even and the odd ket (|p> +- |mirror[p]>) / sqrt(2); a pair
    that is its own image gives an even ket only.  The largest array a
    caller may ask for, the lifted vectors, is refused first
    (``_refuse_above_cap``); the blocks come from ``_reflection_blocks``, so
    no payload is copied dense whole.  Each block in turn is decomposed by
    LAPACK's divide-and-conquer driver, its levels' residuals are taken on
    it, and it is dropped before the next.  Its vectors are scaled by
    1/sqrt(2) on orbits of two, the components they take on the
    representative rows, and kept by parity, unlifted (``_lift`` lifts them
    when read).  Each level gets its canonical sign in its block: a lifted
    state's |v[p]| + |v[mirror[p]]| is twice the block's scaled |v| on both
    members of an orbit, so the pivot of ``_canonicalize_signs`` is the
    first representative of largest scaled |v|.  The energies are merged in
    ascending order by a stable sort, which puts the even level first in an
    exact tie, so each block's levels take ascending columns.  The
    reflection defect is held to the residual gate, so a payload without
    the symmetry fails even where the block solved looks exact.
    """
    mirror = h.pair_basis.mirror
    kets = _kets(mirror)
    levels = sum(len(kets[sign][0]) for sign in kets if parity in (None, sign))
    _refuse_above_cap(8 * len(mirror) * levels, f"{levels} parity-block vectors of a "
                      f"{h.dim}-dim {type(h.payload).__name__} need")
    blocks, defect = _reflection_blocks(h.payload, mirror, parity)
    solved, vals, residuals, parities = {}, [], [], []
    for sign in list(blocks):
        block = blocks.pop(sign)
        block_vals, block_vecs = lapack.eigh(block, driver="evd")
        h_vecs = block @ block_vecs
        del block
        h_vecs -= block_vecs * block_vals
        residuals.append(np.linalg.norm(h_vecs, axis=0))
        del h_vecs
        vals.append(block_vals)
        parities.append(np.full(len(block_vals), sign))
        rows, mirrored = kets[sign]
        block_vecs *= np.where(rows == mirrored, 1.0, np.sqrt(0.5))[:, None]
        if len(block_vals):  # the odd block of two qubits is empty
            lead = np.argmax(np.abs(block_vecs), axis=0)
            block_vecs *= np.where(block_vecs[lead, np.arange(len(block_vals))] < 0, -1.0, 1.0)
        solved[sign] = block_vecs
    vals = np.concatenate(vals)
    spectral_scale, gate = _gate(vals)
    if not defect <= gate:
        raise ConvergenceError(
            f"reflection residual ||H - H[mirror][:, mirror]||_F {defect:g} too large for "
            f"spectrum scale {spectral_scale:g}: the payload breaks the pair reflection"
        )
    order = np.argsort(vals, kind="stable")
    stats = {"method": "parity-blocks", "blocks": [len(kets[1][0]), len(kets[-1][0])],
             "driver": "evd"}
    if parity is not None:
        stats["solved"] = [PARITY_NAMES[parity]]
    return (vals[order], solved, np.concatenate(residuals)[order],
            np.concatenate(parities)[order], stats)


def _lapack(h: HamiltonianMatrix, k_lowest, parity):
    """A LAPACK symmetric decomposition, full or the index subset of the
    lowest ``k_lowest`` levels, of the payload copied dense (``_dense``)."""
    lowest = None if k_lowest is None else min(k_lowest, h.dim)
    vals, vecs = lapack.eigh(_dense(h), lowest)
    return vals, vecs, None, None, {"method": "lapack", "driver": "evr"}


#: (takes(h, k_lowest), solve) rows; ``eigensolve`` runs the first that takes
#: the request.  solve(h, k_lowest, parity) returns the energies ascending,
#: the vectors (by parity the blocks' vectors, unlifted, from the parity
#: blocks), the residuals or None, each level's parity or None, and the
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

    A payload with an entry that is not finite is refused first
    (``_require_finite``).  The first row of ``_ROUTES`` that takes the
    request solves it:
    shift-invert for the matrix-free operator, Lanczos for a few levels of a
    large payload, the parity blocks for every level of a model that
    ``splits_by_parity``, LAPACK for the rest.  Every eigenvector then has
    its canonical sign (``_canonicalize_signs``): the parity-block route,
    the one that returns each level's parity, fixes it in its blocks and
    keeps them unlifted (``SpectralDecomposition.stored``), so no P x levels
    array is formed unless a caller reads ``vectors``.
    Each level's residual (against the whole payload unless the route took
    it on its block) is held to the gate 1e-8 * max(scale, 1).  ``solver``
    on the result is the route's record.
    """
    if parity is not None and (
        parity not in PARITY_NAMES or k_lowest is not None or not splits_by_parity(h)
    ):
        raise ConfigError(
            f"parity {parity!r} is +1 or -1 and needs the full spectrum of a real "
            "pair-basis model"
        )
    _require_finite(h)
    solve = next(solve for takes, solve in _ROUTES if takes(h, k_lowest))
    vals, vecs, residuals, parities, stats = solve(h, k_lowest, parity)
    mirror = h.pair_basis.mirror if splits_by_parity(h) else None
    if parities is None:
        vecs = _canonicalize_signs(vecs, mirror)
    if residuals is None:
        h_vecs = h.payload @ vecs
        h_vecs -= vecs * vals
        residuals = np.linalg.norm(h_vecs, axis=0)
    scale, gate = _gate(vals)
    if not residuals.max(initial=0.0) <= gate:
        raise ConvergenceError(
            f"residual {residuals.max():g} too large for spectrum scale {scale:g}"
        )
    return SpectralDecomposition(
        energies=vals + h.energy_offset,
        stored=vecs,
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
    Every product runs on the part's block vectors (``block``), which the
    decomposition holds as solved, or gathers once lifted: the weights are
    the block's products with the part on its representative rows, each of
    which stands for itself and its image, and a part's snapshots are two
    real products on those rows, copied (even) or negated (odd) onto the
    mirrored rows.  The phases exp(-iEt) times the weights are formed in
    one complex array, levels x samples, in place.
    """
    if psi0.dims != decomp.dims:
        raise BasisMismatch(f"state on {psi0.dims}, decomposition on {decomp.dims}")
    if decomp.parity is None:
        raise BasisMismatch("propagation needs a decomposition split by the pair reflection")
    times = np.asarray(times, dtype=float)
    energies = decomp.rotating_frame_energies()
    psi, mirror = psi0.coefficients, decomp.mirror
    kets = _kets(mirror)
    occupied = occupied_parities(psi, mirror)
    for sign in occupied:
        if np.count_nonzero(decomp.parity == sign) != len(kets[sign][0]):
            raise BasisMismatch(
                f"the state has weight in the {PARITY_NAMES[sign]} block, "
                "which the decomposition does not hold in full"
            )
    snapshots = np.zeros((len(psi), len(times)), dtype=complex)
    for sign in occupied:
        rows, mirrored = kets[sign]
        block = decomp.block(sign)
        # twice the part's component on an orbit of two, once on a pair that is its own image
        part = psi[rows] + sign * psi[mirrored]
        part[rows == mirrored] /= 2
        weights = block.T @ part
        phases = -1j * np.outer(energies[decomp.parity == sign], times)
        np.exp(phases, out=phases)
        phases *= weights[:, None]
        for out, component in ((snapshots.real, phases.real), (snapshots.imag, phases.imag)):
            values = block @ np.ascontiguousarray(component)
            if sign > 0:  # first, onto zeros
                out[mirrored] = values
                out[rows] = values
            else:
                out[rows] += values
                out[mirrored] -= values
    return [
        WavepacketState(coefficients=snapshots[:, col], time=float(t), dims=dict(decomp.dims))
        for col, t in enumerate(times)
    ]


def first_order_perturbation(
    decomp: SpectralDecomposition,
    pair_hop: PairHopFactor,
    indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """First-order corrected energies E0 + <v|pair_hop|v> for selected states,
    <v|pair_hop|v> = -c ||X^T v||^2 from the pair hop's factor.

    indices are 0-based positions in the decomposition; defaults to all.
    Warns when adjacent levels are closer than the degeneracy gap, where
    the non-degenerate formula stops being meaningful.
    """
    _require_pairs(decomp.dims, "perturbation theory runs on the spin-model decomposition")
    if indices is None:
        indices = np.arange(len(decomp.energies))
    indices = np.asarray(indices, dtype=int)
    gaps = np.abs(np.diff(decomp.energies))  # gaps[n] lies between levels n and n + 1
    near = np.concatenate([gaps[indices[indices > 0] - 1], gaps[indices[indices < len(gaps)]]])
    if near.size and near.min() < DEGENERACY_GAP:
        warnings.warn(
            "selected level nearly degenerate; first-order theory unreliable",
            DegeneracyWarning,
            stacklevel=2,
        )
    return decomp.energies[indices] + pair_hop.expectations(decomp.columns(indices))


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
    return float(vec @ (h_spin.payload @ vec)) + h_spin.energy_offset


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
    energies = ((h_spin.payload @ ortho) * ortho).sum(axis=0) + h_spin.energy_offset
    return VariationalResult(
        length=float(length),
        energies=energies,
        coefficients=ortho,
        n_max=n_max,
    )
