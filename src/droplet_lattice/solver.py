"""Eigendecomposition, spectral propagation, perturbation theory, and the
variational droplet ansatz.

All reported eigenvalues are E - E_0b: the rotating-frame eigenvalue plus
the two-excitation detuning carried by the Hamiltonian container.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
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
    solver: dict = field(default_factory=dict)
    # for a decomposition split by the pair reflection: each level's parity
    # (+1 even, -1 odd) and the reflection as an index map of the pair basis
    parity: Optional[np.ndarray] = field(default=None, repr=False)
    mirror: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def is_full(self) -> bool:
        return len(self.energies) == self.dim

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


#: OpenBLAS entry-point names: the scipy-openblas wheels and plain builds,
#: with and without the suffix of a 64-bit-integer build
_OPENBLAS_NAMES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")


@functools.cache
def _blas_pools() -> tuple:
    """Every OpenBLAS loaded in this process as (file name, get_config,
    get_num_threads, set_num_threads), a function None where the library
    lacks it.  numpy and scipy each load their own; both are found through
    the process's memory map on first use, not at import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for pattern in _OPENBLAS_NAMES:
            config, get, set_ = (getattr(lib, pattern.format(verb), None)
                                 for verb in ("get_config", "get_num_threads", "set_num_threads"))
            if get is not None:
                break
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
        if set_ is not None:
            set_.argtypes, set_.restype = [ctypes.c_int], None
        pools.append((os.path.basename(path), config, get, set_))
    return tuple(pools)


def blas_libraries() -> list[dict]:
    """Each loaded OpenBLAS with its build string and current thread count."""
    return [
        {
            "library": name,
            "config": None if config is None else config().decode(),
            "threads": None if get is None else get(),
        }
        for name, config, get, _ in _blas_pools()
    ]


def blas_settable() -> bool:
    """Whether OpenBLAS is loaded and each pool has a getter and a setter."""
    pools = _blas_pools()
    return bool(pools) and all(get is not None and set_ is not None for _, _, get, set_ in pools)


def set_blas_threads(count: int):
    """Set every OpenBLAS pool to ``count`` threads and return the prior
    count of each; return ``"unmanaged"`` and change nothing unless
    ``blas_settable()``."""
    if not blas_settable():
        return "unmanaged"
    pools = _blas_pools()
    prior = [get() for _, _, get, _ in pools]
    for _, _, _, set_ in pools:
        set_(count)
    return prior


@contextlib.contextmanager
def _single_blas_thread():
    """Hold every OpenBLAS pool at one thread inside the block, so the two
    pools do not hand an iterative solver's small products back and forth;
    the prior counts come back on exit.  Yields the count held, 1, or
    ``"unmanaged"`` (and changes nothing) as ``set_blas_threads`` does."""
    prior = set_blas_threads(1)
    if prior == "unmanaged":
        yield prior
        return
    try:
        yield 1
    finally:
        for (_, _, _, set_), count in zip(_blas_pools(), prior):
            set_(count)


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


def _densify(payload) -> np.ndarray:
    """Dense copy of a sparse payload, refused above ``DENSE_BYTES_CAP``."""
    nbytes = payload.shape[0] * payload.shape[1] * payload.dtype.itemsize
    if nbytes > DENSE_BYTES_CAP:
        raise SizeError(
            f"dense copy of a {payload.shape[0]}-dim sparse matrix needs {nbytes / 2**30:.1f} GiB"
        )
    return payload.toarray()


def _arpack(op, k: int, ncv: int, **mode):
    """Lowest ``k`` eigenpairs of ``op`` from ARPACK, ascending, and the BLAS
    thread count they were computed with (see ``_single_blas_thread``).

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
        with _single_blas_thread() as threads:
            vals, vecs = spla.eigsh(op, k=k, ncv=ncv, v0=v0, maxiter=20000, **mode)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver stalled: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order], threads


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


def _reflection_defect(payload: np.ndarray, mirror: np.ndarray) -> float:
    """||H - H[mirror][:, mirror]||_F: zero for a payload that commutes with
    the reflection.  The Frobenius norm bounds the spectral norm of the
    defect, so it bounds what the defect adds to any level's residual
    against the whole payload."""
    mirrored = payload[np.ix_(mirror, mirror)]
    mirrored -= payload
    return float(np.linalg.norm(mirrored))


def _parity_blocks(payload: np.ndarray, mirror: np.ndarray, parity: Optional[int] = None):
    """Eigenpairs of a real symmetric pair-basis payload that commutes with
    the reflection ``mirror``, from its even and odd blocks, or from the one
    block of ``parity`` (+1 even, -1 odd).

    Each orbit {p, mirror[p]} is represented by its lower index.  An orbit of
    two gives the even and the odd ket (|p> +- |mirror[p]>) / sqrt(2); a pair
    that is its own image gives an even ket only.  Each block is decomposed
    with LAPACK's divide-and-conquer driver at one BLAS thread, and each
    level's residual is taken on its block.  The vectors are lifted back into
    the pair basis, mirrored components copied (even) or negated (odd), so
    their magnitudes agree bit for bit.  Returns the energies ascending
    (stable, so an exact tie puts the even level first), the lifted vectors,
    the residuals, each level's parity and the solver record.
    """
    reps = _representatives(mirror)
    partners = mirror[reps]
    fixed = partners == reps
    orbits, images = reps[~fixed], partners[~fixed]
    blocks = {}
    if parity in (None, 1):
        # <e_a|H|e_b> = (H[a, b] + H[a, mirror b]) s_a s_b, s = 1/sqrt(2) on fixed pairs
        scale = np.where(fixed, np.sqrt(0.5), 1.0)
        even_rows = payload[reps]
        blocks[1] = (even_rows[:, reps] + even_rows[:, partners]) * np.outer(scale, scale)
    if parity in (None, -1):
        odd_rows = payload[orbits]
        blocks[-1] = odd_rows[:, orbits] - odd_rows[:, images]
    with _single_blas_thread() as threads:
        solved = {sign: eigh(block, driver="evd") for sign, block in blocks.items()}
    vals = np.concatenate([block_vals for block_vals, _ in solved.values()])
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
    stats = {"method": "parity-blocks", "blocks": [len(reps), len(orbits)], "driver": "evd",
             "blas_threads": threads}
    if parity is not None:
        stats["solved"] = [PARITY_NAMES[parity]]
    return vals[order], vecs[:, order], np.concatenate(residuals)[order], parities[order], stats


def eigensolve(
    h: HamiltonianMatrix, k_lowest: Optional[int] = None, parity: Optional[int] = None
) -> SpectralDecomposition:
    """Diagonalize a tagged Hamiltonian.

    A full spectrum, or many levels, comes from a LAPACK symmetric
    decomposition (full or index subset) of the payload, copied dense if it
    is sparse.  The full spectrum of a model that ``splits_by_parity`` comes
    from its even and odd blocks under the reflection of the qubit block
    instead (``_parity_blocks``), with each level's parity recorded; with
    ``parity`` (+1 even, -1 odd) only that block is solved and the result
    holds its levels alone.  A parity split is checked by each level's
    residual on its block and by the reflection defect of the whole
    payload, ||H - H[mirror][:, mirror]||_F, both held to the residual gate,
    so a payload without the symmetry fails.  The lowest
    ``k_lowest`` levels come from Lanczos (ARPACK) instead for a real dense
    pair-basis payload of dimension ``LANCZOS_MIN_DIM``
    or more with ``k_lowest <= LANCZOS_MAX_K``, and for a sparse payload
    above ``DENSE_FALLBACK_DIM``.  A dense payload is applied by BLAS
    ``dsymv``, which reads one triangle; the residuals against the whole
    payload catch one whose two triangles differ.  (The adiabatic models
    stay dense: they hold the whole bound band, so their lowest levels are
    close together against the spectral width and Lanczos needs a thousand
    or more applications, several times the cost of the subset.)  The
    explicit-photon operator is solved in shift-invert mode with the exact
    inverse of ``FullOperator.shift_invert``, at a shift below its whole
    spectrum, so the eigenvalues nearest the shift are the lowest.
    ``solver`` on the result records the method, the shift, the operator
    (or inverse) applications and the BLAS threads of an iterative solve,
    and the block dimensions, LAPACK driver and BLAS threads of a parity
    split, with the block solved when it is one.
    """
    payload = h.payload
    dim = h.dim
    sparse = sp.issparse(payload)
    split = k_lowest is None and splits_by_parity(h)
    if parity is not None and (parity not in PARITY_NAMES or not split):
        raise ConfigError(
            f"parity {parity!r} is +1 or -1 and needs the full spectrum of a real "
            "pair-basis model"
        )
    pairs_only = h.pair_basis is not None and list(h.dims) == ["pairs"]
    mirror = residuals = level_parity = None
    defect = 0.0
    if isinstance(payload, FullOperator):
        if k_lowest is None:
            raise ConvergenceError(
                f"full decomposition of a dim-{dim} matrix-free operator is not supported; "
                "pass k_lowest"
            )
        inverse = _Counted(payload.shift_invert(payload.lower_bound()))
        sigma = inverse.operator.sigma
        ncv = max(2 * k_lowest + 1, 20)
        vals, vecs, threads = _arpack(
            payload, k_lowest, ncv, sigma=sigma, which="LM", OPinv=inverse
        )
        stats = {"method": "shift-invert", "sigma": sigma, "applications": inverse.applications,
                 "blas_threads": threads}
    elif k_lowest is not None and (
        dim > DENSE_FALLBACK_DIM if sparse
        else list(h.dims) == ["pairs"] and np.isrealobj(payload)
        and dim >= LANCZOS_MIN_DIM and k_lowest <= LANCZOS_MAX_K
    ):
        product = None
        if not sparse:
            # dsymv reads one triangle; it gets the transpose, F-ordered for a
            # C-ordered payload, which f2py would otherwise copy on every call
            product = functools.partial(dsymv, 1.0, np.ascontiguousarray(payload, float).T)
        counted = _Counted(payload, product)
        vals, vecs, threads = _arpack(counted, k_lowest, max(4 * k_lowest, 40), which="SA")
        stats = {"method": "lanczos", "applications": counted.applications,
                 "blas_threads": threads}
    elif split:
        mirror = h.pair_basis.mirror
        defect = _reflection_defect(payload, mirror)
        vals, vecs, residuals, level_parity, stats = _parity_blocks(payload, mirror, parity)
    else:
        subset = None if k_lowest is None else [0, min(k_lowest, dim) - 1]
        vals, vecs = eigh(_densify(payload) if sparse else payload, subset_by_index=subset)
        stats = {}
    vecs = _canonicalize_signs(vecs, h.pair_basis.mirror if pairs_only else None)
    if residuals is None:
        h_vecs = payload @ vecs
        h_vecs -= vecs * vals
        residuals = np.linalg.norm(h_vecs, axis=0)
    scale = max(np.abs(vals).max() if len(vals) else 1.0, 1e-30)
    gate = 1e-8 * max(scale, 1.0)
    if defect > gate:
        raise ConvergenceError(
            f"reflection residual ||H - H[mirror][:, mirror]||_F {defect:g} too large for "
            f"spectrum scale {scale:g}: the payload breaks the pair reflection"
        )
    if residuals.max(initial=0.0) > gate:
        raise ConvergenceError(
            f"residual {residuals.max():g} too large for spectrum scale {scale:g}",
            residuals=residuals,
        )
    return SpectralDecomposition(
        energies=vals + h.energy_offset,
        vectors=vecs,
        residual_norms=residuals,
        energy_offset=h.energy_offset,
        dims=dict(h.dims),
        solver=stats,
        parity=level_parity,
        mirror=mirror,
    )


def propagate(
    decomp: SpectralDecomposition, psi0: WavepacketState, times: Sequence[float]
) -> list[WavepacketState]:
    """Evolve psi0 through the spectral representation at the given times.

    The decomposition must hold every level: all of them, or for a split by
    the pair reflection every level of each parity block psi0 occupies."""
    if psi0.dims != decomp.dims:
        raise BasisMismatch(f"state on {psi0.dims}, decomposition on {decomp.dims}")
    times = np.asarray(times, dtype=float)
    energies = decomp.rotating_frame_energies()
    psi = psi0.coefficients
    if decomp.parity is None:
        if not decomp.is_full:
            raise BasisMismatch("propagation needs the full decomposition")
        weights = decomp.vectors.conj().T @ psi
        phases = np.exp(-1j * np.outer(energies, times)) * weights[:, None]
        snapshots = decomp.vectors @ phases
    else:
        snapshots = _propagate_by_parity(decomp, energies, psi, times)
    return [
        WavepacketState(coefficients=snapshots[:, col], time=float(t), dims=dict(decomp.dims))
        for col, t in enumerate(times)
    ]


def _propagate_by_parity(decomp, energies, psi, times) -> np.ndarray:
    """Snapshots of a decomposition split by the pair reflection.

    psi splits exactly into its even and odd parts (psi +- psi[mirror]) / 2;
    each part evolves under the levels of its parity alone, and the odd part
    is skipped when it is identically zero (a mirror-symmetric state).  A
    part whose parity block the decomposition does not hold in full raises
    ``BasisMismatch``.  The vectors are real, so a part's snapshots are two
    real products on the rows of one pair per orbit, copied (even) or
    negated (odd) onto the mirrored rows.
    """
    mirror = decomp.mirror
    reps = _representatives(mirror)
    occupied = occupied_parities(psi, mirror)
    block_dims = dict(zip((1, -1), decomp.solver["blocks"]))
    for sign in occupied:
        if np.count_nonzero(decomp.parity == sign) != block_dims[sign]:
            raise BasisMismatch(
                f"the state has weight in the {PARITY_NAMES[sign]} block, "
                "which the decomposition does not hold in full"
            )

    def evolve(sign):
        levels = decomp.parity == sign
        vecs = decomp.vectors[:, levels]
        weights = vecs.T @ ((psi + sign * psi[mirror]) / 2)
        phases = np.exp(-1j * np.outer(energies[levels], times)) * weights[:, None]
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
    return snapshots


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
