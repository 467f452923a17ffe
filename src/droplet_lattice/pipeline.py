"""The elimination chain as one lazy object.

``Pipeline(params)`` holds one parameter point: qubit positions and pair
basis up front, then on first use the bath bands, the couplings of the
first elimination (``hop``, ``pair_bound``, ``bound_bound``), the
constrained hop on the pair basis as read-only CSR (``hop_csr``, shared by
``spin``, ``single``, ``tilde-single`` and the adiabatic models), the pair hop
of the second as its factor (``pair_hop_factor``, built from row blocks of
the couplings without ``pair_bound``) or as a dense matrix (``pair_hop``),
any model of ``MODELS`` and its eigendecomposition.  Every stage is
computed once, only when a model or a caller reads it, and kept for the
life of the object.

Layer functions are called through their modules (``bath.solve_bath``, not
an imported name), so a caller that rebinds a module attribute, such as a
tracer, sees every call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import bath, couplings, hamiltonians, observables, solver
from . import params as parameters
from .errors import ConfigError
from .params import PairBasis, SystemParams

#: least samples per ``solver.propagate`` call of ``Pipeline.quench``
QUENCH_MIN_CHUNK = 64


def _adiabatic(p: "Pipeline", bound_bound: bool) -> hamiltonians.HamiltonianMatrix:
    """``adia0`` (with the bound-bound block) or ``adia1``, refused over the
    dense cap before ``pair_bound`` is formed."""
    hamiltonians.refuse_pairs_plus_bound(p.basis, p.params)
    return hamiltonians.build_adiabatic_model(
        p.hop_csr, p.pair_bound, p.basis, p.params, p.bands, p.bound_bound if bound_bound else None
    )


def _spin(p: "Pipeline") -> hamiltonians.HamiltonianMatrix:
    """``spin``, its pair-hop factor built before its CSR hop: built in the
    other order, the heap keeps more freed pages and the peak RSS of a
    quench at 1001 x 100 rises from 345 to 374 MB."""
    factor = p.pair_hop_factor
    return hamiltonians.build_spin_model(p.hop_csr, factor, p.basis, p.params)


#: Model name -> builder of its Hamiltonian from a pipeline.
MODELS = {
    "spin": _spin,
    "single": lambda p: hamiltonians.build_constrained_hop(p.hop_csr, p.basis, p.params),
    "tilde-single": lambda p: hamiltonians.build_unconstrained_hop(p.hop_csr, p.basis, p.params),
    "pair": lambda p: hamiltonians.build_pair_hop(p.pair_hop_factor, p.basis, p.params),
    "adia0": lambda p: _adiabatic(p, bound_bound=True),
    "adia1": lambda p: _adiabatic(p, bound_bound=False),
    "full": lambda p: hamiltonians.build_full_model(p.params, p.positions, p.basis, p.bands),
    "oracle": lambda p: hamiltonians.build_complete_sector(p.params, p.positions, p.basis),
}


class Pipeline:
    """Lazy, cached stages of the elimination chain for one parameter set."""

    def __init__(self, params: SystemParams):
        self.params = params
        self.positions = parameters.qubit_positions(params)
        self.basis = PairBasis(params.n_qubits)
        self._models = {}
        self._spectra = {}

    @cached_property
    def bands(self) -> bath.BathBands:
        bands = bath.solve_bath(self.params)
        bands.require_gap()
        return bands

    @cached_property
    def hop(self) -> np.ndarray:
        return couplings.constrained_hop_matrix(self.params, self.positions)

    @cached_property
    def hop_csr(self) -> sp.csr_array:
        return hamiltonians.build_hop_csr(self.hop, self.basis)

    @cached_property
    def pair_bound(self) -> np.ndarray:
        return couplings.pair_bound_couplings(self.params, self.positions, self.basis, self.bands)

    @cached_property
    def pair_hop_factor(self) -> couplings.PairHopFactor:
        rows = couplings.PairBoundRows(self.params, self.positions, self.basis, self.bands)
        return couplings.pair_hop_factor(self.params, rows, self.bands)

    @cached_property
    def pair_hop(self) -> np.ndarray:
        size = self.basis.size
        hamiltonians._refuse_above_cap(8 * size * size, f"the {size}-dim dense pair hop needs")
        return self.pair_hop_factor.toarray()

    @cached_property
    def bound_bound(self) -> np.ndarray:
        return couplings.bound_bound_couplings(self.params, self.positions, self.bands)

    def model(self, name: str) -> hamiltonians.HamiltonianMatrix:
        if name not in self._models:
            if name not in MODELS:
                raise ConfigError(f"unknown model {name!r}")
            self._models[name] = MODELS[name](self)
        return self._models[name]

    def spectrum(
        self, name: str, k: Optional[int] = None, parity: Optional[int] = None
    ) -> solver.SpectralDecomposition:
        """Eigenpairs of ``model(name)``: all of them, the lowest ``k``, or all
        of one reflection block, ``parity`` +1 (even) or -1 (odd)."""
        key = (name, k, parity)
        if key not in self._spectra:
            self._spectra[key] = solver.eigensolve(self.model(name), k_lowest=k, parity=parity)
        return self._spectra[key]

    def quench(self, name: str, initial: str, times, alphas: Sequence[int], keep=()):
        """Propagate ``initial`` under ``model(name)``; return the
        decomposition used, the states at the indices ``keep`` of ``times``
        (in the order of ``keep``) and the pair correlation P_alpha(t) for
        each alpha.

        A model split by the pair reflection is solved on the one parity
        block the state occupies, when it occupies one: ``fs`` and ``ps``
        are even.  The decomposition keeps its blocks unlifted, one row per
        ket (about P/2 rows), and no P x levels array is formed.  The grid
        is propagated in consecutive chunks of max(QUENCH_MIN_CHUNK,
        levels // 4) samples rounded down to a multiple of 8, so that from
        256 levels up a chunk's complex snapshots, P rows each, take about
        the bytes of the block's real vectors, whatever the length of the
        grid; narrower chunks would repeat the O(P levels) set-up of each
        ``propagate`` call more often, in slower BLAS products.  Each state
        is reduced to its pair correlation as it arrives; only the kept
        states outlive their chunk."""
        psi0 = observables.initial_state(initial, self.basis)
        occupied = solver.occupied_parities(psi0.coefficients, self.basis.mirror)
        parity = None
        if len(occupied) == 1 and solver.splits_by_parity(self.model(name)):
            parity = occupied[0]
        decomp = self.spectrum(name, parity=parity)
        times = np.asarray(times, dtype=float)
        chunk = max(QUENCH_MIN_CHUNK, len(decomp.energies) // 32 * 8)
        wanted, kept = set(keep), {}
        series = {a: np.empty(len(times)) for a in alphas}
        for start in range(0, len(times), chunk):
            for row, state in enumerate(solver.propagate(decomp, psi0, times[start:start + chunk]),
                                        start):
                record = observables.pair_correlation(state, self.basis)
                for a in alphas:
                    series[a][row] = record.probabilities[a - 1]
                if row in wanted:
                    kept[row] = replace(state, coefficients=state.coefficients.copy())
            del state  # a view of the whole chunk: free it before the next
        return decomp, [kept[index] for index in keep], series
