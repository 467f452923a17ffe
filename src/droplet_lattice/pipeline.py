"""The elimination chain as one lazy object.

``Pipeline(params)`` holds one parameter point: qubit positions and pair
basis up front, then on first use the bath bands, the effective couplings
of the first and second elimination, the bound-to-bound block, any model
of ``MODELS`` and its eigendecomposition.  Every stage is computed once and
kept for the life of the object.

Layer functions are called through their modules (``bath.solve_bath``, not
an imported name), so a caller that rebinds a module attribute, such as a
tracer, sees every call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import bath, couplings, hamiltonians, observables, solver
from . import params as parameters
from .errors import ConfigError
from .params import PairBasis, SystemParams

#: least samples per ``solver.propagate`` call of ``Pipeline.quench``
QUENCH_MIN_CHUNK = 64

#: Model name -> builder of its Hamiltonian from a pipeline.
MODELS = {
    "spin": lambda p: hamiltonians.build_spin_model(p.couplings, p.basis, p.params),
    "single": lambda p: hamiltonians.build_constrained_hop(p.couplings, p.basis, p.params),
    "tilde-single": lambda p: hamiltonians.build_unconstrained_hop(p.couplings, p.basis, p.params),
    "pair": lambda p: hamiltonians.build_pair_hop(p.couplings, p.basis, p.params),
    "adia0": lambda p: hamiltonians.build_adiabatic_model(
        p.couplings, p.basis, p.params, p.bands, p.bound_bound
    ),
    "adia1": lambda p: hamiltonians.build_adiabatic_model(p.couplings, p.basis, p.params, p.bands),
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
    def couplings(self) -> couplings.EffectiveCouplings:
        return couplings.build_effective_couplings(
            self.params, self.positions, self.basis, self.bands
        )

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
        are even.  The grid is propagated in consecutive chunks of
        max(QUENCH_MIN_CHUNK, levels // 2) samples rounded down to a multiple
        of 8, so that from 128 levels up a chunk's complex snapshots take no
        more bytes than the decomposition's real vectors, whatever the length
        of the grid.  Each state is reduced to its pair correlation as it
        arrives; only the kept states outlive their chunk."""
        psi0 = observables.initial_state(initial, self.basis)
        occupied = solver.occupied_parities(psi0.coefficients, self.basis.mirror)
        parity = None
        if len(occupied) == 1 and solver.splits_by_parity(self.model(name)):
            parity = occupied[0]
        decomp = self.spectrum(name, parity=parity)
        times = np.asarray(times, dtype=float)
        chunk = max(QUENCH_MIN_CHUNK, len(decomp.energies) // 16 * 8)
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
