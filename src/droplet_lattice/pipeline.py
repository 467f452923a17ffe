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

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import bath, couplings, hamiltonians, observables, solver
from . import params as parameters
from .errors import ConfigError
from .params import PairBasis, SystemParams

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

    def quench(self, name: str, initial: str, times, alphas: Sequence[int]):
        """Propagate ``initial`` under ``model(name)``; return the
        decomposition used, the states at ``times`` and the pair correlation
        P_alpha(t) for each alpha.

        A model split by the pair reflection is solved on the one parity
        block the state occupies, when it occupies one: ``fs`` and ``ps``
        are even."""
        psi0 = observables.initial_state(initial, self.basis)
        occupied = solver.occupied_parities(psi0.coefficients, self.basis.mirror)
        parity = None
        if len(occupied) == 1 and solver.splits_by_parity(self.model(name)):
            parity = occupied[0]
        decomp = self.spectrum(name, parity=parity)
        states = solver.propagate(decomp, psi0, times)
        series = {a: np.empty(len(times)) for a in alphas}
        for row, state in enumerate(states):
            record = observables.pair_correlation(state, self.basis)
            for a in alphas:
                series[a][row] = record.probabilities[a - 1]
        return decomp, states, series
