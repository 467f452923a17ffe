"""Two-excitation simulator for qubit arrays coupled to a Kerr-nonlinear
cavity lattice: effective spin models from two-step adiabatic elimination,
exact diagonalization at every level of description, quench dynamics, and
droplet-state analysis."""

import gc
import importlib.util
import sys

#: numpy submodules that scipy's array-API layer imports, through ``from numpy
#: import *`` and ``dir(numpy)``, and that no task uses.  ``numpy.ma`` is read
#: by scipy.linalg's input check (``np.ma.isMaskedArray``), which no task
#: runs: the package loads scipy.linalg's compiled LAPACK and BLAS without
#: that package and calls them directly (``lapack``)
_DEFERRED = ("numpy.f2py", "numpy.ma", "numpy.testing")


def _defer(names):
    """Register each module in ``names`` as lazy, so its body runs on first
    attribute access.  A module already imported, or one not found, is left
    as it is."""
    for name in names:
        if name in sys.modules or (spec := importlib.util.find_spec(name)) is None:
            continue
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # bound on its package as the import system binds a loaded submodule:
        # unbound, numpy's __getattr__ imports the name and recurses
        package, _, attr = name.rpartition(".")
        setattr(sys.modules[package], attr, module)

# no cyclic collection runs while numpy, scipy and the package load, and none
# walks their heap again once it is frozen: it lives until exit, and no
# collection in a forked sweep worker writes to its pages.  The caller's
# collector state comes back afterwards
_collecting = gc.isenabled()
gc.disable()
try:
    from .blas import one_thread_while_loading

    # numpy and scipy load their OpenBLAS in these imports, which start no worker thread
    with one_thread_while_loading():
        _defer(_DEFERRED)
        from .bath import BathBands, RelativeBoundState, solve_bath, solve_bound_state
        from .errors import (
            BasisMismatch,
            BracketError,
            ConfigError,
            ConvergenceError,
            DegeneracyWarning,
            DomainError,
            GeometryError,
            NoBoundState,
            SignError,
            SimulationError,
            SizeError,
            ValidityError,
        )
        from .hamiltonians import (
            HamiltonianMatrix,
            build_adiabatic_model,
            build_complete_sector,
            build_constrained_hop,
            build_full_model,
            build_hop_csr,
            build_pair_hop,
            build_spin_model,
            build_unconstrained_hop,
        )
        from .observables import (
            CorrelationRecord,
            DropletClassification,
            WavepacketState,
            classify_droplet_states,
            distribution_drift,
            initial_state,
            loss_estimates,
            overlap_spectrum,
            pair_correlation,
            photonic_fraction,
            spin_spin_correlation,
        )
        from .params import (
            MomentumGrid,
            PairBasis,
            SystemParams,
            build_params,
            default_params,
            qubit_positions,
        )
        from .pipeline import Pipeline
        from .solver import (
            SpectralDecomposition,
            VariationalResult,
            eigensolve,
            first_order_perturbation,
            minimize_variational,
            propagate,
            variational_energy,
        )
    gc.freeze()
finally:
    if _collecting:
        gc.enable()

__version__ = "0.1.0"
