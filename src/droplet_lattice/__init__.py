"""Two-excitation simulator for qubit arrays coupled to a Kerr-nonlinear
cavity lattice: effective spin models from two-step adiabatic elimination,
exact diagonalization at every level of description, quench dynamics, and
droplet-state analysis."""

from .bath import BathBands, RelativeBoundState, solve_bath, solve_bound_state
from .couplings import EffectiveCouplings, build_effective_couplings
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

__version__ = "0.1.0"
