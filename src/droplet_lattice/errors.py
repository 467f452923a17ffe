"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ValidityError(SimulationError):
    """Parameters violate the off-resonance validity condition."""


class SignError(SimulationError):
    """A parameter has the wrong sign for the supported regime."""


class GeometryError(SimulationError):
    """Qubit arrangement does not fit the cavity array."""


class DomainError(SimulationError):
    """A derived quantity left the domain where a formula applies."""


class NoBoundState(SimulationError):
    """No eigenvalue below the two-photon scattering edge."""


class SizeError(SimulationError):
    """Requested matrix exceeds the configured size cap."""


class BasisMismatch(SimulationError):
    """State vector and operator live on different bases."""


class ConvergenceError(SimulationError):
    """Iterative eigensolver failed to converge."""


class BracketError(SimulationError):
    """Scalar minimization found no interior minimum in the bracket."""


class ConfigError(SimulationError):
    """Run configuration failed schema validation."""


class DegeneracyWarning(UserWarning):
    """Non-degenerate perturbation theory applied near a level crossing."""
