"""Physical parameters, unit conventions, and basis bookkeeping.

Units: the cavity tunneling energy J is the unit of energy (J = 1),
hbar = 1, and the lattice constant a = 1.  Only detunings enter any
computed quantity, so energies are measured in the frame where the cavity
frequency omega_c is 0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, GeometryError, SignError, ValidityError

J = 1.0


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter set for one simulation.

    Attributes
    ----------
    n_cavities : int
        Number of cavities N (odd, so the momentum grid contains k = 0).
    n_qubits : int
        Number of two-level emitters.
    spacing : int
        Qubit spacing in cavity units; 0 couples all qubits to one cavity.
    g : float
        Qubit-cavity coupling (units of J).
    u : float
        Onsite photon-photon interaction, negative for bound pairs.
    delta : float
        Two-excitation detuning from the bottom of the photon-pair bound
        band, negative in the supported band-gap regime.
    """

    n_cavities: int
    n_qubits: int
    spacing: int
    g: float
    u: float
    delta: float

    # derived, filled in __post_init__
    omega_e: float = field(init=False)
    cavity_qubit_detuning: float = field(init=False)
    band_edge_detuning: float = field(init=False)
    bound_band_bottom: float = field(init=False)

    def __post_init__(self):
        if self.u >= 0:
            raise SignError(f"onsite interaction must be negative, got u={self.u}")
        if self.delta >= 0:
            raise SignError(f"band-gap regime needs delta < 0, got delta={self.delta}")
        if self.g < 0:
            raise SignError(f"coupling must be non-negative, got g={self.g}")
        if self.n_cavities % 2 == 0:
            raise GeometryError(
                f"n_cavities must be odd for a symmetric momentum grid, got {self.n_cavities}"
            )
        if self.spacing < 0:
            raise GeometryError(f"spacing must be >= 0, got {self.spacing}")
        if self.n_cavities <= self.n_qubits * max(self.spacing, 1):
            raise GeometryError(
                f"array of {self.n_cavities} cavities cannot hold "
                f"{self.n_qubits} qubits at spacing {self.spacing}"
            )
        # a product, not ** 2, so a huge g gives an infinite limit, not an OverflowError
        factor = 1 + self.g / (4 * J)
        limit = 4 * J * math.sqrt(factor * factor - 1)
        if abs(self.u) <= limit:
            raise ValidityError(
                f"|u|={abs(self.u):g} must exceed {limit:g} for both adiabatic "
                "elimination steps to be off-resonant"
            )
        root = math.sqrt(self.u * self.u + 16 * J * J)
        object.__setattr__(self, "cavity_qubit_detuning", 0.5 * (-self.delta + root))
        object.__setattr__(self, "omega_e", -self.cavity_qubit_detuning)
        object.__setattr__(self, "bound_band_bottom", -root)
        object.__setattr__(
            self, "band_edge_detuning", self.cavity_qubit_detuning - 2 * J
        )
        # exact identity: delta = 2 omega_e - bound_band_bottom; the negated
        # comparison also rejects NaN inputs
        if not abs((2 * self.omega_e - self.bound_band_bottom) - self.delta) < 1e-12 * max(
            1.0, abs(self.delta)
        ):
            raise ValidityError(
                f"parameters not finite or inconsistent: delta={self.delta}, u={self.u}"
            )

    def content_hash(self) -> str:
        payload = json.dumps(asdict_params(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# the settable parameters, in declaration order; the rest are derived
_SETTABLE = tuple(f for f in fields(SystemParams) if f.init)
_OPTIONAL = {"spacing": 1}


def asdict_params(params: SystemParams) -> dict:
    """The settable parameters of ``params`` as a plain mapping."""
    return {f.name: getattr(params, f.name) for f in _SETTABLE}


def build_params(raw: dict) -> SystemParams:
    """Construct validated SystemParams from a plain mapping.

    Integer fields accept anything ``int()`` takes except a number with a
    fractional part, float fields anything ``float()`` takes that is finite;
    bools and other values raise ``ConfigError``.
    """
    unknown = set(raw) - {f.name for f in _SETTABLE}
    if unknown:
        raise ValidityError(f"unknown parameter keys: {sorted(unknown)}")
    values = {}
    for f in _SETTABLE:
        value = raw.get(f.name, _OPTIONAL.get(f.name))
        if isinstance(value, bool):
            raise ConfigError(f"parameter {f.name} must be a number, got {value!r}")
        if f.type == "int" and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"parameter {f.name} must be an integer, got {value!r}")
        try:
            # f.type is the annotation text (postponed evaluation)
            values[f.name] = int(value) if f.type == "int" else float(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"parameter {f.name} must be a number, got {value!r}") from None
        if not math.isfinite(values[f.name]):
            raise ConfigError(f"parameter {f.name} must be finite, got {value!r}")
    return SystemParams(**values)


def default_params(**overrides) -> SystemParams:
    """The workhorse parameter set used throughout the regression suite."""
    base = dict(n_cavities=501, n_qubits=60, spacing=1, g=1 / 50, u=-1.0, delta=-1 / 50)
    base.update(overrides)
    return build_params(base)


def qubit_positions(params: SystemParams) -> np.ndarray:
    """Cavity indices (1-based) of the regularly spaced, centered qubit block."""
    n, n_e, x = params.n_cavities, params.n_qubits, params.spacing
    if n_e * x >= n:
        raise GeometryError(f"{n_e} qubits at spacing {x} exceed {n} cavities")
    first = (n - (n_e - 1) * x + 1) // 2
    return first + x * np.arange(n_e)


@dataclass(frozen=True)
class PairBasis:
    """Bijection between excited-qubit pairs (i, j), i < j, and linear indices.

    Ordering is canonical: blocks of fixed separation r = j - i in ascending
    r, ascending i within each block.  Indices i, j are 1-based.  ``mirror``
    maps each pair to its image under the reflection of the qubit block,
    (i, j) -> (N_e + 1 - j, N_e + 1 - i), which keeps r and so reverses each
    separation block; pairs with i + j = N_e + 1 are their own image.
    """

    n_qubits: int
    i_index: np.ndarray = field(init=False, repr=False)
    j_index: np.ndarray = field(init=False, repr=False)
    separations: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    mirror: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_e = self.n_qubits
        if n_e < 2:
            raise GeometryError(f"pair basis needs at least 2 qubits, got {n_e}")
        i_list, j_list = [], []
        for r in range(1, n_e):
            for i in range(1, n_e - r + 1):
                i_list.append(i)
                j_list.append(i + r)
        i_arr = np.asarray(i_list)
        j_arr = np.asarray(j_list)
        object.__setattr__(self, "i_index", i_arr)
        object.__setattr__(self, "j_index", j_arr)
        object.__setattr__(self, "separations", j_arr - i_arr)
        object.__setattr__(self, "centers", 0.5 * (i_arr + j_arr))
        # index p = offset_r + i - 1 goes to offset_r + (N_e + 1 - r - i) - 1
        object.__setattr__(
            self, "mirror", np.arange(len(i_arr)) + n_e + 1 - (j_arr - i_arr) - 2 * i_arr
        )

    @property
    def size(self) -> int:
        return self.n_qubits * (self.n_qubits - 1) // 2

    def encode(self, i: int, j: int) -> int:
        """Linear index of the ordered pair (i, j) with 1 <= i < j <= N_e."""
        n_e = self.n_qubits
        if not (1 <= i < j <= n_e):
            raise IndexError(f"pair ({i}, {j}) out of range for {n_e} qubits")
        r = j - i
        # offset of the r-block: sum_{s=1}^{r-1} (N_e - s)
        return (r - 1) * n_e - r * (r - 1) // 2 + (i - 1)

    def decode(self, p: int) -> tuple[int, int]:
        if not (0 <= p < self.size):
            raise IndexError(f"pair index {p} out of range for size {self.size}")
        return int(self.i_index[p]), int(self.j_index[p])


@dataclass(frozen=True)
class MomentumGrid:
    """Symmetric first-Brillouin-zone grid k_n = 2 pi n / N, n = -(N-1)/2 ... (N-1)/2."""

    n_cavities: int
    indices: np.ndarray = field(init=False, repr=False)
    wavevectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_cavities
        if n % 2 == 0 or n < 3:
            raise GeometryError(f"momentum grid needs odd n_cavities >= 3, got {n}")
        idx = np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "wavevectors", 2 * np.pi * idx / n)

    @property
    def zero_index(self) -> int:
        return (self.n_cavities - 1) // 2
