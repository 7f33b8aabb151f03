"""Model parameters, bath descriptions, and derived-quantity arithmetic.

Conventions used throughout the package: hbar = 1, spin length S0 = n/2 for
integer n >= 1, system level spacing omega_l > 0, coupling angle
theta in [0, pi/2].  Inverse temperature beta may be any nonnegative float,
including 0 (infinite temperature) and math.inf (T = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LorentzianBath",
    "BareQBath",
    "BathSpec",
    "ModelParams",
    "spin_length",
    "lorentzian_q",
    "zeta",
    "alpha_scaling",
    "j_eval",
    "beta_from_t_half",
    "t_half_from_beta",
    "beta_from_t_spin",
    "t_spin_from_beta",
]


def _check_finite(record, *fields) -> None:
    """Raise ValueError naming the first of fields that is NaN or infinite."""
    for name in fields:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def spin_length(n: int) -> float:
    """Spin length S0 = n/2 for integer n >= 1 (hbar = 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n / 2.0


def lorentzian_q(a_lor: float, omega_0: float) -> float:
    """Reorganization energy Q = A/(2*omega_0^2) of a Lorentzian bath."""
    if a_lor < 0:
        raise ValueError("a_lor must be nonnegative")
    if omega_0 <= 0:
        raise ValueError("omega_0 must be positive")
    return a_lor / (2.0 * omega_0**2)


def zeta(q: float, s0: float, omega_l: float) -> float:
    """Dimensionless relative coupling zeta = Q*S0/omega_l."""
    if omega_l <= 0:
        raise ValueError("omega_l must be positive")
    return q * s0 / omega_l


def alpha_scaling(alpha: float, s0: float, omega_l: float = 1.0) -> float:
    """Reorganization energy Q = alpha*omega_l/S0 (spin-length scaling)."""
    return alpha * omega_l / s0


@dataclass(frozen=True)
class LorentzianBath:
    """Underdamped Lorentzian spectral density.

    J(w) = (A*Gamma/pi) * w / ((omega_0^2 - w^2)^2 + Gamma^2 w^2)
    """

    a_lor: float
    omega_0: float
    gamma_w: float

    def __post_init__(self):
        _check_finite(self, "a_lor", "omega_0", "gamma_w")
        if self.a_lor < 0:
            raise ValueError("a_lor must be nonnegative")
        if self.omega_0 <= 0 or self.gamma_w <= 0:
            raise ValueError("omega_0 and gamma_w must be positive")

    @property
    def q(self) -> float:
        return lorentzian_q(self.a_lor, self.omega_0)

    def j(self, omega):
        w = np.asarray(omega, dtype=float)
        num = (self.a_lor * self.gamma_w / math.pi) * w
        den = (self.omega_0**2 - w**2) ** 2 + (self.gamma_w * w) ** 2
        out = num / den
        return float(out) if np.isscalar(omega) else out

    @classmethod
    def from_q(cls, q: float, omega_0: float, gamma_w: float) -> "LorentzianBath":
        """Bath with requested reorganization energy at the given peak shape."""
        return cls(a_lor=2.0 * q * omega_0**2, omega_0=omega_0, gamma_w=gamma_w)


@dataclass(frozen=True)
class BareQBath:
    """Bath described only by its reorganization energy Q.

    Sufficient for every classical solver; quantum solvers that need the
    spectral shape reject it.
    """

    q: float

    def __post_init__(self):
        _check_finite(self, "q")
        if self.q < 0:
            raise ValueError("q must be nonnegative")


BathSpec = Union[LorentzianBath, BareQBath]


def j_eval(bath: BathSpec, omega: float):
    """Spectral density J(omega); raises for shape-less baths."""
    if isinstance(bath, BareQBath):
        raise ValueError("spectral shape unavailable for a bare-Q bath")
    return bath.j(omega)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter record consumed by every solver.

    beta = math.inf is the T = 0 limit and legal everywhere; beta = 0 is the
    infinite-temperature limit.
    """

    n: int
    omega_l: float
    theta: float
    bath: BathSpec
    beta: float

    def __post_init__(self):
        _check_finite(self, "n", "omega_l")
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")
        if self.omega_l <= 0:
            raise ValueError("omega_l must be positive")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")
        if not self.beta >= 0:
            raise ValueError("beta must be nonnegative (inf allowed), "
                             f"got {self.beta!r}")

    @property
    def s0(self) -> float:
        return spin_length(self.n)

    @property
    def q(self) -> float:
        return self.bath.q

    @property
    def zeta(self) -> float:
        return zeta(self.q, self.s0, self.omega_l)

    def with_beta(self, beta: float) -> "ModelParams":
        return ModelParams(self.n, self.omega_l, self.theta, self.bath, beta)


def beta_from_t_half(t_half: float, omega_l: float = 1.0) -> float:
    """Inverse temperature from t_half = 2*kB*T/omega_l."""
    if not 0 <= t_half < math.inf:
        raise ValueError(
            f"t_half must be finite and nonnegative, got {t_half!r}")
    if t_half == 0.0:
        return math.inf
    return 2.0 / (t_half * omega_l)


def t_half_from_beta(beta: float, omega_l: float = 1.0) -> float:
    if beta == 0.0:
        return math.inf
    return 2.0 / (beta * omega_l)


def beta_from_t_spin(t_spin: float, n: int, omega_l: float = 1.0) -> float:
    """Inverse temperature from t_spin = kB*T/(S0*omega_l)."""
    if not 0 <= t_spin < math.inf:
        raise ValueError(
            f"t_spin must be finite and nonnegative, got {t_spin!r}")
    if t_spin == 0.0:
        return math.inf
    return 1.0 / (t_spin * spin_length(n) * omega_l)


def t_spin_from_beta(beta: float, n: int, omega_l: float = 1.0) -> float:
    if beta == 0.0:
        return math.inf
    return 1.0 / (beta * spin_length(n) * omega_l)
