"""Numerically exact quantum mean-force states via a reaction coordinate.

The Lorentzian reservoir is mapped onto a single harmonic mode (frequency
Omega = omega_0, coupling lambda = sqrt(Q*omega_0)) that couples to the spin
through S_theta; the residual bath strength gamma = Gamma/(2*pi*omega_0) is
reported and dropped.  The spin-reduced Gibbs state of the composite system
is then computed by dense diagonalization with an oscillator cutoff that is
doubled until the spin observables stop moving.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .model import LorentzianBath, ModelParams
from .qspin import spin_operators, thermal_state
from .results import SpinExpectation

__all__ = [
    "RcParams",
    "RcResult",
    "RcNotConverged",
    "rc_params",
    "rc_hamiltonian",
    "rc_mf_state",
    "rc_expectations",
]

_DIM_LIMIT = 20000


class RcNotConverged(RuntimeError):
    pass


@dataclass(frozen=True)
class RcParams:
    omega_rc: float
    lambda_rc: float
    gamma_rc: float
    n_levels: int

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("need at least 2 oscillator levels")


@dataclass(frozen=True)
class RcResult:
    rho: np.ndarray
    n_used: int
    converged: bool
    z_mf: Optional[float] = None


def rc_params(bath: LorentzianBath, n_levels: int = 16) -> RcParams:
    if not isinstance(bath, LorentzianBath):
        raise TypeError("reaction-coordinate mapping requires a Lorentzian bath")
    gamma = bath.gamma_w / (2.0 * math.pi * bath.omega_0)
    if gamma > 0.05:
        warnings.warn(
            f"residual-bath strength gamma_rc = {gamma:.4f} > 0.05; dropping "
            "the residual bath is a poorer approximation here",
            stacklevel=2,
        )
    return RcParams(
        omega_rc=bath.omega_0,
        lambda_rc=math.sqrt(bath.q * bath.omega_0),
        gamma_rc=gamma,
        n_levels=n_levels,
    )


def rc_hamiltonian(params: ModelParams, rc: RcParams) -> np.ndarray:
    """-omega_l Sz x 1 + Omega 1 x a^dag a + lambda S_theta x (a + a^dag)
    in the Sz (x) number basis.

    Every term is real in this basis, so the matrix is real symmetric and
    its eigendecomposition runs in real arithmetic, several times cheaper
    than the complex Hermitian one."""
    n_osc = rc.n_levels
    dim = (params.n + 1) * n_osc
    if dim > _DIM_LIMIT:
        raise ValueError(f"composite dimension {dim} exceeds {_DIM_LIMIT}")
    so = spin_operators(params.n)
    ident_s = np.eye(params.n + 1)
    num = np.diag(np.arange(n_osc, dtype=float))
    a = np.diag(np.sqrt(np.arange(1, n_osc, dtype=float)), k=1)
    x_op = a + a.T
    h = (np.kron(-params.omega_l * so.sz.real, np.eye(n_osc))
         + np.kron(ident_s, rc.omega_rc * num)
         + rc.lambda_rc * np.kron(so.s_theta(params.theta).real, x_op))
    return h


def _partial_trace_osc(rho: np.ndarray, d_spin: int, n_osc: int) -> np.ndarray:
    return rho.reshape(d_spin, n_osc, d_spin, n_osc).trace(axis1=1, axis2=3)


def _log_z(h: np.ndarray, beta: float) -> float:
    evals = np.linalg.eigvalsh(h)
    return float(logsumexp(-beta * evals))


@functools.lru_cache(maxsize=256)
def rc_mf_state(params: ModelParams, tol: float = 1e-6,
                n_max: int = 2048) -> RcResult:
    """Spin-reduced thermal state of the spin + reaction-coordinate system.

    The oscillator cutoff starts at 16 levels (more at high temperature,
    where the cutoff must exceed the thermal occupation of the mode before
    the doubling test is meaningful) and doubles until both spin observables
    move by less than tol, raising RcNotConverged past n_max.
    Also reports z_mf = tr exp(-beta H) / tr exp(-beta Omega a^dag a), the
    mean-force partition function (None at beta = inf, inf past the float
    range).  The last 256 results are memoised; the regime scans revisit
    the same couplings once per approximation.
    """
    if not isinstance(params.bath, LorentzianBath):
        raise TypeError("reaction-coordinate mapping requires a Lorentzian bath")
    so = spin_operators(params.n)
    d_spin = params.n + 1
    beta = params.beta
    prev = None
    n_levels = 16
    if beta > 0 and beta * params.bath.omega_0 < 50.0:
        # two under-truncated solves can agree within tol while both miss
        # most of the thermal weight; keep the cutoff above the occupation
        n_bar = 1.0 / math.expm1(beta * params.bath.omega_0)
        while n_levels < 4.0 * n_bar + 10.0 and n_levels < n_max:
            n_levels *= 2
    while n_levels <= n_max:
        if d_spin * n_levels > _DIM_LIMIT:
            raise ValueError(
                f"composite dimension {d_spin * n_levels} exceeds {_DIM_LIMIT}"
            )
        rc = rc_params(params.bath, n_levels=n_levels)
        h = rc_hamiltonian(params, rc)
        rho_full = thermal_state(h, beta)
        rho = _partial_trace_osc(rho_full, d_spin, n_levels).astype(complex)
        sz = float(np.trace(rho @ so.sz).real)
        sx = float(np.trace(rho @ so.sx).real)
        if prev is not None and abs(sz - prev[0]) < tol and abs(sx - prev[1]) < tol:
            z_mf = None
            if not math.isinf(beta):
                log_zr = float(logsumexp(-beta * rc.omega_rc
                                         * np.arange(n_levels)))
                log_z_mf = _log_z(h, beta) - log_zr
                z_mf = math.exp(log_z_mf) if log_z_mf < 709.0 else math.inf
            return RcResult(rho=rho, n_used=n_levels, converged=True,
                            z_mf=z_mf)
        prev = (sz, sx)
        n_levels *= 2
    raise RcNotConverged(
        f"spin observables still moving at n_levels = {n_max}"
    )


def rc_expectations(result: RcResult, ops=None) -> SpinExpectation:
    """Normalized spin expectations of a reduced state."""
    if not result.converged:
        raise ValueError("result is not converged")
    d = result.rho.shape[0]
    if ops is None:
        ops = spin_operators(d - 1)
    s0 = (d - 1) / 2.0
    sz = float(np.trace(result.rho @ ops.sz).real) / s0
    sx = float(np.trace(result.rho @ ops.sx).real) / s0
    sy = float(np.trace(result.rho @ ops.sy).real) / s0
    return SpinExpectation(sz=sz, sx=sx, sy=sy, method="rc",
                           converged=result.converged,
                           n_rc_used=result.n_used)
