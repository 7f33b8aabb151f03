"""Numerically exact quantum mean-force states via a reaction coordinate.

The Lorentzian reservoir is mapped onto a single harmonic mode (frequency
Omega = omega_0, coupling lambda = sqrt(Q*omega_0)) that couples to the spin
through S_theta; the residual bath strength gamma = Gamma/(2*pi*omega_0) is
reported and dropped.  The composite Hamiltonian is diagonalized densely,
once per oscillator cutoff; that one decomposition gives both the
spin-reduced Gibbs state and ln Z.  The cutoff is doubled until the spin
observables stop moving.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import LorentzianBath, ModelParams
from .qspin import gibbs_weights, s_theta, spin_moments, sz_ladder
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
    m, _ = sz_ladder(params.n)
    a = np.diag(np.sqrt(np.arange(1, n_osc, dtype=float)), k=1)
    h = rc.lambda_rc * np.kron(s_theta(params.n, params.theta), a + a.T)
    # a + a^dag has a zero diagonal, so the coupling term's is zero too and
    # the free part -omega_l m_j + Omega k fills it
    np.fill_diagonal(h, np.add.outer(-params.omega_l * m,
                                     rc.omega_rc * np.arange(n_osc)))
    return h


def _log_geometric(x: float, n: int) -> float:
    """ln sum_{k<n} exp(-k x) for x >= 0: the truncated oscillator's
    partition function, in closed form."""
    if x == 0.0:
        return math.log(n)
    return math.log(math.expm1(-n * x) / math.expm1(-x))


@functools.lru_cache(maxsize=256)
def rc_mf_state(params: ModelParams, tol: float = 1e-6,
                n_max: int = 2048) -> RcResult:
    """Spin-reduced thermal state of the spin + reaction-coordinate system.

    The oscillator cutoff starts at 16 levels (more at high temperature,
    where the cutoff must exceed the thermal occupation of the mode before
    the doubling test is meaningful) and doubles until both spin observables
    move by less than tol, raising RcNotConverged past n_max.
    Each cutoff costs one eigh: with the eigenvectors scaled by sqrt(w)
    (w = gibbs_weights) and reshaped spin-major to (n+1, n_levels*dim), the
    reduced state is V V^T / sum(w), and ln Z = -beta*E0 + ln sum(w).
    Also reports z_mf = tr exp(-beta H) / tr exp(-beta Omega a^dag a), the
    mean-force partition function (None at beta = inf, inf past the float
    range).  The last 256 results are memoised; the regime scans revisit
    the same couplings once per approximation.
    """
    rc = rc_params(params.bath)
    d_spin = params.n + 1
    beta = params.beta
    prev = None
    n_levels = 16
    if beta > 0 and beta * rc.omega_rc < 50.0:
        # two under-truncated solves can agree within tol while both miss
        # most of the thermal weight; keep the cutoff above the occupation
        n_bar = 1.0 / math.expm1(beta * rc.omega_rc)
        while n_levels < 4.0 * n_bar + 10.0 and n_levels < n_max:
            n_levels *= 2
    while n_levels <= n_max:
        rc = replace(rc, n_levels=n_levels)
        evals, vecs = np.linalg.eigh(rc_hamiltonian(params, rc))
        w = gibbs_weights(evals, beta)
        # in place, and reshaped as a view: no dim x dim temporaries
        vecs *= np.sqrt(w)
        v = vecs.reshape(d_spin, -1)
        rho = v @ v.T / w.sum()
        sz, sx = spin_moments(rho)
        if prev is not None and abs(sz - prev[0]) < tol and abs(sx - prev[1]) < tol:
            z_mf = None
            if not math.isinf(beta):
                log_zr = _log_geometric(beta * rc.omega_rc, n_levels)
                log_z_mf = -beta * evals[0] + math.log(w.sum()) - log_zr
                z_mf = math.exp(log_z_mf) if log_z_mf < 709.0 else math.inf
            # the result is memoised and shared: callers may not write it
            rho.flags.writeable = False
            return RcResult(rho=rho, n_used=n_levels, z_mf=z_mf)
        prev = (sz, sx)
        n_levels *= 2
    raise RcNotConverged(
        f"spin observables still moving at n_levels = {n_max}"
    )


def rc_expectations(result: RcResult) -> SpinExpectation:
    """Spin expectations of a reduced state, normalized by S0."""
    s0 = (result.rho.shape[0] - 1) / 2.0
    sz, sx = spin_moments(result.rho)
    return SpinExpectation(sz=sz / s0, sx=sx / s0, method="rc",
                           n_rc_used=result.n_used)
