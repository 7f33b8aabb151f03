"""Numerically exact quantum mean-force states via a reaction coordinate.

The Lorentzian reservoir is mapped onto a single harmonic mode (frequency
Omega = omega_0, coupling lambda = sqrt(Q*omega_0)) that couples to the spin
through S_theta; the residual bath, of strength gamma = Gamma/(2*pi*omega_0),
is dropped, with a warning when gamma > 0.05.  The composite Hamiltonian is
diagonalized densely, once per oscillator cutoff; that one decomposition
gives both the spin-reduced Gibbs state and ln Z.  The cutoff is doubled
until the spin observables stop moving.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelParams, lorentzian_bath
from .qspin import gibbs_weights, s_theta, spin_moments, sz_ladder
from .results import SpinExpectation

__all__ = [
    "RcResult",
    "RcNotConverged",
    "rc_hamiltonian",
    "rc_mf_state",
    "rc_expectations",
]

_DIM_LIMIT = 20000


class RcNotConverged(RuntimeError):
    pass


@dataclass(frozen=True)
class RcResult:
    rho: np.ndarray
    n_used: int
    z_mf: Optional[float] = None


def _rc_mode(params: ModelParams) -> tuple[float, float]:
    """The reaction coordinate's (Omega, lambda) = (omega_0, sqrt(Q*omega_0))."""
    bath = lorentzian_bath(params.bath, "qmf-rc")
    return bath.omega_0, math.sqrt(bath.q * bath.omega_0)


def rc_hamiltonian(params: ModelParams, n_levels: int) -> np.ndarray:
    """-omega_l Sz x 1 + Omega 1 x a^dag a + lambda S_theta x (a + a^dag)
    in the Sz (x) number basis, the oscillator cut at n_levels >= 2.

    Every term is real in this basis, so the matrix is real symmetric and
    its eigendecomposition runs in real arithmetic, several times cheaper
    than the complex Hermitian one."""
    if n_levels < 2:
        raise ValueError("need at least 2 oscillator levels")
    dim = (params.n + 1) * n_levels
    if dim > _DIM_LIMIT:
        raise ValueError(f"composite dimension {dim} exceeds {_DIM_LIMIT}")
    omega, lam = _rc_mode(params)
    m, _ = sz_ladder(params.n)
    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1)
    h = lam * np.kron(s_theta(params.n, params.theta), a + a.T)
    # a + a^dag has a zero diagonal, so the coupling term's is zero too and
    # the free part -omega_l m_j + Omega k fills it
    np.fill_diagonal(h, np.add.outer(-params.omega_l * m,
                                     omega * np.arange(n_levels)))
    return h


def _log_geometric(x: float, n: int) -> float:
    """ln sum_{k<n} exp(-k x) for x >= 0: the truncated oscillator's
    partition function, in closed form."""
    if x == 0.0:
        return math.log(n)
    return math.log(math.expm1(-n * x) / math.expm1(-x))


# the last Hamiltonian solved, keyed by what rc_hamiltonian reads but the
# cutoff, and its (evals, vecs) per cutoff
_eigh_key = None
_eigh_chain: dict = {}


def _rc_eigh(params: ModelParams, n_levels: int):
    """Read-only (evals, vecs) of rc_hamiltonian(params, n_levels), kept
    for the last Hamiltonian only: another key drops the old chain before
    its first eigh runs."""
    global _eigh_key
    key = (params.n, params.omega_l, params.theta, *_rc_mode(params))
    if key != _eigh_key:
        _eigh_chain.clear()
        _eigh_key = key
    pair = _eigh_chain.get(n_levels)
    if pair is None:
        pair = np.linalg.eigh(rc_hamiltonian(params, n_levels))
        for a in pair:
            a.flags.writeable = False
        _eigh_chain[n_levels] = pair
    return pair


def _reduced_state(vecs: np.ndarray, w: np.ndarray, d_spin: int) -> np.ndarray:
    """sum_k w_k tr_osc |k><k| / sum(w): the eigenvectors scaled by sqrt(w)
    and reshaped spin-major to (d_spin, n_levels*dim) give it as V V^T.  The
    scaled copy lives only in this call, so it is freed before the next
    eigh."""
    v = (vecs * np.sqrt(w)).reshape(d_spin, -1)
    return v @ v.T / w.sum()


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
    The Hamiltonian does not depend on beta, so the decompositions of the
    last one solved are kept, one per cutoff, and a temperature sweep
    diagonalises each cutoff once.  They hold 8*dim^2 bytes of eigenvectors
    per cutoff, dim = (n+1)*n_levels, at most 4/3 of the largest cutoff's
    in all: 11 MB up to cutoff 512 at n = 1, 179 MB up to 2048.  A solve
    at another Hamiltonian drops them before its first eigh.
    Also reports z_mf = tr exp(-beta H) / tr exp(-beta Omega a^dag a), the
    mean-force partition function (None at beta = inf, inf past the float
    range).  The last 256 results are memoised; the regime scans revisit
    the same couplings once per approximation.
    """
    bath = lorentzian_bath(params.bath, "qmf-rc")
    omega = bath.omega_0
    gamma = bath.gamma_w / (2.0 * math.pi * omega)
    if gamma > 0.05:
        warnings.warn(
            f"residual-bath strength gamma_rc = {gamma:.4f} > 0.05; dropping "
            "the residual bath is a poorer approximation here",
            stacklevel=2,
        )
    d_spin = params.n + 1
    beta = params.beta
    prev = None
    n_levels = 16
    if beta > 0 and beta * omega < 50.0:
        # two under-truncated solves can agree within tol while both miss
        # most of the thermal weight; keep the cutoff above the occupation
        n_bar = 1.0 / math.expm1(beta * omega)
        while n_levels < 4.0 * n_bar + 10.0 and n_levels < n_max:
            n_levels *= 2
    while n_levels <= n_max:
        evals, vecs = _rc_eigh(params, n_levels)
        w = gibbs_weights(evals, beta)
        rho = _reduced_state(vecs, w, d_spin)
        sz, sx = spin_moments(rho)
        if prev is not None and abs(sz - prev[0]) < tol and abs(sx - prev[1]) < tol:
            z_mf = None
            if not math.isinf(beta):
                log_zr = _log_geometric(beta * omega, n_levels)
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
    return SpinExpectation(sz=sz / s0, sx=sx / s0, n_rc_used=result.n_used)
