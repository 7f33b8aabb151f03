"""Spin operators and the bare quantum Gibbs state.

Dense spin-S0 matrices in the Sz eigenbasis (descending m = S0 .. -S0), the
closed-form partition function and <Sz> of the bare Hamiltonian
H_S = -omega_l*Sz, and a generic finite-dimensional thermal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpinOperators",
    "spin_operators",
    "QuGibbsStats",
    "qu_gibbs_stats",
    "gibbs_weights",
    "thermal_state",
]


@dataclass(frozen=True)
class SpinOperators:
    """Dense angular momentum matrices for spin S0 = n/2 (hbar = 1)."""

    dim: int
    sz: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    def s_theta(self, theta: float) -> np.ndarray:
        """Coupling direction operator Sz*cos(theta) - Sx*sin(theta)."""
        return math.cos(theta) * self.sz - math.sin(theta) * self.sx


def spin_operators(n: int) -> SpinOperators:
    """Spin matrices in the Sz eigenbasis ordered m = S0, S0-1, ..., -S0."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    sz = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt(S0(S0+1) - m(m+1))
    up = np.sqrt(s0 * (s0 + 1.0) - m[1:] * (m[1:] + 1.0))
    sp = np.zeros((n + 1, n + 1), dtype=complex)
    sp[np.arange(n), np.arange(1, n + 1)] = up
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return SpinOperators(dim=n + 1, sz=sz, sx=sx, sy=sy, s_plus=sp, s_minus=sm)


@dataclass(frozen=True)
class QuGibbsStats:
    z0: float
    m1: float  # <Sz>


def _moments_by_sum(b: float, n: int) -> QuGibbsStats:
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    w = np.exp(b * (m - s0))  # shift by the largest exponent
    z = float(w.sum())
    m1 = float((w * m).sum()) / z
    z0 = z * math.exp(b * s0) if b * s0 < 700 else math.inf
    return QuGibbsStats(z0=z0, m1=m1)


def qu_gibbs_stats(beta: float, n: int, omega_l: float) -> QuGibbsStats:
    """Partition function and <Sz> for H_S = -omega_l*Sz at inverse
    temperature beta.

    Z0 = sinh(b(S0+1/2))/sinh(b/2) with b = beta*omega_l; <Sz> is the
    derivative of log Z0 in b.  The direct diagonal sum is
    used where the closed forms lose digits (small b) or overflow (large b).
    """
    s0 = n / 2.0
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if math.isinf(beta):
        return QuGibbsStats(z0=math.inf, m1=s0)
    b = beta * omega_l
    sp = s0 + 0.5
    if b == 0.0:
        return QuGibbsStats(z0=float(n + 1), m1=0.0)
    if b * sp < 0.5 or b * sp > 350.0:
        return _moments_by_sum(b, n)
    ch = 1.0 / math.tanh(0.5 * b)
    cs = 1.0 / math.tanh(b * sp)
    z0 = math.sinh(b * sp) / math.sinh(0.5 * b)
    m1 = sp * cs - 0.5 * ch
    return QuGibbsStats(z0=z0, m1=m1)


def gibbs_weights(evals: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights exp(-beta*(E - E0)) of ascending evals, E0 = evals[0],
    so that ln Z = -beta*E0 + ln(sum of weights).  beta = inf gives 1 on the
    ground eigenspace (degeneracy tolerance 1e-9 of the span), 0 elsewhere.
    """
    if math.isinf(beta):
        span = float(evals[-1] - evals[0]) or 1.0
        return (evals <= evals[0] + 1e-9 * span).astype(float)
    return np.exp(-beta * (evals - evals[0]))


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta*h)/Z via eigendecomposition and gibbs_weights.

    beta = inf returns the uniform mixture over the ground eigenspace.
    """
    h = np.asarray(h)
    if not np.allclose(h, h.conj().T, atol=1e-12 * max(1.0, float(np.abs(h).max()))):
        raise ValueError("hamiltonian must be Hermitian")
    evals, evecs = np.linalg.eigh(h)
    w = gibbs_weights(evals, beta)
    w /= w.sum()
    return (evecs * w[None, :]) @ evecs.conj().T
