"""The spin-S0 Sz basis and the bare quantum Gibbs state.

Every spin state and operator of this package is real in the Sz eigenbasis
(descending m = S0 .. -S0): H_S = -omega_l*Sz is diagonal there and
S_theta = cos(theta)*Sz - sin(theta)*Sx is real tridiagonal.  This module
is the one place that knows that basis: the ladder (m_j, a_j), the
coupling operator S_theta, the spin moments of a state, the bare Gibbs
weights, and a generic finite-dimensional thermal state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import spin_length

__all__ = [
    "sz_ladder",
    "s_theta",
    "spin_moments",
    "qu_gibbs_stats",
    "gibbs_weights",
    "thermal_state",
]


@functools.lru_cache(maxsize=128)
def sz_ladder(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, a) for spin S0 = n/2: m_j = S0 - j (j = 0..n), the Sz eigenvalues,
    and a_j = <m_j + 1|S+|m_j> = sqrt(j(n + 1 - j)) (j = 1..n), the ladder
    elements.  Read-only arrays, cached per n."""
    spin_length(n)  # checks n
    j = np.arange(n + 1.0)
    m, a = n / 2.0 - j, np.sqrt(j[1:] * (n + 1.0 - j[1:]))
    m.flags.writeable = a.flags.writeable = False
    return m, a


def s_theta(n: int, theta: float) -> np.ndarray:
    """The coupling direction Sz*cos(theta) - Sx*sin(theta), a real
    tridiagonal matrix in the Sz basis (<m_j - 1|Sx|m_j> = a_j/2)."""
    m, a = sz_ladder(n)
    out = np.diag(math.cos(theta) * m)
    off = -math.sin(theta) * (0.5 * a)
    i = np.arange(n)
    out[i, i + 1] = out[i + 1, i] = off
    return out


def spin_moments(rho: np.ndarray) -> tuple[float, float]:
    """(<Sz>, <Sx>) of a real symmetric state in the Sz basis:
    sum m_j rho_jj and sum a_j rho_(j-1, j), summed exactly (fsum)."""
    m, a = sz_ladder(rho.shape[0] - 1)
    return (math.fsum(m * np.diagonal(rho)),
            math.fsum(a * np.diagonal(rho, 1)))


def qu_gibbs_stats(beta: float, n: int, omega_l: float) -> float:
    """<Sz> for H_S = -omega_l*Sz at inverse temperature beta, from the
    Gibbs weights on the ladder."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    m, _ = sz_ladder(n)
    w = gibbs_weights(-omega_l * m, beta)
    return math.fsum(w * m) / math.fsum(w)


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
