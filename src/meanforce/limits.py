"""Ultrastrong-coupling closed forms and the large-spin correspondence.

In the ultrastrong limit the state projects onto the extremal eigenvectors
of the coupling direction S_theta, so both the quantum and the classical
treatments reduce to the same magnetization
tanh(beta*omega_l*S0*cos(theta)) along the tilted axis.  The correspondence
harness sweeps the spin length n at fixed scaled temperature and scaled
coupling to expose convergence of quantum predictions to the classical
mean-force state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classical import _us_tanh, us_expectations
from .model import LorentzianBath, ModelParams, alpha_scaling
from .qspin import qu_gibbs_stats, spin_operators
from .results import SweepTable
from .solvers import SOLVERS

__all__ = [
    "UsState",
    "us_expectations",
    "us_quantum_state",
    "correspondence_sweep",
    "mll_bare_ratio",
]


@dataclass(frozen=True)
class UsState:
    rho: np.ndarray
    sz: float
    sx: float


def us_quantum_state(params: ModelParams) -> UsState:
    """Ultrastrong quantum mean-force density matrix.

    rho = (1/2)[P+ + P- + (P+ - P-) tanh(beta*omega_l*S0*cos(theta))] where
    P(+-) project on the extremal S_theta eigenvectors exp(i*theta*Sy)|+-S0>.
    """
    n = params.n
    so = spin_operators(n)
    # exp(i*theta*Sy) via eigendecomposition of Sy
    evals, evecs = np.linalg.eigh(so.sy)
    u = (evecs * np.exp(1j * params.theta * evals)[None, :]) @ evecs.conj().T
    top = u[:, 0]      # rotated |+S0>
    bot = u[:, n]      # rotated |-S0>
    p_plus = np.outer(top, top.conj())
    p_minus = np.outer(bot, bot.conj())
    t = _us_tanh(params)
    rho = 0.5 * (p_plus + p_minus + t * (p_plus - p_minus))
    s0 = params.s0
    sz = float(np.trace(rho @ so.sz).real) / s0
    sx = float(np.trace(rho @ so.sx).real) / s0
    return UsState(rho=rho, sz=sz, sx=sx)


def mll_bare_ratio(beta_prime: float, n: int, omega_l: float = 1.0) -> float:
    """Ratio of the normalized quantum bare-spin partition function to the
    classical one at fixed scaled temperature beta' = beta*S0.

    Tends to 1 as n grows (the bare-spin large-spin limit)."""
    if beta_prime <= 0:
        raise ValueError("beta_prime must be positive")
    s0 = n / 2.0
    zq = qu_gibbs_stats(beta_prime / s0, n, omega_l).z0 / (n + 1)
    x = beta_prime * omega_l
    zc = math.sinh(x) / x
    return zq / zc


def correspondence_sweep(alpha: float, theta: float,
                         beta_prime_grid: Sequence[float],
                         n_list: Iterable[int] = (1, 2, 5, 100),
                         method: str = "WK",
                         omega_l: float = 1.0,
                         omega_0: float = 7.0,
                         gamma_w: float = 5.0) -> SweepTable:
    """Sweep spin length n at fixed scaled coupling alpha (Q = alpha*wL/S0)
    and scaled inverse temperature beta' = beta*S0.

    Emits quantum (sz, sx) per (n, beta') plus the shared classical CMF row
    (n recorded as 0), and a max-deviation summary per n in the metadata.
    """
    quantum = {"WK": "qmf-wk", "RC": "qmf-rc"}.get(method)
    if quantum is None:
        raise ValueError("method must be WK or RC")
    n_list = list(n_list)
    table = SweepTable(
        columns=("n", "beta_prime", "sz", "sx"),
        metadata={"alpha": alpha, "theta": theta, "method": method,
                  "omega_l": omega_l},
    )
    classical = {}
    for bp in beta_prime_grid:
        # classical row: scaling-invariant in n, evaluate once at n = 2
        q = alpha_scaling(alpha, 1.0, omega_l)
        p = ModelParams(n=2, omega_l=omega_l, theta=theta,
                        bath=LorentzianBath.from_q(q, omega_0, gamma_w),
                        beta=bp)
        c = SOLVERS["cmf"](p)
        classical[bp] = c
        table.append(0, bp, c.sz, c.sx)
    for n in n_list:
        s0 = n / 2.0
        q = alpha_scaling(alpha, s0, omega_l)
        bath = LorentzianBath.from_q(q, omega_0, gamma_w)
        dev = 0.0
        for bp in beta_prime_grid:
            p = ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath,
                            beta=bp / s0)
            e = SOLVERS[quantum](p)
            table.append(n, bp, e.sz, e.sx)
            c = classical[bp]
            dev = max(dev, abs(e.sz - c.sz), abs(e.sx - c.sx))
        table.metadata[f"max_dev_n{n}"] = dev
    return table
