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

from .classical import _us_tanh, cl_gibbs_stats, us_expectations
from .model import (BareQBath, LorentzianBath, ModelParams, _check_positive,
                    alpha_scaling, spin_length)
from .qspin import gibbs_weights, s_theta, sz_ladder
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


def us_quantum_state(params: ModelParams) -> UsState:
    """Ultrastrong quantum mean-force density matrix.

    rho = (1/2)[P+ + P- + (P+ - P-) tanh(beta*omega_l*S0*cos(theta))] where
    P(+-) project on the eigenvectors of S_theta at its extreme eigenvalues
    +-S0, the last and first columns of one real eigh.
    """
    _, vecs = np.linalg.eigh(s_theta(params.n, params.theta))
    p_plus = np.outer(vecs[:, -1], vecs[:, -1])
    p_minus = np.outer(vecs[:, 0], vecs[:, 0])
    t = _us_tanh(params)
    return UsState(rho=0.5 * (p_plus + p_minus + t * (p_plus - p_minus)))


def mll_bare_ratio(beta_prime: float, n: int, omega_l: float = 1.0) -> float:
    """Ratio of the normalized quantum bare-spin partition function to the
    classical one at fixed scaled temperature beta' = beta*S0.

    Both partition functions are taken in log space, so the ratio stays
    finite where either overflows.  Tends to 1 as n grows (the bare-spin
    large-spin limit)."""
    _check_positive(beta_prime=beta_prime)
    beta = beta_prime / spin_length(n)
    m, _ = sz_ladder(n)
    evals = -omega_l * m
    log_zq = -beta * evals[0] + math.log(
        math.fsum(gibbs_weights(evals, beta)) / (n + 1))
    return math.exp(log_zq - cl_gibbs_stats(beta_prime * omega_l).log_z)


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
    spins = [(n, spin_length(n)) for n in n_list]  # n >= 1, checked first
    table = SweepTable(
        columns=("n", "beta_prime", "sz", "sx"),
        metadata={"alpha": alpha, "theta": theta, "method": method,
                  "omega_l": omega_l},
    )
    classical = {}
    for bp in beta_prime_grid:
        # classical row: scaling-invariant in n, evaluate once at n = 2;
        # cmf reads the bath only through Q
        p = ModelParams(n=2, omega_l=omega_l, theta=theta,
                        bath=BareQBath(alpha_scaling(alpha, 1.0, omega_l)),
                        beta=bp)
        c = SOLVERS["cmf"](p)
        classical[bp] = c
        table.append(0, bp, c.sz, c.sx)
    for n, s0 in spins:
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
