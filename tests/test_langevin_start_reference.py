"""The streamed Langevin start against the dense inverse-CDF grid.

The reference is the start as it was first written: the whole 1441 x 2881
(v, phi) grid of the spin marginal's weights, one cumsum over it and one
searchsorted for all targets.  The package computes the same running sums
a block of rows at a time and keeps only some of them, so on the same
generator it must return the same five arrays, bit for bit.
"""

import math

import numpy as np
import pytest

from meanforce.dynamics import _StepKernel, _init_ensemble
from meanforce.model import LorentzianBath, ModelParams, beta_from_t_half

THETAS = [1e-3, 0.3, math.pi / 4, 1.2, math.pi / 2]
QS = [0.04, 2.0, 14.0, 500.0]
T_HALFS = [0.05, 0.5, 4.0, 100.0]
NS = [1, 3]
ENSEMBLES = [1, 64, 4096, 8192]


def _dense_cdf(params, kern):
    """The spin marginal's cumulative weights on the whole sphere grid."""
    s0 = params.s0
    v_grid = np.linspace(0.0, math.pi, 1441)
    p_grid = np.arange(2881) * (2.0 * math.pi / 2881)
    st = (kern.cos_t * np.cos(v_grid)[:, None]
          - kern.sin_t * np.outer(np.sin(v_grid), np.cos(p_grid)))
    x1 = params.beta * params.omega_l * s0
    x2 = params.beta * params.q * s0 * s0
    lw = x1 * np.cos(v_grid)[:, None] + x2 * st * st
    w = np.exp(lw - lw.max()).ravel()
    w *= np.repeat(np.sin(v_grid), len(p_grid))
    return v_grid, p_grid, np.cumsum(w)


def _dense_start(params, kern, grid, n_traj, rng):
    """The dense-grid _init_ensemble at beta < inf, given _dense_cdf."""
    s0 = params.s0
    v_grid, p_grid, cdf = grid
    dv = v_grid[1] - v_grid[0]
    dp = p_grid[1] - p_grid[0]
    idx = np.searchsorted(cdf, rng.random(n_traj) * cdf[-1])
    iv, ip = np.unravel_index(idx, (len(v_grid), len(p_grid)))
    v = np.clip(v_grid[iv] + (rng.random(n_traj) - 0.5) * dv, 0.0, math.pi)
    phi = p_grid[ip] + rng.random(n_traj) * dp
    sin_v = np.sin(v)
    sx = s0 * sin_v * np.cos(phi)
    sy = s0 * sin_v * np.sin(phi)
    sz = s0 * np.cos(v)
    s_theta = sz * kern.cos_t - sx * kern.sin_t
    x_std = math.sqrt(kern.kbt) / params.bath.omega_0
    x = -kern.c * s_theta / kern.w0sq + rng.standard_normal(n_traj) * x_std
    p = rng.standard_normal(n_traj) * math.sqrt(kern.kbt)
    return sx, sy, sz, x, p


@pytest.mark.parametrize("theta", THETAS)
def test_streamed_start_equals_dense_grid(theta):
    seed = 0
    for q in QS:
        for t_half in T_HALFS:
            for n in NS:
                params = ModelParams(n=n, omega_l=1.0, theta=theta,
                                     bath=LorentzianBath.from_q(q, 7.0, 5.0),
                                     beta=beta_from_t_half(t_half))
                kern = _StepKernel(params, 1e-4, 1)
                grid = _dense_cdf(params, kern)
                for ens in ENSEMBLES:
                    seed += 1
                    got = _init_ensemble(params, kern, ens, np.random.Generator(
                        np.random.Philox(key=seed)))
                    want = _dense_start(params, kern, grid, ens,
                                        np.random.Generator(
                                            np.random.Philox(key=seed)))
                    for name, a, b in zip(("sx", "sy", "sz", "x", "p"),
                                          got, want):
                        assert np.array_equal(a, b), (
                            name, theta, q, t_half, n, ens)
