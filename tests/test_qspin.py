"""The Sz-basis kernel, bare quantum Gibbs moments, and the generic thermal
state; the dense spin matrices of dense_spin are the independent reference."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from dense_spin import spin_operators
from meanforce.qspin import (gibbs_weights, qu_gibbs_stats, s_theta,
                             spin_moments, sz_ladder, thermal_state)


def comm(a, b):
    return a @ b - b @ a


def bare_z(beta, n, wl):
    """Partition function of H_S = -wl*Sz from the ground-shifted Gibbs
    weights: Z = exp(beta*wl*S0) * sum of weights."""
    m, _ = sz_ladder(n)
    return math.fsum(gibbs_weights(-wl * m, beta)) * math.exp(beta * wl * m[0])


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_angular_momentum_algebra(n):
    so = spin_operators(n)
    assert np.allclose(comm(so.sx, so.sy), 1j * so.sz, atol=1e-12)
    assert np.allclose(comm(so.sy, so.sz), 1j * so.sx, atol=1e-12)
    assert np.allclose(comm(so.sz, so.sx), 1j * so.sy, atol=1e-12)
    s0 = n / 2.0
    casimir = so.sx @ so.sx + so.sy @ so.sy + so.sz @ so.sz
    assert np.allclose(casimir, s0 * (s0 + 1.0) * np.eye(n + 1), atol=1e-12)


def test_ladder_operators():
    so = spin_operators(2)
    assert np.allclose(so.s_plus, (so.sx + 1j * so.sy), atol=1e-12)
    assert np.allclose(so.s_minus, so.s_plus.conj().T, atol=1e-12)
    # basis ordering m = S0 ... -S0
    assert np.allclose(np.diag(so.sz).real, [1.0, 0.0, -1.0])


def test_s_theta_direction():
    so = spin_operators(1)
    th = 0.3
    s_t = so.s_theta(th)
    assert np.allclose(s_t, math.cos(th) * so.sz - math.sin(th) * so.sx)
    with np.testing.assert_raises(AssertionError):
        np.testing.assert_allclose(s_t, so.sz)


def test_spin_operators_validation():
    with pytest.raises(ValueError):
        spin_operators(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 100])
def test_sz_ladder_matches_dense_operators_bitwise(n):
    so = spin_operators(n)
    m, a = sz_ladder(n)
    assert np.array_equal(m, np.diag(so.sz).real)
    assert np.array_equal(a, np.diag(so.s_plus, 1).real)
    assert sz_ladder(n) is sz_ladder(n)
    with pytest.raises(ValueError):
        m[0] = 0.0  # the cached arrays are read-only


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 4, math.pi / 2, 2.5])
def test_s_theta_matches_dense_operators_bitwise(n, theta):
    ref = spin_operators(n).s_theta(theta)
    assert np.array_equal(s_theta(n, theta), ref.real)
    assert not np.any(ref.imag)


@pytest.mark.parametrize("n", [1, 2, 5, 40, 100])
def test_spin_moments_match_dense_traces(n):
    rng = np.random.default_rng(n)
    so = spin_operators(n)
    for _ in range(5):
        b = rng.normal(size=(n + 1, n + 1))
        rho = b @ b.T
        rho /= np.trace(rho)
        sz, sx = spin_moments(rho)
        assert sz == pytest.approx(np.trace(rho @ so.sz).real, abs=1e-14)
        assert sx == pytest.approx(np.trace(rho @ so.sx).real, abs=1e-14)
        assert abs(np.trace(rho @ so.sy)) < 1e-14  # real states carry no <Sy>


def test_gibbs_stats_spin_half_closed_form():
    beta, wl = 1.3, 1.0
    g = qu_gibbs_stats(beta, 1, wl)
    assert g == pytest.approx(0.5 * math.tanh(0.5 * beta * wl), rel=1e-12)
    assert bare_z(beta, 1, wl) == pytest.approx(2.0 * math.cosh(0.5 * beta * wl),
                                         rel=1e-12)


@pytest.mark.parametrize("beta", [1e-4, 0.3, 2.0, 50.0])
@pytest.mark.parametrize("n", [1, 4, 25])
def test_gibbs_stats_match_diagonal_sums(beta, n):
    wl = 1.1
    g = qu_gibbs_stats(beta, n, wl)
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    w = np.exp(beta * wl * (m - s0))
    z = w.sum()
    assert g == pytest.approx(float((w * m).sum() / z), abs=1e-10 * s0)


def test_gibbs_stats_limits():
    g0 = qu_gibbs_stats(0.0, 4, 1.0)
    assert g0 == 0.0
    assert bare_z(0.0, 4, 1.0) == 5.0
    ginf = qu_gibbs_stats(math.inf, 4, 1.0)
    assert ginf == 2.0
    with pytest.raises(ValueError):
        qu_gibbs_stats(-1.0, 1, 1.0)


def test_thermal_state_matches_expm():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = a + a.conj().T
    beta = 0.7
    rho = thermal_state(h, beta)
    ref = expm(-beta * h)
    ref /= np.trace(ref).real
    assert np.allclose(rho, ref, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)


def test_thermal_state_ground_projector():
    # beta = inf gives the uniform mixture over the degenerate ground space
    h = np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex)
    rho = thermal_state(h, math.inf)
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_thermal_state_rejects_non_hermitian():
    with pytest.raises(ValueError):
        thermal_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
