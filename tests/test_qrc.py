"""Reaction-coordinate mapping and the numerically exact quantum MF state."""

import math
import warnings

import numpy as np
import pytest

from meanforce.limits import us_expectations
from meanforce.model import BareQBath, LorentzianBath, ModelParams
from meanforce.qrc import (
    RcNotConverged,
    RcParams,
    rc_expectations,
    rc_hamiltonian,
    rc_mf_state,
    rc_params,
)
from meanforce.qspin import spin_operators
from meanforce.qweak import qmf_wk_expectations


def make_params(zeta_val=1.0, theta=math.pi / 4, beta=2.0, n=1,
                omega_l=1.0, omega_0=7.0, gamma_w=0.2):
    s0 = n / 2.0
    bath = LorentzianBath.from_q(zeta_val * omega_l / s0, omega_0, gamma_w)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


def test_rc_parameter_mapping():
    bath = LorentzianBath.from_q(2.0, omega_0=7.0, gamma_w=0.2)
    rc = rc_params(bath)
    assert rc.omega_rc == 7.0
    assert rc.lambda_rc == pytest.approx(math.sqrt(2.0 * 7.0), rel=1e-14)
    assert rc.gamma_rc == pytest.approx(0.2 / (2.0 * math.pi * 7.0), rel=1e-14)


def test_rc_params_warns_on_strong_residual_bath():
    bath = LorentzianBath.from_q(1.0, omega_0=7.0, gamma_w=5.0)
    with pytest.warns(UserWarning, match="residual-bath"):
        rc = rc_params(bath)
    assert rc.gamma_rc > 0.05
    with pytest.raises(TypeError):
        rc_params(BareQBath(q=1.0))
    with pytest.raises(ValueError):
        RcParams(omega_rc=7.0, lambda_rc=1.0, gamma_rc=0.0, n_levels=1)


def test_rc_hamiltonian_structure():
    p = make_params(zeta_val=1.0, n=1)
    rc = rc_params(p.bath, n_levels=4)
    h = rc_hamiltonian(p, rc)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    # zero coupling block-diagonalizes into spin (x) oscillator spectra
    p0 = make_params(zeta_val=0.0)
    h0 = rc_hamiltonian(p0, rc_params(p0.bath, n_levels=4))
    evals = np.sort(np.linalg.eigvalsh(h0))
    expect = np.sort([s * -p0.omega_l + 7.0 * k
                      for s in (0.5, -0.5) for k in range(4)])
    assert np.allclose(evals, expect, atol=1e-12)


def test_rc_dimension_guard():
    p = make_params(n=100)
    with pytest.raises(ValueError, match="dimension"):
        rc_hamiltonian(p, rc_params(p.bath, n_levels=512))


def test_rc_matches_weak_coupling_at_tiny_zeta():
    p = make_params(zeta_val=0.01, beta=2.0)
    rc = rc_expectations(rc_mf_state(p))
    wk = qmf_wk_expectations(p)
    assert abs(rc.sz - wk.sz) < 5e-4
    assert abs(rc.sx - wk.sx) < 5e-4


def test_rc_zero_coupling_is_bare_gibbs():
    p = make_params(zeta_val=0.0, beta=2.0)
    e = rc_expectations(rc_mf_state(p))
    assert e.sz == pytest.approx(math.tanh(1.0), abs=1e-9)
    assert e.sx == pytest.approx(0.0, abs=1e-9)


def test_rc_transverse_coupling_has_no_cold_coherence_along_x():
    # theta = pi/2 at T = 0: sx averages to zero by the S_x -> -S_x symmetry
    p = make_params(zeta_val=2.0, theta=math.pi / 2, beta=math.inf)
    e = rc_expectations(rc_mf_state(p))
    assert abs(e.sx) < 1e-8


def test_rc_approaches_ultrastrong_limit():
    # beta = 2, Q = 1500 puts log z_mf past the float range
    for zeta_val, beta in ((100.0, math.inf), (750.0, 2.0)):
        p = make_params(zeta_val=zeta_val, beta=beta)
        e = rc_expectations(rc_mf_state(p))
        us = us_expectations(p)
        assert abs(e.sz - us.sz) < 1e-2
        assert abs(e.sx - us.sx) < 1e-2
        assert e.sx < 0.0


def test_rc_state_invariants_and_zmf():
    p = make_params(zeta_val=1.0, beta=1.0)
    res = rc_mf_state(p)
    assert res.converged
    rho = res.rho
    assert rho.shape == (2, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert res.z_mf is not None and res.z_mf > 0.0
    # the mean-force partition function is not reported at T = 0
    assert rc_mf_state(p.with_beta(math.inf)).z_mf is None


def test_rc_memo_is_bounded_and_returns_the_same_result():
    p = make_params(zeta_val=0.3, beta=1.5)
    first = rc_mf_state(p)
    assert rc_mf_state(p) is first
    assert rc_mf_state.cache_info().maxsize is not None
    assert rc_expectations(first).n_rc_used == first.n_used


def test_rc_not_converged_raises():
    p = make_params(zeta_val=100.0, beta=math.inf)
    with pytest.raises(RcNotConverged):
        rc_mf_state(p, tol=1e-10, n_max=32)


def test_rc_expectations_rejects_unconverged():
    from meanforce.qrc import RcResult

    bad = RcResult(rho=np.eye(2) / 2.0, n_used=16, converged=False)
    with pytest.raises(ValueError):
        rc_expectations(bad)
