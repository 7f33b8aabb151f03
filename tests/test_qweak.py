"""Principal-value bath integrals and the second-order quantum state."""

import math

import numpy as np
import pytest

from meanforce.model import BareQBath, LorentzianBath, ModelParams
from meanforce.qspin import spin_operators
from meanforce.qweak import bath_a, bath_combos, qmf_wk_expectations, qmf_wk_state

BATH = LorentzianBath(a_lor=98.0, omega_0=7.0, gamma_w=5.0)  # Q = 1


def make_params(alpha=0.06, theta=math.pi / 4, beta=math.inf, n=1,
                omega_l=1.0, omega_0=7.0, gamma_w=5.0):
    s0 = n / 2.0
    bath = LorentzianBath.from_q(alpha * omega_l / s0, omega_0, gamma_w)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


def test_bath_a_at_zero_frequency_is_q():
    assert bath_a(BATH, 1.0, 0.0) == pytest.approx(BATH.q, abs=1e-12)
    assert bath_a(BATH, math.inf, 0.0) == pytest.approx(BATH.q, abs=1e-12)


def test_bath_a_reference_value():
    # frozen from a converged pole-subtracted quadrature, cross-checked
    # against an independent contour evaluation
    val = bath_a(BATH, 1.0, 1.0)
    assert val == pytest.approx(1.1483672057483614, abs=1e-9)


def test_bath_a_validation():
    with pytest.raises(TypeError):
        bath_a(BareQBath(q=1.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        bath_a(BATH, -1.0, 1.0)
    with pytest.raises(ValueError):
        bath_a(BATH, 0.0, 1.0)


def test_bath_combos_reference_values():
    bi = bath_combos(BATH, 1.0, 1.0)
    assert bi.sigma == pytest.approx(2.0197509660798625, abs=1e-8)
    assert bi.delta_b == pytest.approx(0.27698344541686026, abs=1e-8)
    assert bi.sigma_prime == pytest.approx(0.03898868062838605, abs=1e-7)
    assert bi.delta_b_prime == pytest.approx(0.2757652720677406, abs=1e-7)
    assert bi.q == pytest.approx(1.0, abs=1e-12)
    # definitional identities
    assert bi.sigma == pytest.approx(bi.a_plus + bi.a_minus, rel=1e-12)
    assert bi.delta_b == pytest.approx(bi.a_plus - bi.a_minus, rel=1e-12)


def test_bath_combos_zero_temperature():
    bi = bath_combos(BATH, math.inf, 1.0)
    assert bi.a_minus == pytest.approx(0.7918858627385784, abs=1e-9)
    assert bi.delta_b_prime == pytest.approx(0.3187435036595687, abs=1e-7)


def test_sigma_is_temperature_independent():
    # the occupation terms cancel in A(+) + A(-)
    s1 = bath_combos(BATH, 1.0, 1.0).sigma
    s2 = bath_combos(BATH, 5.0, 1.0).sigma
    s3 = bath_combos(BATH, math.inf, 1.0).sigma
    assert s2 == pytest.approx(s1, abs=1e-8)
    assert s3 == pytest.approx(s1, abs=1e-8)


def test_wk_expectations_spin_half_cold():
    # frozen reference, verified against the symbolic scalar reduction of
    # the spin-1/2 second-order formulas
    e = qmf_wk_expectations(make_params())
    assert e.sz == pytest.approx(0.99580367765452993, abs=1e-8)
    assert e.sx == pytest.approx(-0.012486848235685299, abs=1e-8)


def test_wk_expectations_infinite_temperature():
    e = qmf_wk_expectations(make_params(beta=0.0))
    assert e.sz == 0.0 and e.sx == 0.0


def test_wk_theta_zero_has_no_coherence():
    e = qmf_wk_expectations(make_params(theta=0.0, beta=1.0))
    assert e.sx == pytest.approx(0.0, abs=1e-14)


def test_wk_sx_scales_with_coupling():
    # the static coherence is first order in Q
    e1 = qmf_wk_expectations(make_params(alpha=0.02, beta=1.0))
    e2 = qmf_wk_expectations(make_params(alpha=0.04, beta=1.0))
    assert e2.sx == pytest.approx(2.0 * e1.sx, rel=1e-10)
    assert e1.sx < 0.0


def test_wk_requires_lorentzian_bath():
    p = ModelParams(n=1, omega_l=1.0, theta=0.3, bath=BareQBath(q=0.1),
                    beta=1.0)
    with pytest.raises(TypeError):
        qmf_wk_expectations(p)
    with pytest.raises(TypeError):
        qmf_wk_state(p)


@pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_wk_state_matches_expectations(beta, n):
    p = make_params(alpha=0.05, beta=beta, n=n)
    rho = qmf_wk_state(p)
    so = spin_operators(n)
    s0 = n / 2.0
    e = qmf_wk_expectations(p)
    assert float(np.trace(rho @ so.sz).real) / s0 == pytest.approx(e.sz, abs=1e-10)
    assert float(np.trace(rho @ so.sx).real) / s0 == pytest.approx(e.sx, abs=1e-10)


def test_wk_state_invariants():
    p = make_params(alpha=0.05, beta=1.0, n=2)
    rho = qmf_wk_state(p)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    # positive at this weak coupling (not guaranteed in general)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_wk_state_infinite_temperature_is_maximally_mixed():
    rho = qmf_wk_state(make_params(beta=0.0, n=2))
    assert np.allclose(rho, np.eye(3) / 3.0, atol=1e-12)


def test_a_prime_at_narrow_peak():
    # 45-digit mpmath derivatives of the closed form at omega_0 = 7,
    # Gamma = 0.2, Q = 1.3, beta = 1: A'(7) and A'(-7).  A finite
    # difference with a step 1e-3 |omega| misses both by 6e-6 relative.
    app, apm = -910.779293203672437676, -0.7792932036724981038413
    bi = bath_combos(LorentzianBath.from_q(1.3, 7.0, 0.2), 1.0, 7.0)
    assert bi.sigma_prime == pytest.approx(app - apm, rel=1e-10)
    assert bi.delta_b_prime == pytest.approx(app + apm, rel=1e-10)
    assert 0.5 * (bi.delta_b_prime - bi.sigma_prime) == pytest.approx(apm, rel=1e-10)
