"""Parameter records, unit conversions, and bath descriptions."""

import dataclasses
import math

import numpy as np
import pytest

from meanforce.dynamics import SimConfig, simulate_steady
from meanforce.model import (
    BareQBath,
    LorentzianBath,
    ModelParams,
    alpha_scaling,
    beta_from_t_half,
    beta_from_t_spin,
    lorentzian_q,
    spin_length,
    t_half_from_beta,
    t_spin_from_beta,
    zeta,
)
from meanforce.qrc import rc_mf_state
from meanforce.qspin import sz_ladder
from meanforce.qweak import qmf_wk_expectations


def test_spin_length():
    assert spin_length(1) == 0.5
    assert spin_length(2) == 1.0
    assert spin_length(100) == 50.0
    with pytest.raises(ValueError):
        spin_length(0)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -math.inf])
def test_spin_size_must_be_an_integer(n):
    # spin_length is the one check of n: ModelParams, the Sz ladder and the
    # unit conversions all reject what it rejects, naming n
    bath = LorentzianBath.from_q(1.0, 7.0, 5.0)
    for check in (lambda: spin_length(n),
                  lambda: beta_from_t_spin(1.0, n),
                  lambda: sz_ladder(n),
                  lambda: ModelParams(n=n, omega_l=1.0, theta=0.1, bath=bath,
                                      beta=1.0)):
        with pytest.raises(ValueError, match="^n must be an integer"):
            check()


def test_lorentzian_q_closed_form():
    # Q = A / (2 omega_0^2)
    assert lorentzian_q(98.0, 7.0) == pytest.approx(1.0, abs=0)
    assert lorentzian_q(0.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        lorentzian_q(-1.0, 7.0)
    with pytest.raises(ValueError):
        lorentzian_q(1.0, 0.0)


def test_q_integral_matches_reorganization_energy():
    # Q = int_0^inf J(w)/w dw for the Lorentzian shape
    from scipy.integrate import quad

    bath = LorentzianBath.from_q(0.7, 7.0, 5.0)
    val = quad(lambda w: bath.j(w) / w, 0.0, np.inf, limit=400)[0]
    assert val == pytest.approx(bath.q, rel=1e-8)


def test_zeta_and_alpha_roundtrip():
    # zeta = Q*S0/wL and Q = alpha*wL/S0 are inverse conventions
    s0, wl = 2.5, 1.3
    q = alpha_scaling(0.42, s0, wl)
    assert zeta(q, s0, wl) == pytest.approx(0.42, rel=1e-15)
    # a spin length of zero (n = 0) has no scaling
    for s0 in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="s0"):
            alpha_scaling(0.42, s0, wl)


def test_bath_from_q_roundtrip():
    bath = LorentzianBath.from_q(q=2.0, omega_0=7.0, gamma_w=5.0)
    assert bath.a_lor == pytest.approx(196.0)
    assert bath.q == pytest.approx(2.0, rel=1e-15)


def test_lorentzian_j_values():
    bath = LorentzianBath(a_lor=98.0, omega_0=7.0, gamma_w=5.0)
    # at the peak center the denominator reduces to (Gamma*w0)^2
    expect = 98.0 * 5.0 / math.pi * 7.0 / (5.0 * 7.0) ** 2
    assert bath.j(7.0) == pytest.approx(expect, rel=1e-14)
    assert bath.j(0.0) == 0.0
    arr = bath.j(np.array([1.0, 7.0]))
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(expect, rel=1e-14)


def test_bare_q_bath_rejects_shape_queries():
    bath = BareQBath(q=1.0)
    assert bath.q == 1.0
    # no spectral shape to evaluate
    assert not hasattr(bath, "j")
    with pytest.raises(ValueError):
        BareQBath(q=-0.5)


@pytest.mark.parametrize("solver, entry", [
    ("qmf-wk", qmf_wk_expectations),
    ("qmf-rc", rc_mf_state),
    ("Langevin dynamics", lambda p: simulate_steady(p, SimConfig(dt=1e-3))),
    ("Langevin dynamics", SimConfig.for_params),
], ids=["qmf-wk", "qmf-rc", "simulate_steady", "for_params"])
def test_bare_q_bath_is_rejected_by_every_solver_of_the_bath_shape(solver,
                                                                     entry):
    # one TypeError naming the solver, from each solver that reads omega_0
    # or Gamma
    p = ModelParams(n=1, omega_l=1.0, theta=0.3, bath=BareQBath(q=0.1),
                    beta=1.0)
    with pytest.raises(TypeError, match=f"^{solver} requires a Lorentzian "
                                        "bath, got BareQBath$"):
        entry(p)


def test_model_params_validation():
    bath = LorentzianBath.from_q(1.0, 7.0, 5.0)
    with pytest.raises(ValueError):
        ModelParams(n=0, omega_l=1.0, theta=0.1, bath=bath, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, omega_l=-1.0, theta=0.1, bath=bath, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, omega_l=1.0, theta=2.0, bath=bath, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, omega_l=1.0, theta=0.1, bath=bath, beta=-1.0)
    # beta = 0 and beta = inf are both legal
    ModelParams(n=1, omega_l=1.0, theta=0.1, bath=bath, beta=0.0)
    ModelParams(n=1, omega_l=1.0, theta=0.1, bath=bath, beta=math.inf)


@pytest.mark.parametrize("omega_l", [0.0, -1.0, math.inf, math.nan])
def test_model_params_check_omega_l_as_the_conversions_do(omega_l):
    bath = LorentzianBath.from_q(1.0, 7.0, 5.0)
    for check in (lambda: beta_from_t_half(1.0, omega_l),
                  lambda: ModelParams(n=1, omega_l=omega_l, theta=0.1,
                                      bath=bath, beta=1.0)):
        with pytest.raises(ValueError,
                           match="^omega_l must be finite and positive"):
            check()


def test_model_params_derived_quantities():
    bath = LorentzianBath.from_q(2.0, 7.0, 5.0)
    p = ModelParams(n=3, omega_l=2.0, theta=0.3, bath=bath, beta=1.0)
    assert p.s0 == 1.5
    assert p.q == pytest.approx(2.0)
    assert p.zeta == pytest.approx(2.0 * 1.5 / 2.0)
    p2 = dataclasses.replace(p, beta=0.25)
    assert p2.beta == 0.25 and p2.n == 3


def test_temperature_conversions():
    # t_half = 2 kB T / omega_l
    assert beta_from_t_half(1.0) == pytest.approx(2.0)
    assert beta_from_t_half(0.0) == math.inf
    assert t_half_from_beta(2.0) == pytest.approx(1.0)
    assert t_half_from_beta(0.0) == math.inf
    # t_spin = kB T / (S0 omega_l)
    assert beta_from_t_spin(1.0, n=1) == pytest.approx(2.0)
    assert beta_from_t_spin(0.5, n=4) == pytest.approx(1.0)
    assert t_spin_from_beta(2.0, n=1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        beta_from_t_half(-1.0)
    # omega_l is checked before the division, at T = 0 too
    for omega_l in (0.0, -1.0, math.inf):
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="omega_l"):
                beta_from_t_half(t, omega_l)
            with pytest.raises(ValueError, match="omega_l"):
                beta_from_t_spin(t, 2, omega_l)
        with pytest.raises(ValueError, match="omega_l"):
            alpha_scaling(1.0, 0.5, omega_l)


def test_temperature_scale_relation():
    # t_half = n * t_spin at any beta
    t_half = t_half_from_beta(0.7, omega_l=1.3)
    t_spin = t_spin_from_beta(0.7, n=5, omega_l=1.3)
    assert t_half == pytest.approx(5.0 * t_spin, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    # each record names the offending field; beta = inf (T = 0) stays legal
    bath = LorentzianBath.from_q(1.0, 7.0, 5.0)
    for kwargs, field in (({"omega_l": bad}, "omega_l"),
                          ({"beta": bad}, "beta")):
        if field == "beta" and bad == math.inf:
            continue
        args = dict(n=1, omega_l=1.0, theta=0.3, bath=bath, beta=1.0)
        args.update(kwargs)
        with pytest.raises(ValueError, match=field):
            ModelParams(**args)
    with pytest.raises(ValueError, match="theta"):
        ModelParams(n=1, omega_l=1.0, theta=bad, bath=bath, beta=1.0)
    for field in ("a_lor", "omega_0", "gamma_w"):
        args = dict(a_lor=1.0, omega_0=7.0, gamma_w=5.0)
        args[field] = bad
        with pytest.raises(ValueError, match=field):
            LorentzianBath(**args)
    with pytest.raises(ValueError, match="a_lor"):
        LorentzianBath.from_q(bad, 7.0, 5.0)
    with pytest.raises(ValueError, match="q"):
        BareQBath(q=bad)
    with pytest.raises(ValueError, match="t_half"):
        beta_from_t_half(bad)
    with pytest.raises(ValueError, match="t_spin"):
        beta_from_t_spin(bad, n=2)
