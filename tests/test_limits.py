"""Ultrastrong projections and the large-spin correspondence sweep."""

import math

import numpy as np
import pytest

from dense_spin import spin_operators
from meanforce.limits import (
    correspondence_sweep,
    mll_bare_ratio,
    us_expectations,
    us_quantum_state,
)
from meanforce.model import LorentzianBath, ModelParams


def make_params(theta=math.pi / 4, beta=2.0, n=1, omega_l=1.0):
    bath = LorentzianBath.from_q(1.0, 7.0, 5.0)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


def test_us_closed_form_values():
    p = make_params(beta=2.0)
    t = math.tanh(2.0 * 0.5 * math.cos(math.pi / 4))
    e = us_expectations(p)
    assert e.sz == pytest.approx(math.cos(math.pi / 4) * t, rel=1e-14)
    assert e.sx == pytest.approx(-math.sin(math.pi / 4) * t, rel=1e-14)


def test_us_zero_temperature():
    e = us_expectations(make_params(beta=math.inf))
    assert e.sz == pytest.approx(math.cos(math.pi / 4), rel=1e-14)
    assert e.sx == pytest.approx(-math.sin(math.pi / 4), rel=1e-14)
    # fully transverse coupling leaves both branches equally populated
    e90 = us_expectations(make_params(theta=math.pi / 2, beta=math.inf))
    assert e90.sz == 0.0 and e90.sx == 0.0


@pytest.mark.parametrize("n", [1, 2, 5])
def test_us_quantum_state_matches_closed_form(n):
    p = make_params(beta=1.5, n=n)
    st = us_quantum_state(p)
    e = us_expectations(p)
    assert st.sz == pytest.approx(e.sz, abs=1e-12)
    assert st.sx == pytest.approx(e.sx, abs=1e-12)
    rho = st.rho
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    # the state lives on the two extremal S_theta eigenvectors
    assert np.linalg.matrix_rank(rho, tol=1e-10) <= 2


def _rotated_us_state(params):
    """The ultrastrong state from the projectors on exp(i theta Sy)|+-S0>,
    a complex rotation of the dense operators."""
    n = params.n
    so = spin_operators(n)
    evals, evecs = np.linalg.eigh(so.sy)
    u = (evecs * np.exp(1j * params.theta * evals)[None, :]) @ evecs.conj().T
    p_plus = np.outer(u[:, 0], u[:, 0].conj())
    p_minus = np.outer(u[:, n], u[:, n].conj())
    t = math.tanh(params.beta * params.omega_l * params.s0 * math.cos(params.theta))
    return 0.5 * (p_plus + p_minus + t * (p_plus - p_minus))


@pytest.mark.parametrize("n", [1, 2, 5, 20])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2])
def test_us_quantum_state_matches_rotated_projectors(n, theta):
    p = make_params(theta=theta, beta=0.7, n=n)
    rho = us_quantum_state(p).rho
    assert rho.dtype == np.float64
    assert np.abs(rho - _rotated_us_state(p)).max() <= 1e-14


def test_us_projectors_are_s_theta_extremes():
    n = 4
    p = make_params(beta=1.0, n=n)
    st = us_quantum_state(p)
    so = spin_operators(n)
    s_t = so.s_theta(p.theta)
    s0 = n / 2.0
    # <S_theta> = S0 * tanh(beta*wL*S0*cos(theta))
    val = float(np.trace(st.rho @ s_t).real)
    assert val == pytest.approx(
        s0 * math.tanh(p.beta * p.omega_l * s0 * math.cos(p.theta)), abs=1e-10)


def test_mll_bare_ratio_tends_to_one():
    ratios = [abs(mll_bare_ratio(1.0, n) - 1.0) for n in (1, 4, 16, 64)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 1e-2
    with pytest.raises(ValueError):
        mll_bare_ratio(0.0, 1)


def test_mll_bare_ratio_in_log_space():
    # at n = 1 the ratio is cosh x / (sinh x / x) = x coth x, x = beta';
    # both partition functions overflow a float past x = 710
    for bp in (700.0, 720.0, 2000.0):
        assert mll_bare_ratio(bp, 1) == pytest.approx(bp / math.tanh(bp),
                                                      rel=1e-12)
        for n in (4, 100):
            assert math.isfinite(mll_bare_ratio(bp, n))


def test_correspondence_sweep_structure():
    bp = [0.5, 2.0]
    table = correspondence_sweep(0.06, math.pi / 4, bp, n_list=(1, 2))
    assert table.columns == ("n", "beta_prime", "sz", "sx")
    ns = {row[0] for row in table.rows}
    assert ns == {0, 1, 2}  # classical baseline rows carry n = 0
    assert len(table.rows) == 3 * len(bp)
    assert "max_dev_n1" in table.metadata
    assert "max_dev_n2" in table.metadata


def test_correspondence_deviation_shrinks_with_n():
    table = correspondence_sweep(0.06, math.pi / 4, [1.0], n_list=(1, 4, 16))
    d = [table.metadata[f"max_dev_n{n}"] for n in (1, 4, 16)]
    assert d[0] > d[1] > d[2]


def test_correspondence_rejects_unknown_method():
    with pytest.raises(ValueError):
        correspondence_sweep(0.06, math.pi / 4, [1.0], method="exact")
