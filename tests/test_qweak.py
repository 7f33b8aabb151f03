"""Principal-value bath integrals and the second-order quantum state."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import exprel

from dense_spin import spin_operators
from meanforce.model import BareQBath, LorentzianBath, ModelParams
from meanforce.qspin import thermal_state
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


def _dense_wk_state(params):
    """The second-order mean-force state as dense commutator products.

    Assembled from the energy eigenoperators of the coupling direction,
    X(-1) = -(1/2)sin(theta) S-, X(0) = cos(theta) Sz,
    X(+1) = -(1/2)sin(theta) S+, with Bohr frequencies +wl, 0, -wl, along
    the Taylor-expansion route (Cresser & Anders, PRL 127, 250601 (2021)),
    so the correction is traceless by construction.
    """
    beta, theta, wl = params.beta, params.theta, params.omega_l
    so = spin_operators(params.n)
    sp_, sm_, sz_ = so.s_plus, so.s_minus, so.sz
    tau = thermal_state(-wl * sz_, beta)
    if beta == 0.0:
        return tau
    bi = bath_combos(params.bath, beta, wl)
    app = 0.5 * (bi.delta_b_prime + bi.sigma_prime)
    apm = 0.5 * (bi.delta_b_prime - bi.sigma_prime)
    sin2 = math.sin(theta) ** 2
    sc = math.sin(theta) * math.cos(theta)

    def comm(a, b):
        return a @ b - b @ a

    rho = tau.copy()
    rho += 0.25 * sin2 * comm(sp_, tau @ sm_) * app
    rho += 0.25 * sin2 * comm(sm_, tau @ sp_) * apm
    if not math.isinf(beta):
        # thermal pieces: beta * tau * (X X^dag - <X X^dag>), traceless
        def thermal(op, a_val):
            mean = float(np.trace(tau @ op).real)
            return beta * (tau @ op - mean * tau) * a_val

        rho += 0.25 * sin2 * thermal(sm_ @ sp_, bi.a_plus)
        rho += 0.25 * sin2 * thermal(sp_ @ sm_, bi.a_minus)
        rho += math.cos(theta) ** 2 * thermal(sz_ @ sz_, bi.q)
    # cross terms between distinct Bohr frequencies
    rho += (sc / (2.0 * wl)) * (comm(sz_, sp_ @ tau) + comm(tau @ sm_, sz_)) * bi.a_plus
    rho -= (sin2 / (8.0 * wl)) * (comm(sp_, sp_ @ tau) + comm(tau @ sm_, sm_)) * bi.a_plus
    rho -= (sc / (2.0 * wl)) * (comm(sm_, sz_ @ tau) + comm(tau @ sz_, sp_)) * bi.q
    rho += (sc / (2.0 * wl)) * (comm(sp_, sz_ @ tau) + comm(tau @ sz_, sm_)) * bi.q
    rho += (sin2 / (8.0 * wl)) * (comm(sm_, sm_ @ tau) + comm(tau @ sp_, sp_)) * bi.a_minus
    rho -= (sc / (2.0 * wl)) * (comm(sz_, sm_ @ tau) + comm(tau @ sp_, sz_)) * bi.a_minus
    return rho


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 40, 100])
def test_wk_state_matches_dense_assembly(n):
    # Q = alpha omega_l / S0, the package's large-spin scaling; at fixed Q
    # the rounding of both assemblies grows like beta Q S0^2 eps
    for beta in (0.0, 0.5, 2.0, 10.0, math.inf):
        for theta in (0.0, 0.4, math.pi / 4, math.pi / 2):
            p = make_params(alpha=0.05, beta=beta, theta=theta, n=n,
                            omega_l=1.3)
            ref = _dense_wk_state(p)
            rho = qmf_wk_state(p)
            label = f"beta={beta} theta={theta:.3f}"
            assert np.abs(rho - ref).max() <= 1e-12 * np.abs(ref).max(), label
            # every term moves m by at most 2
            i, j = np.indices(rho.shape)
            assert np.all(rho[np.abs(i - j) > 2] == 0.0), label


def _longdouble_wk_state(p):
    """The bands of the second-order state by the formulas of
    qweak._wk_bands, in extended precision, from the float64 bath integrals."""
    ld = np.longdouble
    bi = bath_combos(p.bath, p.beta, p.omega_l)
    ap, am, q = ld(bi.a_plus), ld(bi.a_minus), ld(bi.q)
    app = (ld(bi.delta_b_prime) + ld(bi.sigma_prime)) / 2
    apm = (ld(bi.delta_b_prime) - ld(bi.sigma_prime)) / 2
    beta, wl, th, n = ld(p.beta), ld(p.omega_l), ld(p.theta), p.n
    s2, sc, c2 = np.sin(th) ** 2 / 4, np.sin(th) * np.cos(th), np.cos(th) ** 2
    j = np.arange(n + 2, dtype=ld)
    a2 = j * (n + 1 - j)
    m, a = n / ld(2) - j[:-1], np.sqrt(a2[1:-1])
    pe = np.zeros(n + 3, dtype=ld)
    pe[1:-1] = np.exp(beta * wl * (m - m[0]))
    pe /= pe.sum()
    pj = pe[1:-1]
    z = s2 * (ap * a2[:-1] + am * a2[1:]) + c2 * q * m * m
    d = (pj + s2 * (app * (a2[1:] * pe[2:] - a2[:-1] * pj)
                    + apm * (a2[:-1] * pe[:-2] - a2[1:] * pj))
         + beta * pj * (z - pj @ z))
    mp = m * pj
    e = sc / (2 * wl) * a * (ap * pj[1:] + am * pj[:-1]
                             - 2 * q * (mp[:-1] - mp[1:]))
    f = s2 / (2 * wl) * a[:-1] * a[1:] * (ap * (pj[1:-1] - pj[2:])
                                          + am * (pj[:-2] - pj[1:-1]))
    return (np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + np.diag(f, 2)
            + np.diag(f, -2))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("theta", [0.0, math.pi / 4])
@pytest.mark.parametrize("beta", [2.0, 10.0])
@pytest.mark.parametrize("n", [40, 100])
def test_wk_state_thermal_term_keeps_its_digits(n, beta, theta):
    # at fixed Q the beta term sums terms of size beta Q S0^2; taken relative
    # to the largest weight's z they no longer cancel
    p = ModelParams(n=n, omega_l=1.3, theta=theta, beta=beta,
                    bath=LorentzianBath.from_q(1.3, 7.0, 5.0))
    ref = _longdouble_wk_state(p)
    err = np.abs(qmf_wk_state(p) - ref).max() / np.abs(ref).max()
    assert err <= 1e-14


@pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_wk_state_matches_expectations(beta, n):
    p = make_params(alpha=0.05, beta=beta, n=n)
    rho = qmf_wk_state(p)
    so = spin_operators(n)
    s0 = n / 2.0
    e = qmf_wk_expectations(p)
    assert float(np.trace(rho @ so.sz).real) / s0 == pytest.approx(e.sz, abs=1e-13)
    assert float(np.trace(rho @ so.sx).real) / s0 == pytest.approx(e.sx, abs=1e-13)


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


def _bath_correlation(bath, beta, s):
    """Imaginary-time bath correlation
    C(s) = int_0^inf J(w) [e^{-ws} + e^{-w(beta-s)}] / (1 - e^{-beta w}) dw."""
    def integrand(w):
        return bath.j(w) * (math.exp(-w * s) + math.exp(-w * (beta - s))) \
            / -math.expm1(-beta * w)
    return sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
               for lo, hi in ((0.0, bath.omega_0), (bath.omega_0, math.inf)))


def _kubo_expectations(p, s_nodes, s_weights, corr):
    """<O> = <O>_0 + <M O>_0 - <M>_0 <O>_0 for O = Sz, Sx over S0, with
    M_ac = int_0^beta ds C(s) sum_b X_ab X_bc e^{s(E_a-E_b)}
           (e^{(beta-s)(E_a-E_c)} - 1)/(E_a - E_c)
    in the eigenbasis of H_S = -omega_l Sz and X = S_theta: the second
    order of the imaginary-time Dyson series of Tr_B e^{-beta H}."""
    so = spin_operators(p.n)
    sz, sx = so.sz.real, so.sx.real
    x = so.s_theta(p.theta).real
    e = -p.omega_l * np.diag(sz)
    gap = e[:, None] - e[None, :]
    # X X joins levels at most two apart; zeroing the wider gaps keeps the
    # exponentials finite where the matrix elements vanish anyway
    gap = np.where(np.abs(gap) <= 2.5 * p.omega_l, gap, 0.0)
    m = np.zeros_like(x)
    for s, w, c in zip(s_nodes, s_weights, corr):
        rest = p.beta - s
        m += w * c * ((x * np.exp(s * gap)) @ x) * rest * exprel(rest * gap)
    tau = np.exp(-p.beta * (e - e.min()))
    tau /= tau.sum()

    def mean(o):
        o0 = tau @ np.diag(o)
        return o0 + tau @ np.diag(m @ o) - (tau @ np.diag(m)) * o0

    return mean(sz) / p.s0, mean(sx) / p.s0


@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0, 40.0])
@pytest.mark.parametrize("bath", [BATH, LorentzianBath.from_q(1.3, 7.0, 0.2)],
                         ids=["broad", "narrow"])
def test_wk_expectations_match_imaginary_time_formula(bath, beta):
    # An oracle that shares nothing with the closed-form A_beta: the bath
    # enters only through C(s), by quadrature over J.  C(s) has an s^2 log s
    # term at both ends (J ~ w^-3), so s = beta (3t^2 - 2t^3) flattens the
    # ends before Gauss-Legendre in t.
    t, wt = leggauss(100)
    t = 0.5 * (t + 1.0)
    s_nodes = beta * t * t * (3.0 - 2.0 * t)
    s_weights = 3.0 * beta * t * (1.0 - t) * wt
    corr = [_bath_correlation(bath, beta, s) for s in s_nodes]
    for n in (1, 2, 5, 100):
        for theta in (0.3, math.pi / 4, 1.2):
            p = ModelParams(n=n, omega_l=1.0, theta=theta, bath=bath, beta=beta)
            sz, sx = _kubo_expectations(p, s_nodes, s_weights, corr)
            e = qmf_wk_expectations(p)
            label = f"n={n} theta={theta:.3f}"
            assert e.sz == pytest.approx(sz, abs=1e-10), label
            assert e.sx == pytest.approx(sx, abs=1e-10), label
