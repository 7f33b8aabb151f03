"""Closed-form bath integrals against two independent references.

- quadrature: the pole-subtracted principal-value integral of
  J(w)[(n+1)/(w-wn) - n/(w+wn)] over [0, inf) by QUADPACK;
- mpmath: the same residue and digamma sums at 30 digits, with the
  double-pole limit taken by numerical differentiation, and A' by
  mpmath.diff of that.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from meanforce.model import LorentzianBath
from meanforce.qweak import _bath_integrals, _polygammas, bath_a

BATHS = [(7.0, 5.0), (7.0, 0.2), (2.0, 1.0), (1.0, 3.0), (3.0, 10.0)]
BETAS = [0.02, 0.3, 1.0, 2.0, 20.0, 200.0, 2000.0, math.inf]
OMEGAS = [0.37, -0.37, 1.0, -1.0, 7.0, -7.0, 12.0]

_QUAD_OPTS = dict(limit=400, epsabs=1e-12, epsrel=1e-11)


# ---------------------------------------------------------------------------
# quadrature reference


def _n_bose(omega, beta):
    x = beta * omega
    if x < 1e-8:
        return 1.0 / x - 0.5 + x / 12.0
    if x > 700:
        return 0.0
    return 1.0 / math.expm1(x)


def _interior(a, b, bath):
    pts = [w for w in (bath.omega_0, bath.omega_0 - bath.gamma_w,
                       bath.omega_0 + bath.gamma_w) if a < w < b]
    return pts or None


def _quad_to_inf(f, a, bath, pole_scale):
    cut = max(4.0 * bath.omega_0, 2.0 * pole_scale + 10.0 * bath.gamma_w, a + 1.0)
    val = quad(f, a, cut, points=_interior(a, cut, bath), **_QUAD_OPTS)[0]
    return val + quad(f, cut, np.inf, **_QUAD_OPTS)[0]


def quad_a(bath, beta, omega_n):
    """A_beta(wn) by quadrature; the pole at w = |wn| is subtracted over a
    symmetric window."""
    j = bath.j
    cold = math.isinf(beta)

    def occ(w):
        return 0.0 if cold else _n_bose(w, beta)

    def integrand(w):
        if cold:
            return j(w) / (w - omega_n)
        return j(w) * ((occ(w) + 1.0) / (w - omega_n) - occ(w) / (w + omega_n))

    if omega_n > 0:
        pole = omega_n

        def numerator(w):
            return j(w) * (occ(w) + 1.0)

        def regular(w):
            return -j(w) * occ(w) / (w + omega_n)

    elif cold:
        return _quad_to_inf(integrand, 0.0, bath, abs(omega_n))
    else:
        pole = -omega_n

        def numerator(w):
            return -j(w) * occ(w)

        def regular(w):
            return j(w) * (occ(w) + 1.0) / (w - omega_n)

    delta = min(pole, bath.gamma_w) / 4.0
    lo, hi = pole - delta, pole + delta
    f_pole = numerator(pole)

    def window(w):
        if w == pole:
            h = 1e-7 * max(pole, 1.0)
            return (numerator(w + h) - numerator(w - h)) / (2.0 * h)
        return (numerator(w) - f_pole) / (w - pole)

    val = quad(window, lo, hi, points=[pole], **_QUAD_OPTS)[0]
    val += quad(regular, lo, hi, **_QUAD_OPTS)[0]
    val += quad(integrand, 0.0, lo, points=_interior(0.0, lo, bath), **_QUAD_OPTS)[0]
    return val + _quad_to_inf(integrand, hi, bath, pole)


# ---------------------------------------------------------------------------
# mpmath reference


def mp_a(mp, bath, beta, omega):
    """A_beta(omega) from the residue/digamma sums in mpmath arithmetic."""
    a_lor, w0, g, omega = (mp.mpf(v) for v in (bath.a_lor, bath.omega_0,
                                                bath.gamma_w, omega))
    d = mp.sqrt(mp.mpc(w0**2 - g**2 / 4))

    def pair(h, m):
        # sum of Res J * h over the pole pair m +- d, divided by A/(2 pi i)
        if d == 0:
            return mp.diff(h, m)
        return (h(m + d) - h(m - d)) / (2 * d)

    j = a_lor * g / mp.pi * omega / ((w0**2 - omega**2)**2 + g**2 * omega**2)
    k = a_lor / (2j * mp.pi)
    up, lo = 1j * g / 2, -1j * g / 2
    if math.isinf(beta):
        def h(p):
            return -mp.log(-p) / (p - omega)
        return mp.re(k * (pair(h, up) - pair(h, lo))) - j * mp.log(abs(omega))
    c = mp.mpf(beta) / (2 * mp.pi)

    def h_up(p):
        return (1j * mp.pi - mp.digamma(-1j * c * p)) / (p - omega)

    def h_lo(p):
        return -mp.digamma(1 + 1j * c * p) / (p - omega)

    return mp.re(k * (pair(h_up, up) - pair(h_lo, lo))
                 - j * mp.digamma(1 + 1j * c * omega))


def _check_against_mpmath(bath, beta, omegas):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for w in omegas:
            ref = float(mp_a(mp, bath, beta, w))
            assert abs(bath_a(bath, beta, w) - ref) <= 1e-12 * max(1.0, abs(ref))
            dref = float(mp.diff(lambda x: mp_a(mp, bath, beta, x), w))
            # A' is differentiated twice through 1/(p - omega) near a narrow
            # peak: at Gamma = 0.2 one ulp of a pole position moves it 1e-11
            got = _bath_integrals(bath, beta, (w,))[0][1]
            assert abs(got - dref) <= 1e-10 * max(1.0, abs(dref))


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("omega_0,gamma_w", BATHS)
def test_closed_form_matches_quadrature_and_mpmath(omega_0, gamma_w, beta):
    bath = LorentzianBath.from_q(1.0, omega_0, gamma_w)
    for w in OMEGAS:
        ref = quad_a(bath, beta, w)
        assert abs(bath_a(bath, beta, w) - ref) <= 1e-9 * max(1.0, abs(ref))
    _check_against_mpmath(bath, beta, OMEGAS)


def test_trigamma_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    z = np.array([1e-3, 0.5 + 0.3j, 1.0, 1.0 - 2228.2j, 31.8 + 2227.9j,
                  0.03 - 5.0j, 7.5 + 40.0j, 250.0])
    got = [_polygammas(complex(zi))[1] for zi in z]
    for zi, gi in zip(z, got):
        ref = complex(mp.polygamma(1, mp.mpc(zi)))
        assert abs(gi - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("gamma_w", [14.0, 14.0 * (1 + 1e-9), 14.0 * (1 - 1e-12)])
@pytest.mark.parametrize("beta", [0.3, 2.0, 200.0, math.inf])
def test_critical_damping_double_pole(gamma_w, beta):
    bath = LorentzianBath.from_q(1.0, 7.0, gamma_w)
    assert bath_a(bath, beta, 0.0) == bath.q
    for w in OMEGAS:
        assert math.isfinite(bath_a(bath, beta, w))
    _check_against_mpmath(bath, beta, OMEGAS)


@pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overdamped_pole_on_matsubara_frequency(sign, rel):
    # poles at +-i gamma with gamma = Gamma/2 +- sqrt(Gamma^2/4 - omega_0^2);
    # beta = 2 pi k / gamma puts one on the k-th Matsubara frequency
    bath = LorentzianBath.from_q(1.0, 1.0, 3.0)
    gamma = 1.5 + sign * math.sqrt(1.25)
    for k in (1, 3):
        beta = 2.0 * math.pi * k / gamma * (1.0 + rel)
        for w in OMEGAS:
            ref = quad_a(bath, beta, w)
            assert abs(bath_a(bath, beta, w) - ref) <= 1e-9 * max(1.0, abs(ref))
        _check_against_mpmath(bath, beta, OMEGAS)

