"""Second-order (weak-coupling) quantum mean-force state.

Reservoir integrals A_beta(omega) for the Lorentzian spectral density and
their derivatives in closed form, their symmetric and antisymmetric
combinations, and the second-order corrected density matrix and spin
expectation values.

J is odd, so A_beta(omega) = PV int_R J(w)(n(w)+1)/(w - omega) dw.  Closing
the contours over the poles p = +-i Gamma/2 +- sqrt(omega_0^2 - Gamma^2/4)
of J and the Matsubara poles of n gives, with c = beta/2 pi and
r_p = Res_p J/(p - omega) (Tanimura, J. Phys. Soc. Jpn. 75, 082001 (2006)),

    A = Re[sum_{Im p>0} r_p (i pi - psi(-i c p)) - sum_{Im p<0} r_p psi(1 + i c p)
           - J(omega) psi(1 + i c omega)],

and A = Re[-sum_p r_p log(-p)] - J(omega) log|omega| at beta = inf.  Every
digamma argument has positive real part, so nothing overflows and a pole on
a Matsubara frequency is harmless.  A' is the same sum differentiated in
omega.  The tests check both against quadrature and mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import psi

from .model import LorentzianBath, ModelParams
from .qspin import qu_gibbs_stats, spin_operators, thermal_state
from .results import SpinExpectation

__all__ = [
    "BathIntegrals",
    "bath_a",
    "bath_combos",
    "qmf_wk_expectations",
    "qmf_wk_state",
]

# Bernoulli numbers B_2 .. B_12 of the asymptotic trigamma series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_TRIGAMMA_SHIFT = 15
_GL_T, _GL_W = leggauss(8)


@dataclass(frozen=True)
class BathIntegrals:
    a_plus: float      # A_beta(omega_l)
    a_minus: float     # A_beta(-omega_l)
    sigma: float       # A(+) + A(-)
    delta_b: float     # A(+) - A(-)
    delta_b_prime: float  # A'(+) + A'(-), A' = dA_beta/domega
    sigma_prime: float    # A'(+) - A'(-) = dSigma/domega_l
    q: float           # A_beta(0)


def _trigamma(z):
    """Complex trigamma psi'(z) for Re z > 0, elementwise: the recurrence
    psi'(z) = psi'(z + 1) + 1/z^2 up to |z| >= 15, then the asymptotic series
    through B_12, which is exact to rounding there."""
    z = np.asarray(z, dtype=complex)
    head = np.sum((z[..., None] + np.arange(_TRIGAMMA_SHIFT)) ** -2.0, axis=-1)
    w = 1.0 / (z + _TRIGAMMA_SHIFT)
    w2 = w * w
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = b + w2 * series
    return head + w + w2 * (0.5 + w * series)


def _a_closed(bath: LorentzianBath, beta: float, omega: float, k: int) -> float:
    """A_beta(omega) for k = 1 and A'_beta(omega) for k = 2, omega != 0.

    Each pole factor is const - F(z0 + dz p), F = psi (log at beta = inf);
    the residues carry 1/(p - omega)^k.  The omega term is -J x for k = 1 and
    -(J' x + J x') for k = 2, x = F at the lower-pole map of omega.
    """
    w0, g = bath.omega_0, bath.gamma_w
    delta = cmath.sqrt((w0 - 0.5 * g) * (w0 + 0.5 * g))
    if math.isinf(beta):
        fn, dfn = np.log, np.reciprocal
        upper = lower = (0.0, 0.0, -1.0)
    else:
        fn, dfn = psi, _trigamma
        c = beta / (2.0 * math.pi)
        upper, lower = (1j * math.pi, 0.0, -1j * c), (0.0, 1.0, 1j * c)

    def pair(m, const, z0, dz):
        # Residue sum over the pole pair m +- delta: the divided difference
        # (h(m + delta) - h(m - delta)) / 2 delta, h = f(p) / (p - omega)^k.
        # Near critical damping the pair merges into a double pole and the
        # quotient cancels; there it is the mean of h' over the segment by
        # Gauss-Legendre, exact to rounding for |delta| < |m|/4 since h is
        # analytic within |m| = Gamma/2 of m, and h'(m) at delta = 0.
        if abs(delta) >= 0.25 * abs(m):
            p = m + delta * np.array([1.0, -1.0])
            h = (const - fn(z0 + dz * p)) / (p - omega) ** k
            return (h[0] - h[1]) / (2.0 * delta)
        p = m + delta * _GL_T
        z, u = z0 + dz * p, 1.0 / (p - omega)
        return 0.5 * np.dot(_GL_W, (-dz * dfn(z) - k * (const - fn(z)) * u) * u**k)

    poles = pair(0.5j * g, *upper) - pair(-0.5j * g, *lower)
    z = complex(lower[1] + lower[2] * omega)
    den = (w0 * w0 - omega * omega) ** 2 + (g * omega) ** 2
    amp = bath.a_lor * g / math.pi
    j = amp * omega / den
    if k == 1:
        tail = j * fn(z)
    else:
        dden = 2.0 * omega * (g * g - 2.0 * (w0 * w0 - omega * omega))
        tail = amp * (den - omega * dden) / den**2 * fn(z) + j * lower[2] * dfn(z)
    return float((bath.a_lor / (2j * math.pi) * poles - tail).real)


def bath_a(bath: LorentzianBath, beta: float, omega_n: float) -> float:
    """Principal-value integral
    A_beta(wn) = PV int_0^inf J(w)[(n(w)+1)/(w-wn) - n(w)/(w+wn)] dw,
    evaluated in closed form (see the module docstring).

    wn = 0 returns Q exactly; beta = inf drops the occupation terms.
    """
    if not isinstance(bath, LorentzianBath):
        raise TypeError("bath integrals require a Lorentzian bath")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        raise ValueError("A_beta diverges at beta = 0")
    if omega_n == 0.0:
        return bath.q
    return _a_closed(bath, beta, omega_n, 1)


def bath_combos(bath: LorentzianBath, beta: float, omega_l: float) -> BathIntegrals:
    """Symmetric/antisymmetric combinations of A_beta and its derivative
    evaluated at the spin gap omega_l.

    The derivatives A'(+-omega_l) = dA_beta/domega at +-omega_l come from
    the closed form differentiated analytically; the squared-denominator
    kernels are never integrated.
    """
    ap = bath_a(bath, beta, omega_l)
    am = bath_a(bath, beta, -omega_l)
    app = _a_closed(bath, beta, omega_l, 2)
    apm = _a_closed(bath, beta, -omega_l, 2)
    return BathIntegrals(
        a_plus=ap,
        a_minus=am,
        sigma=ap + am,
        delta_b=ap - am,
        delta_b_prime=app + apm,
        sigma_prime=app - apm,
        q=bath.q,
    )


def _require_lorentzian(params: ModelParams) -> LorentzianBath:
    if not isinstance(params.bath, LorentzianBath):
        raise TypeError("weak-coupling quantum corrections require a "
                        "Lorentzian bath")
    return params.bath


def qmf_wk_expectations(params: ModelParams) -> SpinExpectation:
    """Spin expectations of the second-order mean-force state, normalized
    by S0.

    <Sz> gains a coherent-shift piece (Sigma', Delta'_beta) plus a thermal
    piece linear in beta built from connected Sz moments; <Sx> is the
    static coherence proportional to sin(2 theta).  At beta = 0 the
    corrections vanish identically and at beta = inf the thermal piece
    drops (connected moments vanish faster than 1/beta).
    """
    bath = _require_lorentzian(params)
    beta, theta, wl, s0 = params.beta, params.theta, params.omega_l, params.s0
    if beta == 0.0:
        return SpinExpectation(sz=0.0, sx=0.0, method="qmf_wk")
    g = qu_gibbs_stats(beta, params.n, wl)
    bi = bath_combos(bath, beta, wl)
    cas = s0 * (s0 + 1.0)
    sin2 = math.sin(theta) ** 2
    s2t = math.sin(2.0 * theta)

    sz_val = g.m1 + 0.25 * sin2 * ((cas - g.m2) * bi.sigma_prime
                                   - g.m1 * bi.delta_b_prime)
    if not math.isinf(beta):
        c2 = g.m2 - g.m1**2
        c3 = g.m3 - g.m1 * g.m2
        sz_val -= beta * (0.25 * sin2 * (c2 * bi.delta_b + c3 * bi.sigma)
                          - math.cos(theta) ** 2 * c3 * bi.q)
    sx_val = (s2t / (4.0 * wl)) * ((cas - g.m2) * bi.sigma
                                   - g.m1 * bi.delta_b - 4.0 * g.m2 * bi.q)
    return SpinExpectation(sz=sz_val / s0, sx=sx_val / s0, method="qmf_wk")


def qmf_wk_state(params: ModelParams) -> np.ndarray:
    """Second-order mean-force density matrix.

    Assembled from the energy eigenoperators of the coupling direction,
    X(-1) = -(1/2)sin(theta) S-, X(0) = cos(theta) Sz,
    X(+1) = -(1/2)sin(theta) S+, with Bohr frequencies +wl, 0, -wl.  The
    normalization follows the Taylor-expansion route, so the correction is
    traceless by construction.  Trace is 1 and Hermiticity holds to machine
    precision; strict positivity is not guaranteed for a truncated
    expansion.
    """
    bath = _require_lorentzian(params)
    beta, theta, wl = params.beta, params.theta, params.omega_l
    so = spin_operators(params.n)
    sp_, sm_, sz_ = so.s_plus, so.s_minus, so.sz
    tau = thermal_state(-wl * sz_, beta)
    if beta == 0.0:
        return tau
    bi = bath_combos(bath, beta, wl)
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
