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
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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

# Bernoulli numbers B_2 .. B_12 of the asymptotic digamma and trigamma series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)
_DIGAMMA_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))
_TRIGAMMA_SHIFT = 15  # the recurrences run until |z| >= 15
_GL_T, _GL_W = (v.tolist() for v in leggauss(8))


@dataclass(frozen=True)
class BathIntegrals:
    a_plus: float      # A_beta(omega_l)
    a_minus: float     # A_beta(-omega_l)
    sigma: float       # A(+) + A(-)
    delta_b: float     # A(+) - A(-)
    delta_b_prime: float  # A'(+) + A'(-), A' = dA_beta/domega
    sigma_prime: float    # A'(+) - A'(-) = dSigma/domega_l
    q: float           # A_beta(0)


def _polygammas(z: complex) -> tuple[complex, complex]:
    """Complex digamma psi(z) and trigamma psi'(z) for Re z > 0.

    The recurrences psi(z) = psi(z + 1) - 1/z and psi'(z) = psi'(z + 1)
    + 1/z^2 run up to |z| >= 15, then the asymptotic series
    log z - 1/(2z) - sum B_2k/(2k z^2k) and 1/z + 1/(2z^2) + sum B_2k/z^(2k+1)
    through B_12 are exact to rounding.  Python complex arithmetic: the
    bath integrals take a handful of arguments per call, where numpy's
    per-call overhead would cost more than the arithmetic.
    """
    head = head2 = 0.0
    x, y = z.real, abs(z.imag)
    if y < _TRIGAMMA_SHIFT:
        # |z + n| >= 15 once Re z + n >= sqrt(15^2 - (Im z)^2)
        steps = math.ceil(math.sqrt(_TRIGAMMA_SHIFT**2 - y * y) - x)
        for _ in range(max(0, steps)):
            r = 1.0 / z
            head += r
            head2 += r * r
            z += 1.0
    w = 1.0 / z
    w2 = w * w
    s1 = s2 = 0.0
    for c1, c2 in zip(reversed(_DIGAMMA_SERIES), reversed(_BERNOULLI)):
        s1 = c1 + w2 * s1
        s2 = c2 + w2 * s2
    return (cmath.log(z) - head - 0.5 * w - w2 * s1,
            head2 + w + w2 * (0.5 + w * s2))


def _digamma(z):
    """Complex digamma psi(z) for Re z > 0, elementwise (see _polygammas)."""
    return np.array([_polygammas(complex(v))[0] for v in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))


def _trigamma(z):
    """Complex trigamma psi'(z) for Re z > 0, elementwise (see _polygammas)."""
    return np.array([_polygammas(complex(v))[1] for v in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))


def _log_and_reciprocal(z: complex) -> tuple[complex, complex]:
    return cmath.log(z), 1.0 / z


def _pole_maps(beta: float):
    """(fns, upper, lower): fns(z) gives F(z) and F'(z), F = psi at
    beta < inf and log at beta = inf; upper and lower are the (const, z0,
    dz) of the pole factors const - F(z0 + dz p)."""
    if math.isinf(beta):
        return _log_and_reciprocal, (0.0, 0.0, -1.0), (0.0, 0.0, -1.0)
    c = beta / (2.0 * math.pi)
    return _polygammas, (1j * math.pi, 0.0, -1j * c), (0.0, 1.0, 1j * c)


@functools.lru_cache(maxsize=64)
def _pole_factors(omega_0: float, gamma_w: float, beta: float):
    """Numerators on the two pole pairs m +- delta, m = +-i Gamma/2.

    Returns (merged, delta, upper, lower), each pair a tuple of nodes
    (p, f(p), f'(p)) with f = const - F(z0 + dz p).  They do not depend on
    omega, k or the bath amplitude, so the four integrals of bath_combos
    and the couplings of a regime scan share one evaluation of F.
    Near critical damping the pair merges into a double pole (merged) and
    its nodes are the 8 Gauss-Legendre points of the segment; otherwise
    they are m + delta and m - delta.
    """
    delta = cmath.sqrt((omega_0 - 0.5 * gamma_w) * (omega_0 + 0.5 * gamma_w))
    fns, upper, lower = _pole_maps(beta)
    merged = abs(delta) < 0.125 * gamma_w
    ts = _GL_T if merged else (1.0, -1.0)

    def nodes(m, const, z0, dz):
        out = []
        for t in ts:
            p = m + delta * t
            f, df = fns(z0 + dz * p)
            out.append((p, const - f, -dz * df))
        return tuple(out)

    return (merged, delta, nodes(0.5j * gamma_w, *upper),
            nodes(-0.5j * gamma_w, *lower))


def _a_closed(bath: LorentzianBath, beta: float, omega: float, k: int) -> float:
    """A_beta(omega) for k = 1 and A'_beta(omega) for k = 2, omega != 0.

    Each pole factor is f(p) = const - F(z0 + dz p), F = psi (log at
    beta = inf); the residues carry 1/(p - omega)^k.  The omega term is
    -J x for k = 1 and -(J' x + J x') for k = 2, x = F at the lower-pole
    map of omega.  The pole factors come from _pole_factors, so a call
    that shares omega_0, Gamma and beta with an earlier one evaluates F
    only at that map.
    """
    w0, g = bath.omega_0, bath.gamma_w
    merged, delta, upper, lower = _pole_factors(w0, g, beta)

    def pair(nodes):
        # Residue sum over a pole pair: the divided difference
        # (h(m + delta) - h(m - delta)) / 2 delta, h = f(p) / (p - omega)^k.
        # Near critical damping the quotient cancels; there it is the mean
        # of h' over the segment by Gauss-Legendre, exact to rounding for
        # |delta| < |m|/4 since h is analytic within |m| = Gamma/2 of m,
        # and h'(m) at delta = 0.
        if not merged:
            (pp, fp, _), (pm, fm, _) = nodes
            return (fp / (pp - omega) ** k - fm / (pm - omega) ** k) / (2.0 * delta)
        total = 0.0
        for (p, f, df), wt in zip(nodes, _GL_W):
            u = 1.0 / (p - omega)
            total += wt * (df - k * f * u) * u**k
        return 0.5 * total

    poles = pair(upper) - pair(lower)
    fns, _, (_, z0, dz) = _pole_maps(beta)
    x, dx = fns(z0 + dz * omega)
    den = (w0 * w0 - omega * omega) ** 2 + (g * omega) ** 2
    amp = bath.a_lor * g / math.pi
    j = amp * omega / den
    if k == 1:
        tail = j * x
    else:
        dden = 2.0 * omega * (g * g - 2.0 * (w0 * w0 - omega * omega))
        tail = amp * (den - omega * dden) / den**2 * x + j * dz * dx
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
