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

from .model import LorentzianBath, ModelParams, _check_positive, lorentzian_bath
from .qspin import gibbs_weights, sz_ladder
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
    lorentzian_bath(bath, "bath_a")
    _check_positive(beta=beta)  # A_beta diverges at beta = 0
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


def _wk_bands(params: ModelParams):
    """The Sz ladder m_j = S0 - j, a_j = <m_j + 1|S+|m_j> (j = 1..n) of
    sz_ladder and the diagonals d_j = rho[j, j], e_j = rho[j-1, j],
    f_j = rho[j-2, j] of the second-order mean-force state (Cresser & Anders,
    PRL 127, 250601 (2021)), as (m, a, d, e, f).  H_S = -omega_l Sz is
    diagonal and the coupling's eigenoperators -(1/2)sin S-, cos Sz and
    -(1/2)sin S+ move m by at most 1, so rho is real symmetric and zero
    beyond the second off-diagonal.  With p the bare Gibbs weights,
    a_0 = a_(n+1) = 0, up_j = a_j^2 p_j, dn_j = a_(j+1)^2 p_j and
    A'+- = (Delta' +- Sigma')/2:

        d_j = p_j + (sin^2/4)[A'+ (up_(j+1) - up_j) + A'- (dn_(j-1) - dn_j)]
              + beta p_j (z_j - p.z),
        z_j = (sin^2/4)(A+ a_j^2 + A- a_(j+1)^2) + cos^2 Q m_j^2,
        e_j = (sin cos/2wl) a_j [A+ p_j + A- p_(j-1) - 2Q (m_(j-1) p_(j-1) - m_j p_j)],
        f_j = (sin^2/8wl) a_(j-1) a_j [A+ (p_(j-1) - p_j) + A- (p_(j-2) - p_(j-1))].

    The correction is traceless.  The beta term vanishes at beta = inf and
    is dropped there; beta = 0 gives p.
    """
    bath = lorentzian_bath(params.bath, "qmf-wk")
    beta, theta, wl, n = params.beta, params.theta, params.omega_l, params.n
    m, a = sz_ladder(n)
    a2 = np.zeros(n + 2)  # a_j^2 for j = 0..n+1, zero past the ends
    a2[1:-1] = np.rint(a * a)  # the integers j(n + 1 - j), exactly
    pe = np.zeros(n + 3)  # pe[j + 1] = p_j, zero past the ends
    p = pe[1:-1]
    p[:] = gibbs_weights(-wl * m, beta)
    p /= p.sum()
    if beta == 0.0:
        return m, a, p, np.zeros(n), np.zeros(n - 1)
    bi = bath_combos(bath, beta, wl)
    ap, am, q = bi.a_plus, bi.a_minus, bi.q
    app = 0.5 * (bi.delta_b_prime + bi.sigma_prime)
    apm = 0.5 * (bi.delta_b_prime - bi.sigma_prime)
    s2, sc = 0.25 * math.sin(theta) ** 2, math.sin(theta) * math.cos(theta)
    up, dn = a2[:-1] * p, a2[1:] * p
    d = p + s2 * (app * (a2[1:] * pe[2:] - up) + apm * (a2[:-1] * pe[:-2] - dn))
    if not math.isinf(beta):
        z = s2 * (ap * a2[:-1] + am * a2[1:]) + math.cos(theta) ** 2 * q * m * m
        # z relative to its value at the largest weight: p.z then cancels
        # no terms of size Q S0^2
        z -= z[np.argmax(p)]
        d += beta * p * (z - p @ z)
    mp = m * p
    e = sc / (2.0 * wl) * a * (ap * p[1:] + am * p[:-1]
                               - 2.0 * q * (mp[:-1] - mp[1:]))
    f = s2 / (2.0 * wl) * a[:-1] * a[1:] * (ap * (p[1:-1] - p[2:])
                                            + am * (p[:-2] - p[1:-1]))
    return m, a, d, e, f


def qmf_wk_expectations(params: ModelParams) -> SpinExpectation:
    """Spin expectations of the second-order mean-force state, normalized
    by S0: the traces <Sz> = sum m_j d_j and <Sx> = sum a_j e_j of the
    bands of _wk_bands, summed exactly (fsum), so beta = 0 gives 0 and 0.
    """
    m, a, d, e, _ = _wk_bands(params)
    s0 = params.s0
    return SpinExpectation(sz=math.fsum(m * d) / s0, sx=math.fsum(a * e) / s0)


def qmf_wk_state(params: ModelParams) -> np.ndarray:
    """Second-order mean-force density matrix in the Sz basis
    (m = S0 .. -S0), pentadiagonal and real; see _wk_bands.  Trace is 1;
    strict positivity is not guaranteed for a truncated expansion.
    """
    _, _, d, e, f = _wk_bands(params)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + np.diag(f, 2) + np.diag(f, -2)
