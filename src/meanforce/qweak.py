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
omega.  The pole factors do not depend on omega, so one call evaluates
them once and builds A and A' at every omega it is given from them; no
value is kept between calls.  The tests check both against quadrature and
mpmath.
"""

from __future__ import annotations

import cmath
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


def _bath_integrals(bath: LorentzianBath, beta: float, omegas, prime=True):
    """[(A_beta(omega), A'_beta(omega)) for omega in omegas], omega != 0;
    (A_beta(omega),) if not prime: A' squares J's denominator, which
    overflows from |omega| ~ 1e38.  F = psi (log at beta = inf) is evaluated
    once per pole node p, as f(p) = const - F(z0 + dz p), and once per
    omega, as x = F(z0 + dz omega) on the lower map; the residues carry
    1/(p - omega)^k, k = 1 for A and 2 for A', and the omega term is -J x
    for A and -(J' x + J x') for A'.  The nodes are m +- delta on the pole
    pairs m = +-i Gamma/2, or the 8 Gauss-Legendre points of the segment
    near critical damping, where the pair merges into a double pole.
    """
    w0, g = bath.omega_0, bath.gamma_w
    if math.isinf(beta):
        fns, upper, lower = _log_and_reciprocal, (0.0, 0.0, -1.0), (0.0, 0.0, -1.0)
    else:
        c = beta / (2.0 * math.pi)
        fns, upper, lower = _polygammas, (1j * math.pi, 0.0, -1j * c), (0.0, 1.0, 1j * c)
    delta = cmath.sqrt((w0 - 0.5 * g) * (w0 + 0.5 * g))
    merged = abs(delta) < 0.125 * g
    ts = _GL_T if merged else (1.0, -1.0)

    def nodes(m, const, z0, dz):
        out = []
        for t in ts:
            p = m + delta * t
            f, df = fns(z0 + dz * p)
            out.append((p, const - f, -dz * df))
        return out

    up, lo = nodes(0.5j * g, *upper), nodes(-0.5j * g, *lower)

    def pair(nodes, omega, k):
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

    _, z0, dz = lower
    amp = bath.a_lor * g / math.pi
    out = []
    for omega in omegas:
        x, dx = fns(z0 + dz * omega)
        den = (w0 * w0 - omega * omega) ** 2 + (g * omega) ** 2
        j = amp * omega / den
        tails = [j * x]
        if prime:
            dden = 2.0 * omega * (g * g - 2.0 * (w0 * w0 - omega * omega))
            tails.append(amp * (den - omega * dden) / den**2 * x + j * dz * dx)
        out.append(tuple(
            float((bath.a_lor / (2j * math.pi) * (pair(up, omega, k) - pair(lo, omega, k))
                   - tail).real)
            for k, tail in enumerate(tails, 1)))
    return out


def bath_a(bath: LorentzianBath, beta: float, omega_n: float) -> float:
    """Principal-value integral
    A_beta(wn) = PV int_0^inf J(w)[(n(w)+1)/(w-wn) - n(w)/(w+wn)] dw,
    evaluated in closed form (see the module docstring).  A' is not formed.

    wn = 0 returns Q exactly; beta = inf drops the occupation terms.
    """
    lorentzian_bath(bath, "bath_a")
    _check_positive(beta=beta)  # A_beta diverges at beta = 0
    if omega_n == 0.0:
        return bath.q
    return _bath_integrals(bath, beta, (omega_n,), prime=False)[0][0]


def bath_combos(bath: LorentzianBath, beta: float, omega_l: float) -> BathIntegrals:
    """Symmetric/antisymmetric combinations of A_beta and its derivative
    evaluated at the spin gap omega_l != 0.

    One pass of the closed form gives A and A' = dA_beta/domega at
    +-omega_l: each pole factor is evaluated once per call, and the
    squared-denominator kernels are never integrated.
    """
    lorentzian_bath(bath, "bath_combos")
    _check_positive(beta=beta)  # A_beta diverges at beta = 0
    (ap, app), (am, apm) = _bath_integrals(bath, beta, (omega_l, -omega_l))
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
