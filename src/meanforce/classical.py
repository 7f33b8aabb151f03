"""Classical spin equilibrium states.

Exact classical mean-force (CMF) expectation values at arbitrary coupling via
a one-dimensional integral over the collective bath coordinate (and a 1D
root search at T = 0), classical Gibbs closed forms, weak and ultrastrong
closed forms, and a Monte-Carlo sampling oracle.

The effective spin Hamiltonian after tracing out the reservoir is

    H_eff(v, phi) = -omega_l*S0*cos(v) - Q*S0^2*(cos(theta)cos(v)
                                                 - sin(theta)sin(v)cos(phi))^2

with v the polar and phi the azimuthal angle.  Everything below works with
the two dimensionless combinations x1 = beta*omega_l*S0 and
x2 = beta*Q*S0^2, which makes the scaling invariance
(S0, beta, Q) -> (k*S0, beta/k, Q/k) exact to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import ModelParams
from .results import SpinExpectation

__all__ = [
    "ClassicalMoments",
    "SphericalPoint",
    "QuadratureNotConverged",
    "cl_gibbs_stats",
    "cmf_logweight",
    "cmf_expectations",
    "cmf_wk_expectations",
    "us_expectations",
    "cmf_sample",
]


class QuadratureNotConverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ClassicalMoments:
    """Log partition function and normalized spin moments of a classical
    state; z_part is the partition function, inf past the float range."""

    log_z: float
    sz: float
    sx: float
    quad_err: float = 0.0
    sz_err: float = 0.0
    sx_err: float = 0.0

    @property
    def z_part(self) -> float:
        return math.exp(self.log_z) if self.log_z < 709.0 else math.inf


@dataclass(frozen=True)
class SphericalPoint:
    v_theta: float  # polar angle in [0, pi]
    phi: float      # azimuth in [0, 2*pi]

    def __post_init__(self):
        if not 0.0 <= self.v_theta <= math.pi:
            raise ValueError("v_theta must lie in [0, pi]")
        if not 0.0 <= self.phi <= 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi]")


# ---------------------------------------------------------------------------
# Gibbs closed forms


# L(x)/x = sum_k c_k x^(2k-2) for the Langevin function L = coth x - 1/x,
# from L' = 1 - L^2 - 2L/x: c_1 = 1/3, (2k+1) c_k = -sum_(i+j=k) c_i c_j.
# Below _SERIES_X, where the closed forms cancel, 16 terms of
# h = (1/3 - L/x)/x^2 and 17 of ln(sinh x / x) = sum_k c_k x^2k / 2k are
# exact to rounding.
_SERIES_X = 1.0
_C = [1.0 / 3.0]
for _k in range(2, 18):
    _C.append(-math.fsum(_C[i] * _C[_k - 2 - i] for i in range(_k - 1))
              / (2 * _k + 1))
_H_SERIES = [-c for c in _C[1:]]
_LOG_SINHC_SERIES = [c / (2 * k) for k, c in enumerate(_C, 1)]


def _series(coeffs, t: float) -> float:
    """sum_k coeffs[k] t^k by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _langevin(x: float) -> tuple[float, float]:
    """(L, b2) at finite x >= 0: the Langevin function L = coth x - 1/x and
    b2 = 1 - 3L/x = 3 x^2 h, both without cancellation (see _C)."""
    if x < _SERIES_X:
        x2 = x * x
        h = _series(_H_SERIES, x2)
        return x * (1.0 / 3.0 - x2 * h), 3.0 * x2 * h
    lang = 1.0 / math.tanh(x) - 1.0 / x
    return lang, 1.0 - 3.0 * lang / x


def cl_gibbs_stats(x: float) -> ClassicalMoments:
    """Classical Gibbs spin moments at x = beta*omega_l*S0.

    ln Z = ln(sinh(x)/x) and <sz> = coth(x) - 1/x.  Series are used below
    x = 1 and the aligned limit at x = inf.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if math.isinf(x):
        return ClassicalMoments(log_z=math.inf, sz=1.0, sx=0.0)
    if x < _SERIES_X:
        log_z = x * x * _series(_LOG_SINHC_SERIES, x * x)
    else:
        log_z = x + float(_log_sinhc_less_r(x))
    return ClassicalMoments(log_z=log_z, sz=_langevin(x)[0], sx=0.0)


# ---------------------------------------------------------------------------
# CMF state


def _s_theta_unit(theta: float, v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return np.cos(theta) * np.cos(v) - np.sin(theta) * np.sin(v) * np.cos(phi)


def cmf_logweight(p: SphericalPoint, params: ModelParams) -> float:
    """-beta*H_eff at a spherical point; at beta = inf returns -H_eff itself
    (caller distinguishes via math.isinf(params.beta))."""
    s0 = params.s0
    st = _s_theta_unit(params.theta, np.float64(p.v_theta), np.float64(p.phi))
    h_eff = -params.omega_l * s0 * math.cos(p.v_theta) - params.q * s0**2 * st**2
    if math.isinf(params.beta):
        return -float(h_eff)
    return -params.beta * float(h_eff)


# The bath-coordinate weight has at most two peaks, each about 1 wide in u;
# panels of width _PANEL cover every u whose weight is within e^-_DEPTH of
# the largest, and Gauss-Legendre rules of orders 12 and 20 give the error
# estimate.
_PANEL = 1.0
_DEPTH = 45.0
_RULES = (leggauss(12), leggauss(20))


def _log_sinhc_less_r(r):
    """log(sinh r / r) - r = -log 2r + log(1 - e^-2r) for r > 0, with expm1
    so that it stays accurate near r = 0."""
    return np.log(-np.expm1(-2.0 * r) / (2.0 * r))


def _bath_panels(x1: float, x2: float) -> np.ndarray:
    """Panel edges in u covering the weight's support, one row per band.

    Since log(sinh r / r) <= r <= x1 + sigma|u|, the log-weight
    -u^2/2 + log(sinh r / r) is at most x1 + x2 - (|u| - sigma)^2 / 2; at
    u = sigma it is at least log(sinh R / R) - x2 with R = max(x1, 2 x2).
    So |(|u|) - sigma| <= d covers the support, with
    d^2 / 2 = _DEPTH + x1 + 2 x2 - log(sinh R / R).
    """
    sigma = math.sqrt(2.0 * x2)
    big = max(x1, 2.0 * x2)
    d = math.sqrt(2.0 * (_DEPTH + x1 + 2.0 * x2 - big
                         - float(_log_sinhc_less_r(big))))
    lo, hi = max(0.0, sigma - d), sigma + d
    band = np.linspace(lo, hi, 1 + math.ceil((hi - lo) / _PANEL))
    if lo == 0.0:
        return np.concatenate([-band[:0:-1], band])[None, :]
    return np.stack([-band[::-1], band])


def _panel_nodes(breaks: np.ndarray, rule):
    x, w = rule
    lo = breaks[..., :-1, None]
    hi = breaks[..., 1:, None]
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wts = 0.5 * (hi - lo) * w
    return nodes.ravel(), wts.ravel()


def _bath_terms(theta: float, x1: float, x2: float, u: np.ndarray):
    """Log-weight minus x2, and L(r)/r times (h_z, h_x), at the scaled bath
    coordinate u = y / sigma, sigma = sqrt(2 x2).

    The field is h = x1 z + y e_theta with r = |h|.  The log-weight
    -u^2/2 + log(sinh r / r) - x2 is written as
    -(|u| - sigma)^2 / 2 + (r - sigma|u|) - log 2r + log(1 - e^-2r) with
    r - sigma|u| = (x1^2 + 2 x1 y cos theta) / (r + sigma|u|), so that no
    term of size x2 cancels.
    """
    sigma = math.sqrt(2.0 * x2)
    y = sigma * u
    yc = y * math.cos(theta)
    hz = x1 + yc
    hx = -y * math.sin(theta)
    # r = 0 needs theta = 0 and y = -x1; every formula below has its limit
    # at r = 1e-300 already
    r = np.maximum(np.hypot(hz, hx), 1e-300)
    logw = (-0.5 * (np.abs(u) - sigma) ** 2
            + (x1 * x1 + 2.0 * x1 * yc) / (r + np.abs(y))
            + _log_sinhc_less_r(r))
    # L(r)/r = (coth r - 1/r)/r, by its series below 0.1
    small = r < 0.1
    rb = np.where(small, 1.0, r)
    r2 = r * r
    g = np.where(small,
                 1.0 / 3.0 - r2 / 45.0 + 2.0 * r2**2 / 945.0 - r2**3 / 4725.0,
                 (1.0 / np.tanh(rb) - 1.0 / rb) / rb)
    return logw, g * hz, g * hx


def _bath_average(theta, x1, x2, u, w):
    """(log Z - x2, sz, sx) from one quadrature rule over u."""
    logw, fz, fx = _bath_terms(theta, x1, x2, u)
    top = float(logw.max())
    wt = w * np.exp(logw - top)
    total = float(wt.sum())
    return (top + math.log(total / math.sqrt(2.0 * math.pi)),
            float(wt @ fz) / total, float(wt @ fx) / total)


def _coupling_cos(theta: float) -> float:
    """cos(theta), exactly 0 at transverse coupling (|cos theta| < 1e-12):
    cos of the float nearest pi/2 is 6e-17, which would populate one
    S_theta branch more than the other and tilt the flat T = 0 maximum at
    zeta = 1/2 by 4e-6."""
    c = math.cos(theta)
    return 0.0 if abs(c) < 1e-12 else c


def _zero_temperature_maxima(theta: float, zeta: float) -> list[float]:
    """Angles psi of the global maxima of -H_eff, the T = 0 orientations.

    The maxima lie in the x-z plane, s = (sin psi, 0, cos psi), where
    -H_eff / (omega_l S0) = g(psi) = cos psi + zeta cos^2(psi + theta).
    Each maximum is bracketed by a + to - sign change of g' on a grid and
    polished as a root of g' by Newton's method, which resolves psi to
    rounding; maximising g itself resolves only sqrt(eps).  Maxima within
    1e-9 of the range of g of the best are all kept.
    """
    c, s = _coupling_cos(theta), math.sin(theta)

    def shape(p):
        """g and its first two derivatives, on arrays or scalars."""
        a = c * np.cos(p) - s * np.sin(p)   # cos(p + theta)
        b = c * np.sin(p) + s * np.cos(p)   # sin(p + theta)
        return (np.cos(p) + zeta * a * a, -np.sin(p) - 2.0 * zeta * a * b,
                -np.cos(p) - 2.0 * zeta * (a * a - b * b))

    # psi = 0 is a grid point, where g' vanishes exactly at theta = 0, pi/2
    step = 2.0 * math.pi / 1440
    psi = np.arange(-720, 720) * step
    gvals, gp, _ = shape(psi)
    gp_next = np.roll(gp, -1)
    roots = []
    for i in np.flatnonzero((gp > 0.0) & (gp_next <= 0.0)):
        lo, hi = float(psi[i]), float(psi[i]) + step
        x = lo if abs(gp[i]) < abs(gp_next[i]) else hi
        for _ in range(100):
            _, d1, d2 = shape(x)
            if d1 == 0.0:
                break
            if d1 > 0.0:
                lo = x
            else:
                hi = x
            # Newton, or bisection where Newton leaves the bracket
            x, last = x - d1 / d2, x
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
            if abs(x - last) < 1e-15:
                break
        roots.append((float(shape(x)[0]), float(x)))
    best = max(val for val, _ in roots)
    span = float(gvals.max() - gvals.min()) or 1.0
    return [x for val, x in roots if val >= best - 1e-9 * span]


def _cmf_zero_temperature(theta: float, zeta: float) -> ClassicalMoments:
    """T = 0 limit: the average of s over the global maxima of -H_eff."""
    kept = _zero_temperature_maxima(theta, zeta)
    sz = sum(math.cos(x) for x in kept) / len(kept)
    sx = sum(math.sin(x) for x in kept) / len(kept)
    return ClassicalMoments(log_z=math.inf, sz=sz, sx=sx, quad_err=0.0)


def cmf_expectations(params: ModelParams, tol: float = 1e-10) -> ClassicalMoments:
    """Exact CMF partition function and (sz, sx).

    The Gaussian identity exp(x2 u^2) = E_y[exp(y u)], y ~ N(0, 2 x2), and
    the sphere average sinh|h|/|h| of exp(h.s) for h = x1 z + y e_theta
    turn the sphere integral into a 1D integral over the collective bath
    coordinate y, done by composite Gauss-Legendre quadrature.  quad_err is
    the difference between two orders; above tol QuadratureNotConverged is
    raised.  Valid for any Q >= 0 and any beta including 0 and inf; at
    beta = inf the average over the orientations of least energy is
    returned instead.
    """
    theta = params.theta
    if math.isinf(params.beta):
        return _cmf_zero_temperature(theta, params.zeta)
    x1 = params.beta * params.omega_l * params.s0
    x2 = params.beta * params.q * params.s0**2
    if x2 == 0.0:
        return cl_gibbs_stats(x1)

    breaks = _bath_panels(x1, x2)
    (lz_a, sz_a, sx_a), (lz, sz, sx) = (
        _bath_average(theta, x1, x2, *_panel_nodes(breaks, rule))
        for rule in _RULES)
    err = max(abs(sz - sz_a), abs(sx - sx_a))
    if lz + x2 < 709.0:
        # Z's error counts only where Z is finite: beyond, the log-weights
        # are large enough that their rounding alone exceeds tol
        err = max(err, abs(math.expm1(lz - lz_a)))
    if not err < tol:
        raise QuadratureNotConverged(
            f"bath-coordinate quadrature not converged: err={err:.3e} "
            f"at x1={x1:.6g}, x2={x2:.6g}")
    return ClassicalMoments(log_z=lz + x2, sz=sz, sx=sx, quad_err=err)


# ---------------------------------------------------------------------------
# Closed-form limits


def cmf_wk_expectations(params: ModelParams) -> SpinExpectation:
    """Second-order (weak-coupling) CMF closed forms in scaled temperature.

    sz = L(x) + (zeta/2)(1+3cos2theta) b1,  b1 = csch^2 x + coth(x)/x - 2/x^2
    sx = -zeta sin2theta b2,  b2 = 1 - 3coth(x)/x + 3/x^2,  x = beta'*omega_l.
    Below x = 1, b1 = L^2 - b2 and b2 come from the series of _langevin.
    """
    zt = params.zeta
    theta = params.theta
    x = params.beta * params.s0 * params.omega_l
    if math.isinf(x):
        lang, b1, b2 = 1.0, 0.0, 1.0
    else:
        lang, b2 = _langevin(x)
        # L^2 - b2 cancels by a factor of about x at large x
        b1 = (lang * lang - b2 if x < _SERIES_X
              else 1.0 / math.tanh(x) ** 2 - 1.0 + (lang - 1.0 / x) / x)
    sz = lang + 0.5 * zt * (1.0 + 3.0 * math.cos(2.0 * theta)) * b1
    sx = -zt * math.sin(2.0 * theta) * b2
    return SpinExpectation(sz=sz, sx=sx, method="cmf_wk")


def _us_tanh(params: ModelParams) -> float:
    ct = _coupling_cos(params.theta)
    if ct == 0.0:
        # transverse coupling: both S_theta branches equally populated
        return 0.0
    return math.tanh(params.beta * params.omega_l * params.s0 * ct)


def us_expectations(params: ModelParams) -> SpinExpectation:
    """Ultrastrong (Q -> inf) spin expectations, shared by the quantum and
    classical treatments: sz = cos(theta) tanh(beta*omega_l*S0*cos(theta)),
    sx = -sin(theta) times the same tanh.  The sign of sx follows the
    minus-x alignment of the mean-force distribution."""
    t = _us_tanh(params)
    return SpinExpectation(sz=math.cos(params.theta) * t,
                           sx=-math.sin(params.theta) * t,
                           method="us")


# ---------------------------------------------------------------------------
# Monte-Carlo oracle


def cmf_sample(params: ModelParams, seed: int, count: int) -> ClassicalMoments:
    """Self-normalized importance sampling of the CMF density on the sphere.

    Uniform sphere proposals reweighted by exp(-beta*H_eff); returns sz, sx
    with standard errors.  Deterministic for a fixed seed; rejects T = 0.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if math.isinf(params.beta):
        raise ValueError("sampling undefined at T = 0")
    rng = np.random.default_rng(seed)
    x1 = params.beta * params.omega_l * params.s0
    x2 = params.beta * params.q * params.s0**2

    cos_v = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
    sin_v = np.sqrt(1.0 - cos_v**2)
    st = math.cos(params.theta) * cos_v - math.sin(params.theta) * sin_v * np.cos(phi)
    logw = x1 * cos_v + x2 * st**2
    shift = float(logw.max())
    w = np.exp(logw - shift)
    wsum = float(w.sum())

    def ratio_estimate(f):
        fhat = float(np.sum(w * f)) / wsum
        # delta-method standard error of the self-normalized estimator
        se = math.sqrt(float(np.sum((w * (f - fhat)) ** 2))) / wsum
        return fhat, se

    sz, sz_err = ratio_estimate(cos_v)
    sx, sx_err = ratio_estimate(sin_v * np.cos(phi))
    return ClassicalMoments(
        log_z=shift + math.log(wsum / count), sz=sz, sx=sx, quad_err=0.0,
        sz_err=sz_err, sx_err=sx_err
    )
