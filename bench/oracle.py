"""Independent reference values for the benchmark's correctness checks.

Nothing here imports meanforce.  Each reference reaches the same physical
quantity by a different route than the package does, so an optimisation
that changes a solver's numbers beyond its stated tolerance is caught:

- classical mean-force state at T > 0: the Gaussian identity
  exp(x2 u^2) = E_y[exp(y u)], y ~ N(0, 2 x2), and the closed-form sphere
  average sinh|h|/|h| turn the sphere integral into a 1D integral over the
  collective bath coordinate y;
- classical T = 0: the global minima of H_eff lie in the plane spanned by
  z and the coupling axis, so a 1D scan plus polish finds them;
- classical weak coupling: first-order perturbation in x2 around the Gibbs
  state, by quadrature over cos(v);
- bare Gibbs and ultrastrong states: direct Boltzmann sums;
- bath integrals A_beta(w): Cauchy-weight quadrature (QUADPACK QAWC) in
  place of the package's residue subtraction, and a five-point derivative;
- reaction coordinate: the same doubling rule on a real symmetric
  Hamiltonian.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

_GL_X, _GL_W = leggauss(24)


def _panels(a, b, n):
    """Composite Gauss-Legendre nodes and weights on [a, b] with n panels."""
    edges = np.linspace(a, b, n + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    x = (0.5 * (hi - lo) * _GL_X[None, :] + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * _GL_W[None, :]).ravel()
    return x, w


def _coth_minus_inv(r):
    """Langevin function L(r) = coth r - 1/r, vectorised, series near 0."""
    r = np.asarray(r, dtype=float)
    small = r < 1e-2
    rs = np.where(small, 1.0, r)
    big = 1.0 / np.tanh(rs) - 1.0 / rs
    ser = r / 3.0 - r**3 / 45.0 + 2.0 * r**5 / 945.0
    return np.where(small, ser, big)


def _log_sinhc(r):
    """log(sinh r / r), vectorised and overflow-free."""
    r = np.asarray(r, dtype=float)
    small = r < 1e-4
    rs = np.where(small, 1.0, r)
    big = rs - np.log(2.0 * rs) + np.log1p(-np.exp(-2.0 * rs))
    return np.where(small, r * r / 6.0, big)


# ---------------------------------------------------------------------------
# classical states


def gibbs_classical(x: float):
    """(sz, sx) of the bare classical Gibbs state at x = beta*omega_l*S0,
    by quadrature over c = cos(v) with weight exp(x (c - 1))."""
    if math.isinf(x):
        return 1.0, 0.0
    c, w = _panels(-1.0, 1.0, 64)
    wt = w * np.exp(x * (c - 1.0))
    return float(np.sum(wt * c) / np.sum(wt)), 0.0


def gibbs_quantum(beta: float, n: int, omega_l: float):
    """Normalised (sz, sx) and raw moments <Sz^k>, k = 1..3, of
    H = -omega_l Sz by a direct Boltzmann sum."""
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    if math.isinf(beta):
        w = (m == s0).astype(float)
    else:
        w = np.exp(beta * omega_l * (m - s0))
    w /= w.sum()
    m1, m2, m3 = (float(np.sum(w * m**k)) for k in (1, 2, 3))
    return (m1 / s0, 0.0), (m1, m2, m3)


def ultrastrong(theta: float, x: float):
    """Two-state Boltzmann average over s = +-e (e the coupling axis, whose
    z component cos(theta) >= 0) with energies -+ omega_l S0 e_z, at
    x = beta*omega_l*S0."""
    ez, ex = math.cos(theta), -math.sin(theta)
    if abs(ez) < 1e-12:
        return 0.0, 0.0
    t = 1.0 if math.isinf(x) else math.tanh(x * ez)
    return ez * t, ex * t


def cmf_weak(theta: float, x: float, zeta: float):
    """First-order (in x2 = zeta*x) classical mean-force state:
    <f> = <f>_0 + x2 cov_0(f, u^2), u = s.e, Gibbs weight exp(x cos v)."""
    if math.isinf(x):
        return 1.0, -zeta * math.sin(2.0 * theta)
    c, w = _panels(-1.0, 1.0, 64)
    wt = w * np.exp(x * (c - 1.0))
    wt /= wt.sum()
    mom = [float(np.sum(wt * c**k)) for k in range(4)]
    a = (1.0 + 3.0 * math.cos(2.0 * theta)) / 4.0
    # phi-averaged u^2 = sin^2(theta)/2 + a c^2
    sz = mom[1] + zeta * x * a * (mom[3] - mom[1] * mom[2])
    # phi-average of sin(v)cos(phi) u^2 = -sin(2 theta) c (1 - c^2) / 2
    sx = -zeta * x * math.sin(2.0 * theta) * 0.5 * (mom[1] - mom[3])
    return sz, sx


def cmf_exact(theta: float, x1: float, x2: float):
    """Exact classical mean-force (sz, sx) at finite temperature through
    the 1D bath-coordinate integral.  Returns (sz, sx, err) where err is the
    change between two resolutions."""
    if x2 == 0.0:
        return gibbs_classical(x1) + (0.0,)
    st, ct = math.sin(theta), math.cos(theta)
    sd = math.sqrt(2.0 * x2)
    span = 2.0 * x2 + x1 + 40.0 * sd + 1.0

    def integrate(n_panels):
        y, w = _panels(-span, span, n_panels)
        hx, hz = -y * st, x1 + y * ct
        r = np.hypot(hx, hz)
        logw = -y * y / (4.0 * x2) + _log_sinhc(r)
        wt = w * np.exp(logw - logw.max())
        g = np.where(r > 0, _coth_minus_inv(r) / np.where(r > 0, r, 1.0),
                     1.0 / 3.0)
        z = wt.sum()
        return float(np.sum(wt * g * hz) / z), float(np.sum(wt * g * hx) / z)

    n = int(min(20000, max(64, math.ceil(2.0 * span / (0.5 * sd)))))
    a = integrate(n)
    b = integrate(2 * n)
    return b[0], b[1], max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def cmf_zero_temperature(theta: float, zeta: float):
    """T = 0 classical state: average of s over the global maxima of
    g(psi) = cos(psi) + zeta cos^2(psi + theta), s = (sin psi, 0, cos psi).
    Each maximum is located as a root of g'(psi), which resolves psi to
    machine precision (maximising g itself resolves only sqrt(eps))."""

    def dg(p):
        return -math.sin(p) - zeta * math.sin(2.0 * (p + theta))

    psi = np.linspace(-math.pi, math.pi, 20001)
    vals = np.cos(psi) + zeta * np.cos(psi + theta) ** 2
    step = psi[1] - psi[0]
    local = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    span = float(vals.max() - vals.min()) or 1.0
    cands = []
    for i in np.flatnonzero(local & (vals >= vals.max() - 1e-3 * span)):
        lo, hi = psi[i] - step, psi[i] + step
        p = brentq(dg, lo, hi, xtol=1e-15) if dg(lo) * dg(hi) < 0 else psi[i]
        cands.append((math.cos(p) + zeta * math.cos(p + theta) ** 2, p))
    best = max(v for v, _ in cands)
    kept = []
    for v, p in sorted(cands, reverse=True):
        vec = (math.sin(p), math.cos(p))
        if v < best - 1e-9 * span:
            continue
        if any(max(abs(vec[0] - q[0]), abs(vec[1] - q[1])) < 1e-6 for q in kept):
            continue
        kept.append(vec)
    return (float(np.mean([k[1] for k in kept])),
            float(np.mean([k[0] for k in kept])))


def cmf(theta: float, beta: float, omega_l: float, s0: float, q: float):
    """Classical mean-force (sz, sx) for any beta > 0 including inf."""
    if math.isinf(beta):
        return cmf_zero_temperature(theta, q * s0 / omega_l)
    sz, sx, err = cmf_exact(theta, beta * omega_l * s0, beta * q * s0 * s0)
    if err > 1e-12:
        raise RuntimeError(f"reference integral not converged: {err:.1e}")
    return sz, sx


# ---------------------------------------------------------------------------
# second-order quantum state


def _lorentz_j(w, a_lor, omega_0, gamma_w):
    return (a_lor * gamma_w / math.pi) * w / ((omega_0**2 - w * w) ** 2
                                             + (gamma_w * w) ** 2)


def bath_integral(a_lor, omega_0, gamma_w, beta, wn):
    """A_beta(wn) = PV int_0^inf J(w)[(n+1)/(w-wn) - n/(w+wn)] dw, with the
    principal value taken by QUADPACK's Cauchy weight."""
    if wn == 0.0:
        return a_lor / (2.0 * omega_0**2)
    cold = math.isinf(beta)

    def jn(w):
        # J(w) n(w), finite at w = 0
        if cold:
            return 0.0
        if w == 0.0:
            return (a_lor * gamma_w / math.pi) / omega_0**4 / beta
        bw = beta * w
        if bw > 700:
            return 0.0
        return _lorentz_j(w, a_lor, omega_0, gamma_w) / math.expm1(bw)

    def jn1(w):
        return _lorentz_j(w, a_lor, omega_0, gamma_w) + jn(w)

    opts = dict(limit=500, epsabs=1e-14, epsrel=1e-13)
    cut = 4.0 * omega_0 + 2.0 * abs(wn) + 20.0 * gamma_w
    brk = [p for p in (omega_0 - gamma_w, omega_0, omega_0 + gamma_w)
           if 0 < p < cut]

    def pv(f, c):
        # PV int_0^inf f(w)/(w - c) dw for c > 0
        val = quad(f, 0.0, cut, weight="cauchy", wvar=c, **opts)[0]
        return val + quad(lambda w: f(w) / (w - c), cut, np.inf, **opts)[0]

    def regular(f, c):
        # int_0^inf f(w)/(w + c) dw for c > 0
        val = quad(lambda w: f(w) / (w + c), 0.0, cut, points=brk, **opts)[0]
        return val + quad(lambda w: f(w) / (w + c), cut, np.inf, **opts)[0]

    if wn > 0:
        return pv(jn1, wn) - (0.0 if cold else regular(jn, wn))
    return regular(jn1, -wn) - (0.0 if cold else pv(jn, -wn))


def qmf_weak(theta, beta, omega_l, n, a_lor, omega_0, gamma_w):
    """Normalised (sz, sx) of the second-order quantum mean-force state.

    Uses the same second-order assembly as the package's weak-coupling
    solver; the bath integrals and their derivatives are computed
    independently (Cauchy-weight quadrature, five-point derivative)."""
    if beta == 0.0:
        return 0.0, 0.0
    s0 = n / 2.0
    _, (m1, m2, m3) = gibbs_quantum(beta, n, omega_l)

    def a(w):
        return bath_integral(a_lor, omega_0, gamma_w, beta, w)

    def a_prime(w):
        h = 2e-3 * abs(w)
        return (a(w - 2 * h) - 8 * a(w - h) + 8 * a(w + h) - a(w + 2 * h)) \
            / (12.0 * h)

    ap, am = a(omega_l), a(-omega_l)
    app, apm = a_prime(omega_l), a_prime(-omega_l)
    q = a_lor / (2.0 * omega_0**2)
    sigma, delta_b = ap + am, ap - am
    delta_bp, sigma_p = app + apm, app - apm
    cas = s0 * (s0 + 1.0)
    sin2 = math.sin(theta) ** 2
    sz = m1 + 0.25 * sin2 * ((cas - m2) * sigma_p - m1 * delta_bp)
    if not math.isinf(beta):
        c2, c3 = m2 - m1 * m1, m3 - m1 * m2
        sz -= beta * (0.25 * sin2 * (c2 * delta_b + c3 * sigma)
                      - math.cos(theta) ** 2 * c3 * q)
    sx = (math.sin(2.0 * theta) / (4.0 * omega_l)) * (
        (cas - m2) * sigma - m1 * delta_b - 4.0 * m2 * q)
    return sz / s0, sx / s0


# ---------------------------------------------------------------------------
# reaction coordinate


def rc_exact(theta, beta, omega_l, n, q, omega_0, tol=1e-6, n_max=2048):
    """Normalised (sz, sx, n_used) of the spin + reaction-coordinate Gibbs
    state, real symmetric arithmetic, with the doubling rule: start at 16
    levels (raised to exceed 4 n_bar + 10), double until <Sz> and <Sx> both
    move by less than tol."""
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    sz_op = np.diag(m)
    up = np.sqrt(s0 * (s0 + 1.0) - m[1:] * (m[1:] + 1.0))
    sp = np.zeros((n + 1, n + 1))
    sp[np.arange(n), np.arange(1, n + 1)] = up
    sx_op = 0.5 * (sp + sp.T)
    s_theta = math.cos(theta) * sz_op - math.sin(theta) * sx_op
    lam = math.sqrt(q * omega_0)
    levels = 16
    if beta > 0 and beta * omega_0 < 50.0:
        n_bar = 1.0 / math.expm1(beta * omega_0)
        while levels < 4.0 * n_bar + 10.0 and levels < n_max:
            levels *= 2
    prev = None
    while levels <= n_max:
        a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1)
        h = (np.kron(-omega_l * sz_op, np.eye(levels))
             + np.kron(np.eye(n + 1), omega_0 * np.diag(np.arange(levels, dtype=float)))
             + lam * np.kron(s_theta, a + a.T))
        ev, vec = np.linalg.eigh(h)
        if math.isinf(beta):
            span = float(ev[-1] - ev[0]) or 1.0
            w = (ev <= ev[0] + 1e-9 * span).astype(float)
        else:
            w = np.exp(-beta * (ev - ev[0]))
        w /= w.sum()
        # reduced state: rho_s[i, j] = sum_k sum_e w_e V[(i,k), e] V[(j,k), e]
        v = vec.reshape(n + 1, levels, -1)
        rho = np.einsum("ike,jke,e->ij", v, v, w)
        sz, sx = float(np.sum(rho * sz_op)), float(np.sum(rho * sx_op))
        if prev is not None and abs(sz - prev[0]) < tol and abs(sx - prev[1]) < tol:
            return sz / s0, sx / s0, levels
        prev = (sz, sx)
        levels *= 2
    raise RuntimeError("reaction-coordinate reference did not converge")
