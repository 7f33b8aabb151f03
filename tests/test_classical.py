"""Classical equilibrium states: Gibbs closed forms, CMF quadrature,
weak and ultrastrong limits, and the Monte-Carlo oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from meanforce.classical import (
    QuadratureNotConverged,
    SphericalPoint,
    _zero_temperature_maxima,
    cl_gibbs_stats,
    cmf_expectations,
    cmf_logweight,
    cmf_sample,
    cmf_wk_expectations,
    us_expectations,
)
from meanforce.model import LorentzianBath, ModelParams


def make_params(theta=math.pi / 4, zeta_val=1.0, beta=2.0, n=1,
                omega_l=1.0, omega_0=7.0, gamma_w=5.0):
    s0 = n / 2.0
    q = zeta_val * omega_l / s0
    bath = LorentzianBath.from_q(q, omega_0, gamma_w)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


# ---------------------------------------------------------------------------
# Gibbs closed forms


def test_gibbs_langevin_values():
    m = cl_gibbs_stats(2.0)
    assert m.sz == pytest.approx(1.0 / math.tanh(2.0) - 0.5, rel=1e-14)
    assert m.z_part == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)
    assert m.sx == 0.0


def test_gibbs_limits():
    m0 = cl_gibbs_stats(0.0)
    assert m0.sz == 0.0
    minf = cl_gibbs_stats(math.inf)
    assert minf.sz == 1.0


def test_gibbs_series_matches_closed_form():
    # the small-x series branch has to join the closed forms smoothly
    for x in (0.049, 0.051):
        coth = 1.0 / math.tanh(x)
        assert cl_gibbs_stats(x).sz == pytest.approx(coth - 1.0 / x, abs=1e-12)


def test_closed_forms_match_mpmath():
    # L = coth x - 1/x and ln(sinh x / x) (cgibbs), and the second-order
    # terms b1 = csch^2 x + coth x/x - 2/x^2 and b2 = 1 - 3 coth x/x + 3/x^2
    # (cmf-wk), to 1e-13 relative at x = beta S0 omega_l over [1e-8, 1e4],
    # across the series/closed-form switch.  At theta = pi/4, sx = -zeta b2;
    # zeta = 2L/b1 makes the b1 term of sz as large as L.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for x in np.geomspace(1e-8, 1e4, 601):
            big_x = mp.mpf(float(x))
            coth = mp.coth(big_x)
            lang = coth - 1 / big_x
            b1 = mp.csch(big_x) ** 2 + coth / big_x - 2 / big_x**2
            b2 = 1 - 3 * coth / big_x + 3 / big_x**2
            gibbs = cl_gibbs_stats(float(x))
            p = make_params(zeta_val=float(2 * lang / b1), beta=2.0 * x)
            wk = cmf_wk_expectations(p)
            th, zt = mp.mpf(p.theta), mp.mpf(p.zeta)
            pairs = ((gibbs.sz, lang),
                     (gibbs.log_z, mp.log(mp.sinh(big_x) / big_x)),
                     (wk.sz, lang + zt / 2 * (1 + 3 * mp.cos(2 * th)) * b1),
                     (wk.sx, -zt * mp.sin(2 * th) * b2))
            for got, want in pairs:
                assert abs(got - want) <= 1e-13 * abs(want), (x, got, want)


def test_gibbs_moments_vs_quadrature():
    from scipy.integrate import quad

    x = 1.7
    z = quad(lambda u: 0.5 * math.exp(x * u), -1, 1)[0]
    sz = quad(lambda u: 0.5 * u * math.exp(x * u), -1, 1)[0] / z
    m = cl_gibbs_stats(x)
    assert m.sz == pytest.approx(sz, rel=1e-10)
    with pytest.raises(ValueError):
        cl_gibbs_stats(-0.1)


# ---------------------------------------------------------------------------
# CMF quadrature


def test_cmf_reduces_to_gibbs_at_zero_coupling():
    p = make_params(zeta_val=1e-14, beta=2.0)
    m = cmf_expectations(p)
    g = cl_gibbs_stats(2.0 * 1.0 * 0.5)
    assert m.sz == pytest.approx(g.sz, abs=1e-10)
    assert m.sx == pytest.approx(0.0, abs=1e-10)


def test_cmf_reference_point():
    # theta = pi/4, zeta = 1, beta'*omega_l = 1; frozen from a converged run
    # validated against the independent Monte-Carlo oracle
    m = cmf_expectations(make_params())
    assert m.sz == pytest.approx(0.33265089668747555, abs=1e-9)
    assert m.sx == pytest.approx(-0.065059840590689297, abs=1e-9)
    assert m.quad_err < 1e-10


def test_cmf_matches_monte_carlo():
    p = make_params()
    mc = cmf_sample(p, seed=20260826, count=10**6)
    m = cmf_expectations(p)
    assert abs(m.sz - mc.sz) < 4.0 * mc.sz_err
    assert abs(m.sx - mc.sx) < 4.0 * mc.sx_err


def test_cmf_theta_zero_keeps_sx_zero():
    m = cmf_expectations(make_params(theta=0.0, zeta_val=3.0))
    assert m.sx == pytest.approx(0.0, abs=1e-12)


def test_cmf_scaling_invariance_is_exact():
    # (S0, beta, Q) -> (k S0, beta/k, Q/k) leaves the state untouched
    base = make_params(zeta_val=2.0, beta=1.4, n=1)
    m1 = cmf_expectations(base)
    for n in (4, 2000):
        scaled = make_params(zeta_val=2.0, beta=1.4 / n, n=n)
        m2 = cmf_expectations(scaled)
        assert m2.sz == m1.sz
        assert m2.sx == m1.sx


def test_cmf_zero_temperature_closed_form():
    # at T = 0 and theta = pi/4 the optimal orientation solves
    # 2 zeta s^2 + s - zeta = 0 with s = -sx
    for zv in (0.1, 1.0, 8.0):
        m = cmf_expectations(make_params(zeta_val=zv, beta=math.inf))
        s = (-1.0 + math.sqrt(1.0 + 8.0 * zv**2)) / (4.0 * zv)
        assert m.sx == pytest.approx(-s, abs=1e-8)
        assert m.sz == pytest.approx(math.sqrt(1.0 - s * s), abs=1e-8)
    # zeta = 1 lands exactly at the polar angle pi/6
    m = cmf_expectations(make_params(zeta_val=1.0, beta=math.inf))
    assert m.sz == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
    assert m.sx == pytest.approx(-0.5, abs=1e-8)


def test_cmf_zero_temperature_degenerate_pair():
    # theta = pi/2, zeta = 2: two symmetric minima at cos(v) = 1/(2 zeta),
    # the observable average keeps sz and kills sx
    m = cmf_expectations(make_params(theta=math.pi / 2, zeta_val=2.0,
                                     beta=math.inf))
    assert m.sz == pytest.approx(0.25, abs=1e-8)
    assert m.sx == pytest.approx(0.0, abs=1e-8)


def _zero_temperature_reference(theta, zeta):
    """(sz, sx) at T = 0 from the 40-digit roots of
    g'(psi) = -sin(psi) - zeta sin(2 (psi + theta)), averaged over the
    global maxima of g(psi) = cos(psi) + zeta cos^2(psi + theta).

    Each sign change of g' from + to - on a grid of step pi/1000 holds one
    maximum: a grid node where g' is exactly 0 is the root, and any other
    bracket is bisected, which needs no g'' and so holds where g is flat
    (secant-type solvers stall there, and bisection fails on a zero end).
    """
    mp = pytest.importorskip("mpmath")
    zeta = mp.mpf(zeta)

    def dg(p):
        return -mp.sin(p) - zeta * mp.sin(2 * (p + theta))

    def g(p):
        return mp.cos(p) + zeta * mp.cos(p + theta) ** 2

    with mp.workdps(40):
        grid = [mp.pi * (k - 1000) / 1000 for k in range(2001)]
        signs = [dg(p) for p in grid]
        roots = [grid[k + 1] if signs[k + 1] == 0
                 else mp.findroot(dg, (grid[k], grid[k + 1]), solver="bisect")
                 for k in range(2000) if signs[k] > 0 >= signs[k + 1]]
        best = max(g(p) for p in roots)
        kept = [p for p in roots if g(p) > best - mp.mpf(10) ** -30]
        return (float(sum(mp.cos(p) for p in kept) / len(kept)),
                float(sum(mp.sin(p) for p in kept) / len(kept)))


@pytest.mark.parametrize("k12", [1, 3, 5, 6])
@pytest.mark.parametrize("zeta_val", [0.01, 0.1, 1.0, 8.0, 200.0])
def test_cmf_zero_temperature_matches_mpmath_roots(k12, zeta_val):
    # theta = k12 * pi/12, exact in the reference; theta = pi/2 with
    # zeta > 1/2 is a degenerate pair
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        theta = mp.pi * k12 / 12
    sz, sx = _zero_temperature_reference(theta, zeta_val)
    m = cmf_expectations(make_params(theta=math.pi * k12 / 12,
                                     zeta_val=zeta_val, beta=math.inf))
    assert m.sz == pytest.approx(sz, abs=1e-12)
    assert m.sx == pytest.approx(sx, abs=1e-12)


@pytest.mark.parametrize("zeta_val, sz", [(2.0, 0.25), (0.5, 1.0)])
def test_cmf_zero_temperature_transverse_special_points(zeta_val, sz):
    # theta = pi/2: zeta = 2 is the pair cos(psi) = 1/(2 zeta); zeta = 1/2
    # is the flat maximum g = 1 - psi^4/8 at psi = 0, exactly (1, 0)
    m = cmf_expectations(make_params(theta=math.pi / 2, zeta_val=zeta_val,
                                     beta=math.inf))
    assert m.sz == pytest.approx(sz, abs=1e-12)
    assert m.sx == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("gap", [1e-10, 1e-9])
def test_cmf_zero_temperature_near_transverse_has_one_maximum(gap):
    # just below pi/2 the mirror maxima of zeta = 2 differ in energy by about
    # 2 gap: only the one at sx < 0 is the state, not their average
    mp = pytest.importorskip("mpmath")
    theta = math.pi / 2 - gap
    assert len(_zero_temperature_maxima(theta, 2.0)) == 1
    sz, sx = _zero_temperature_reference(mp.mpf(theta), 2.0)
    m = cmf_expectations(make_params(theta=theta, zeta_val=2.0,
                                     beta=math.inf))
    assert sx < -0.96
    assert m.sz == pytest.approx(sz, abs=1e-12)
    assert m.sx == pytest.approx(sx, abs=1e-12)


def test_cmf_zero_temperature_near_flat_maximum_is_warning_free():
    # zeta = 1/2 just below pi/2: g'' vanishes at the maximum to within
    # the gap, which no step of the solve may divide by
    mp = pytest.importorskip("mpmath")
    theta = math.pi / 2 - 1.5e-11
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = cmf_expectations(make_params(theta=theta, zeta_val=0.5,
                                         beta=math.inf))
    sz, sx = _zero_temperature_reference(mp.mpf(theta), 0.5)
    assert m.sz == pytest.approx(sz, abs=1e-12)
    assert m.sx == pytest.approx(sx, abs=1e-12)


def test_cmf_edge_values():
    # beta = 0: the uniform sphere
    m = cmf_expectations(make_params(beta=0.0))
    assert (m.sz, m.sx, m.z_part) == (0.0, 0.0, 1.0)
    # Q = 0: the bare Gibbs state
    assert cmf_expectations(make_params(zeta_val=0.0)) == cl_gibbs_stats(1.0)
    # theta = 0: no transverse component at all
    assert cmf_expectations(make_params(theta=0.0, zeta_val=3.0)).sx == 0.0
    # x2 = 1e8 (beta = 2, Q = 2e8): converged, and at the ultrastrong limit
    p = make_params(zeta_val=1e8, beta=2.0)
    m = cmf_expectations(p)
    us = us_expectations(p)
    assert m.quad_err < 1e-10
    assert abs(m.sz - us.sz) < 1e-6 and abs(m.sx - us.sx) < 1e-6


def test_cmf_extreme_arguments_converge():
    # very cold and very strongly coupled points stress the quadrature panels
    m = cmf_expectations(make_params(zeta_val=50.0, beta=40.0))
    assert m.quad_err < 1e-10
    assert -1.0 <= m.sz <= 1.0 and -1.0 <= m.sx <= 1.0


def test_cmf_logweight():
    p = make_params(zeta_val=1.0, beta=2.0)
    # north pole: H_eff = -wL S0 - Q S0^2 cos^2(theta)
    lw = cmf_logweight(SphericalPoint(0.0, 0.0), p)
    h = -1.0 * 0.5 - 2.0 * 0.25 * math.cos(math.pi / 4) ** 2
    assert lw == pytest.approx(-2.0 * h, rel=1e-12)
    # at T = 0 the raw -H_eff comes back instead
    lw0 = cmf_logweight(SphericalPoint(0.0, 0.0), dataclasses.replace(p, beta=math.inf))
    assert lw0 == pytest.approx(-h, rel=1e-12)


def test_spherical_point_validation():
    SphericalPoint(0.0, 2.0 * math.pi)  # closed interval ends are legal
    with pytest.raises(ValueError):
        SphericalPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        SphericalPoint(0.5, 7.0)


# ---------------------------------------------------------------------------
# Weak and ultrastrong closed forms


def test_wk_limit_slope():
    # the weak form is the tangent of the exact curve at zeta = 0
    beta = 2.0
    devs = []
    for zv in (0.04, 0.02):
        p = make_params(zeta_val=zv, beta=beta)
        exact = cmf_expectations(p)
        wk = cmf_wk_expectations(p)
        devs.append(max(abs(exact.sz - wk.sz), abs(exact.sx - wk.sx)))
    # second-order accuracy: halving zeta cuts the residual ~4x
    assert devs[1] < devs[0] / 3.0
    assert devs[0] < 1e-3


def test_wk_zero_coupling_is_gibbs():
    p = make_params(zeta_val=0.0, beta=2.0)
    wk = cmf_wk_expectations(p)
    assert wk.sz == pytest.approx(cl_gibbs_stats(1.0).sz, rel=1e-12)
    assert wk.sx == 0.0


def test_us_closed_form():
    p = make_params(zeta_val=1.0, beta=2.0)
    t = math.tanh(2.0 * 1.0 * 0.5 * math.cos(math.pi / 4))
    us = us_expectations(p)
    assert us.sz == pytest.approx(math.cos(math.pi / 4) * t, rel=1e-14)
    assert us.sx == pytest.approx(-math.sin(math.pi / 4) * t, rel=1e-14)


def test_us_is_strong_coupling_limit():
    beta = 2.0
    devs = []
    for zv in (30.0, 120.0):
        p = make_params(zeta_val=zv, beta=beta)
        exact = cmf_expectations(p)
        us = us_expectations(p)
        devs.append(max(abs(exact.sz - us.sz), abs(exact.sx - us.sx)))
    assert devs[1] < devs[0]
    assert devs[1] < 1e-2


# ---------------------------------------------------------------------------
# Monte-Carlo oracle


def test_sampler_determinism():
    p = make_params()
    a = cmf_sample(p, seed=7, count=5000)
    b = cmf_sample(p, seed=7, count=5000)
    assert a.sz == b.sz and a.sx == b.sx
    c = cmf_sample(p, seed=8, count=5000)
    assert c.sz != a.sz


def test_sampler_rejects_bad_input():
    p = make_params()
    with pytest.raises(ValueError):
        cmf_sample(p, seed=1, count=0)
    with pytest.raises(ValueError):
        cmf_sample(dataclasses.replace(p, beta=math.inf), seed=1, count=100)
