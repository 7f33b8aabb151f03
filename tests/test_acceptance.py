"""End-to-end acceptance checks tying every solver together.

These reproduce the headline quantitative claims at desk scale: stochastic
dynamics versus classical quadrature, the large-spin correspondence, regime
boundaries and their temperature scaling, ultrastrong convergence, coherence
structure, and the always-runnable property suite.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from meanforce.classical import cmf_expectations, cmf_logweight, cmf_sample, \
    SphericalPoint
from meanforce.dynamics import SimConfig, simulate_steady
from meanforce.limits import correspondence_sweep, us_expectations, \
    us_quantum_state
from meanforce.model import (
    LorentzianBath,
    ModelParams,
    beta_from_t_half,
    beta_from_t_spin,
)
from meanforce.qrc import rc_expectations, rc_mf_state
from meanforce.qspin import thermal_state
from meanforce.qweak import bath_a, bath_combos, qmf_wk_expectations, \
    qmf_wk_state
from meanforce.regimes import find_boundary

THETA = math.pi / 4


def fig_bath(q):
    """Broad Lorentzian used by the dynamics and correspondence studies."""
    return LorentzianBath.from_q(q, omega_0=7.0, gamma_w=5.0)


# ---------------------------------------------------------------------------
# 1. Langevin steady state vs classical quadrature


@pytest.mark.parametrize("q", [0.04, 2.0, 14.0])
def test_dynamics_matches_classical_equilibrium(q):
    cfg_kw = dict(dt=0.007, t_burn=25.0, t_sample=160.0, stride=4,
                  ensemble=8192)
    bath = fig_bath(q)
    for t_half in np.linspace(0.05, 4.0, 10):
        p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=bath,
                        beta=beta_from_t_half(float(t_half)))
        sim = simulate_steady(p, SimConfig(seed=11, **cfg_kw))
        ref = cmf_expectations(p)
        for dev, err in ((abs(sim.sz - ref.sz), sim.sz_err),
                         (abs(sim.sx - ref.sx), sim.sx_err)):
            assert dev <= 3.0 * err + 1e-12, \
                f"q={q} t_half={t_half}: {dev:.2e} > 3 sigma ({err:.2e})"
            assert dev <= 0.02, f"q={q} t_half={t_half}: {dev:.2e} > 2%"


# ---------------------------------------------------------------------------
# 2. Large-spin correspondence of the weak-coupling quantum state


def test_large_spin_correspondence():
    beta_prime = [1.0 / t for t in np.linspace(0.05, 5.0, 25)]
    table = correspondence_sweep(0.06, THETA, beta_prime,
                                 n_list=(1, 2, 5, 100), method="WK")
    devs = [table.metadata[f"max_dev_n{n}"] for n in (1, 2, 5, 100)]
    assert devs == sorted(devs, reverse=True), "deviation must shrink with n"
    assert devs[-1] < 1e-2


# ---------------------------------------------------------------------------
# 3 + 4. Cold regime boundaries, quantum and classical


@functools.lru_cache(maxsize=None)
def cold_boundary(approx, flavor, lo, hi):
    return find_boundary(0.0, THETA, approx, flavor=flavor,
                         scan_lo=lo, scan_hi=hi)


def test_cold_quantum_regime_boundaries():
    assert 0.02 <= cold_boundary("UW", "quantum", 0.01, 0.1) <= 0.08
    assert 0.4 <= cold_boundary("WK", "quantum", 0.2, 2.0) <= 1.6
    assert 35.0 <= cold_boundary("US", "quantum", 20.0, 200.0) <= 140.0


def test_classical_quantum_boundary_ratio():
    z_cl = cold_boundary("WK", "classical", 0.02, 0.5)
    z_qu = cold_boundary("WK", "quantum", 0.2, 2.0)
    assert 5.0 <= z_qu / z_cl <= 20.0


# ---------------------------------------------------------------------------
# 5. High-temperature scaling of the weak-coupling boundary


def test_weak_boundary_scales_linearly_with_temperature():
    # the metric floor tracks the shrinking sz magnitude so the criterion
    # stays a relative one at every temperature
    t_vals = [10.0, 100.0, 1000.0]
    stars = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in t_vals:
            z = find_boundary(t, THETA, "WK", flavor="quantum",
                              floor=math.tanh(1.0 / t),
                              scan_lo=0.05 * t, scan_hi=0.5 * t)
            stars.append(z)
    slope = np.polyfit(np.log(t_vals), np.log(stars), 1)[0]
    assert 0.8 <= slope <= 1.2, f"boundaries {stars}, slope {slope:.3f}"


# ---------------------------------------------------------------------------
# 6. Longitudinal ultrastrong coupling reduces to a two-level Gibbs state


def test_longitudinal_strong_coupling_matches_two_level_gibbs():
    from meanforce.model import BareQBath

    bath = BareQBath(q=1000.0 / 0.5)  # zeta = 1000 at n = 1
    worst = 0.0
    for t_half in np.linspace(0.1, 5.0, 12):
        beta = beta_from_t_half(float(t_half))
        p = ModelParams(n=1, omega_l=1.0, theta=0.0, bath=bath, beta=beta)
        m = cmf_expectations(p)
        worst = max(worst, abs(m.sz - math.tanh(0.5 * beta)))
    assert worst < 1e-2


# ---------------------------------------------------------------------------
# 7. Ultrastrong convergence of both exact backends


def test_ultrastrong_convergence():
    rc_devs, cl_devs = [], []
    for zv in (10.0, 30.0, 100.0):
        bath = fig_bath(2.0 * zv)  # Q = zeta/S0 at n = 1
        p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=bath, beta=2.0)
        us = us_expectations(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = rc_expectations(rc_mf_state(p))
        cl = cmf_expectations(p)
        rc_devs.append(max(abs(rc.sz - us.sz), abs(rc.sx - us.sx)))
        cl_devs.append(max(abs(cl.sz - us.sz), abs(cl.sx - us.sx)))
    assert rc_devs[0] > rc_devs[1] > rc_devs[2]
    assert cl_devs[0] > cl_devs[1] > cl_devs[2]
    assert rc_devs[-1] < 3e-2
    assert cl_devs[-1] < 3e-2


# ---------------------------------------------------------------------------
# 8. Coherence structure


def test_density_ridge_sits_at_phi_pi():
    # The log-weight depends on phi only through u^2, with
    # u = cos(theta) cos(v) - sin(theta) sin(v) cos(phi).  On a slice away
    # from the poles sin(theta) sin(v) > 0, so |u| is largest where
    # cos(phi) = -sign(cos(theta) cos(v)): the ridge sits at phi = pi in the
    # upper hemisphere (cos v > 0) and at phi = 0 in the lower one; on the
    # equator the two tie.
    p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=fig_bath(2.0),
                    beta=beta_from_t_spin(1.0, 1))
    phis = np.linspace(0.0, 2.0 * math.pi, 181)
    for v in np.linspace(0.0, math.pi, 41)[1:-1]:
        dens = [cmf_logweight(SphericalPoint(float(v), float(ph)), p)
                for ph in phis]
        ridge = math.pi if math.cos(THETA) * math.cos(v) >= 0.0 else 0.0
        at_ridge = cmf_logweight(SphericalPoint(float(v), ridge), p)
        assert max(dens) <= at_ridge + 1e-12, \
            f"slice v={v:.3f} peaks at phi={phis[int(np.argmax(dens))]:.3f}, " \
            f"not at the ridge phi={ridge:.3f}"


def test_classical_coherence_dominates_quantum():
    bath = fig_bath(0.12)  # alpha = 0.06 at n = 1
    for ts in np.linspace(0.05, 5.0, 25):
        p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=bath,
                        beta=beta_from_t_spin(float(ts), 1))
        cl = cmf_expectations(p)
        qu = qmf_wk_expectations(p)
        assert abs(cl.sx) >= abs(qu.sx), \
            f"t_spin={ts:.3f}: |{cl.sx:.5f}| < |{qu.sx:.5f}|"


# ---------------------------------------------------------------------------
# 9. Property suite (no external reference numbers)


def assert_density_matrix(rho, label):
    assert np.allclose(rho, rho.conj().T, atol=1e-10), label
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10), label
    assert np.linalg.eigvalsh(rho).min() > -1e-10, label


def test_density_matrix_invariants_on_random_draws():
    rng = np.random.default_rng(20260826)
    for k in range(60):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        beta = math.inf if k % 10 == 0 else float(rng.uniform(0.01, 5.0))
        assert_density_matrix(thermal_state(a + a.conj().T, beta),
                              f"thermal draw {k}")
    for k in range(30):
        n = int(rng.integers(1, 5))
        q = float(rng.uniform(0.001, 0.05))
        p = ModelParams(n=n, omega_l=1.0, theta=float(rng.uniform(0.0, math.pi / 2)),
                        bath=fig_bath(q), beta=float(rng.uniform(0.1, 5.0)))
        rho = qmf_wk_state(p)
        label = f"weak-coupling draw {k}"
        assert np.allclose(rho, rho.conj().T, atol=1e-10), label
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10), label
        # the truncated expansion is positive only to its own order Q^2
        assert np.linalg.eigvalsh(rho).min() > -q * q, label
    for k in range(6):
        n = int(rng.integers(1, 4))
        p = ModelParams(n=n, omega_l=1.0, theta=float(rng.uniform(0.1, 1.5)),
                        bath=LorentzianBath.from_q(float(rng.uniform(0.1, 2.0)),
                                                   7.0, 0.2),
                        beta=float(rng.uniform(0.2, 3.0)))
        assert_density_matrix(rc_mf_state(p).rho, f"rc draw {k}")
    for k in range(4):
        p = ModelParams(n=int(rng.integers(1, 6)), omega_l=1.0,
                        theta=float(rng.uniform(0.0, math.pi / 2)),
                        bath=fig_bath(1.0), beta=float(rng.uniform(0.1, 5.0)))
        assert_density_matrix(us_quantum_state(p).rho, f"ultrastrong draw {k}")


def test_classical_scaling_invariance_is_bitwise():
    for k, (zv, bp) in enumerate([(0.3, 0.5), (3.0, 2.0), (30.0, 1.0)]):
        m = []
        for n in (1, 8):
            s0 = n / 2.0
            p = ModelParams(n=n, omega_l=1.0, theta=THETA,
                            bath=fig_bath(zv / s0), beta=bp / s0)
            m.append(cmf_expectations(p))
        assert m[0].sz == m[1].sz and m[0].sx == m[1].sx, f"case {k}"


def test_quadrature_agrees_with_monte_carlo():
    p = ModelParams(n=1, omega_l=1.0, theta=0.6, bath=fig_bath(3.0), beta=1.5)
    mc = cmf_sample(p, seed=515, count=2 * 10**6)
    m = cmf_expectations(p)
    assert abs(m.sz - mc.sz) < 4.0 * mc.sz_err
    assert abs(m.sx - mc.sx) < 4.0 * mc.sx_err


def test_weak_coupling_agrees_with_exact_backend():
    bath = LorentzianBath.from_q(0.02, 7.0, 0.2)  # zeta = 0.01 at n = 1
    p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=bath, beta=2.0)
    wk = qmf_wk_expectations(p)
    rc = rc_expectations(rc_mf_state(p))
    assert abs(wk.sz - rc.sz) < 5e-4
    assert abs(wk.sx - rc.sx) < 5e-4


def test_dynamics_conserves_spin_norm():
    p = ModelParams(n=1, omega_l=1.0, theta=THETA, bath=fig_bath(4.0),
                    beta=1.0)
    cfg = SimConfig(dt=0.007, t_burn=5.0, t_sample=10.0, seed=5, ensemble=32)
    # simulate_steady raises if any member's norm drifts past 1e-9
    simulate_steady(p, cfg)


def test_bath_integral_identities():
    bath = fig_bath(0.7)
    for beta in (0.5, 2.0, math.inf):
        bi = bath_combos(bath, beta, 1.0)
        ap = bath_a(bath, beta, 1.0)
        am = bath_a(bath, beta, -1.0)
        assert bi.sigma == pytest.approx(ap + am, rel=1e-12)
        assert bath_a(bath, beta, 0.0) == pytest.approx(bath.q, abs=1e-8)
