"""Langevin spin + collective-mode simulator: integrator correctness,
stationarity, and determinism."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from meanforce.classical import cmf_expectations
from meanforce.dynamics import (
    SimConfig,
    _init_ensemble,
    _StepKernel,
    simulate_steady,
)
from meanforce.model import LorentzianBath, ModelParams, beta_from_t_half


def make_params(zeta_val=2.0, theta=math.pi / 4, beta=2.0, n=1,
                omega_0=7.0, gamma_w=5.0):
    s0 = n / 2.0
    bath = LorentzianBath.from_q(zeta_val / s0, omega_0, gamma_w)
    return ModelParams(n=n, omega_l=1.0, theta=theta, bath=bath, beta=beta)


def test_sim_config_validation():
    p = make_params()
    SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0).validate(p)
    with pytest.raises(ValueError):
        SimConfig(dt=0.02, t_burn=1.0, t_sample=1.0).validate(p)  # dt too big
    with pytest.raises(ValueError):
        SimConfig(dt=0.005, t_burn=0.0, t_sample=1.0).validate(p)
    with pytest.raises(ValueError):
        SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0, stride=0).validate(p)
    with pytest.raises(ValueError):
        SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0, ensemble=0).validate(p)


def test_theta_zero_rejected():
    p = make_params(theta=0.0)
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0)
    with pytest.raises(ValueError, match="theta"):
        simulate_steady(p, cfg)


def test_free_precession():
    # decoupled, undamped limit: the spin precesses about z at rate omega_l
    # (B = -wL z for H = -wL Sz), conserving sz and the norm
    s0 = 0.5
    bath = LorentzianBath.from_q(0.0, omega_0=7.0, gamma_w=1e-12)
    p = ModelParams(n=1, omega_l=1.0, theta=0.3, bath=bath, beta=math.inf)
    dt = 0.002
    kern = _StepKernel(p, dt, 1)
    rng = np.random.default_rng(0)
    v = math.pi / 3
    sx, sy, sz = (np.array([s0 * math.sin(v)]), np.zeros(1),
                  np.array([s0 * math.cos(v)]))
    x, mom = np.zeros(1), np.zeros(1)
    sz0 = float(sz[0])
    for _ in range(500):
        sx, sy, sz, x, mom = kern.step(sx, sy, sz, x, mom, rng)
    t = 500 * dt
    assert sz[0] == pytest.approx(sz0, abs=1e-10)
    expected = s0 * math.sin(v) * np.array([math.cos(t), -math.sin(t)])
    assert sx[0] == pytest.approx(expected[0], abs=1e-6)
    assert sy[0] == pytest.approx(expected[1], abs=1e-6)
    assert math.hypot(sx[0], sy[0], sz[0]) == pytest.approx(s0, abs=1e-12)


def test_oscillator_equipartition():
    # with the spin nearly decoupled the mode must satisfy
    # omega_0^2 <X^2> = kB T and <P^2> = kB T
    bath = LorentzianBath.from_q(1e-8, omega_0=2.0, gamma_w=1.0)
    p = ModelParams(n=1, omega_l=1.0, theta=0.5, bath=bath, beta=1.0)
    cfg = SimConfig(dt=0.02, t_burn=20.0, t_sample=400.0, stride=5, seed=3)
    kern = _StepKernel(p, cfg.dt, 1)
    rng = np.random.default_rng(5)
    sx, sy, sz = np.zeros(1), np.zeros(1), np.array([0.5])
    x, mom = np.zeros(1), np.zeros(1)
    xs, ps = [], []
    n_burn = int(cfg.t_burn / cfg.dt)
    n_samp = int(cfg.t_sample / cfg.dt)
    for k in range(n_burn + n_samp):
        sx, sy, sz, x, mom = kern.step(sx, sy, sz, x, mom, rng)
        if k >= n_burn and k % cfg.stride == 0:
            xs.append(float(x[0]))
            ps.append(float(mom[0]))
    kbt = 1.0
    n_eff = len(xs) / 20.0  # generous correlation-time discount
    for val, target in ((4.0 * np.mean(np.square(xs)), kbt),
                        (np.mean(np.square(ps)), kbt)):
        se = target * math.sqrt(2.0 / n_eff)
        assert abs(val - target) < 4.0 * se


def test_seed_determinism():
    p = make_params()
    cfg = SimConfig(dt=0.005, t_burn=2.0, t_sample=5.0, stride=5, seed=42,
                    ensemble=16)
    a = simulate_steady(p, cfg)
    b = simulate_steady(p, cfg)
    assert a.sz == b.sz and a.sx == b.sx
    c = simulate_steady(p, SimConfig(dt=0.005, t_burn=2.0, t_sample=5.0,
                                     stride=5, seed=43, ensemble=16))
    assert c.sz != a.sz


def test_norm_is_conserved():
    p = make_params(zeta_val=5.0, beta=1.0)
    cfg = SimConfig(dt=0.005, t_burn=2.0, t_sample=5.0, seed=1, ensemble=8)
    e = simulate_steady(p, cfg)  # raises internally if the norm drifts
    assert -1.0 <= e.sz <= 1.0 and -1.0 <= e.sx <= 1.0


def test_stationary_state_matches_cmf():
    p = make_params(zeta_val=2.0, beta=2.0)
    cfg = SimConfig(dt=0.007, t_burn=25.0, t_sample=80.0, stride=4, seed=9,
                    ensemble=2048)
    e = simulate_steady(p, cfg)
    ref = cmf_expectations(p)
    assert abs(e.sz - ref.sz) < 4.0 * max(e.sz_err, 1e-4)
    assert abs(e.sx - ref.sx) < 4.0 * max(e.sx_err, 1e-4)


def test_stationary_state_is_dt_independent():
    # stationarity holds under step halving: both runs sit on the same state
    p = make_params(zeta_val=2.0, beta=1.0)
    res = []
    for dt in (0.007, 0.0035):
        cfg = SimConfig(dt=dt, t_burn=20.0, t_sample=40.0, stride=4, seed=17,
                        ensemble=1024)
        res.append(simulate_steady(p, cfg))
    tol = 4.0 * max(res[0].sz_err, res[1].sz_err,
                    res[0].sx_err, res[1].sx_err)
    assert abs(res[0].sz - res[1].sz) < tol
    assert abs(res[0].sx - res[1].sx) < tol


def test_trajectory_dump(tmp_path):
    p = make_params()
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=2.0, stride=10, seed=2,
                    ensemble=4)
    path = tmp_path / "traj.csv"
    simulate_steady(p, cfg, trajectory_path=str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,sx,sy,sz,X,P"
    assert len(lines) > 10
    row = [float(tok) for tok in lines[1].split(",")]
    assert len(row) == 6
    s_norm = math.sqrt(row[1] ** 2 + row[2] ** 2 + row[3] ** 2)
    assert s_norm == pytest.approx(0.5, abs=1e-9)


# (theta, Q, t_half, n) points of the pinned Langevin stream, and for each
# ensemble size the (sz, sx, sz_err, sx_err) the simulator returns there
STREAM_POINTS = [(math.pi / 4, 2.0, 1.0, 1), (1.2, 14.0, 0.5, 1),
                 (0.3, 0.5, 4.0, 3)]
STREAM_PINS = {
    (0, 1): (-0.40046891390300166, 0.866216431625445, 0.0, 0.0),
    (0, 7): (0.23914561586358424, -0.058344652281851477,
             0.2116841705939289, 0.2263331773055464),
    (0, 64): (0.34470416605834797, -0.046152545114445345,
              0.06435876865385827, 0.06392478115036246),
    (0, 4096): (0.33158140817731246, -0.07582176667600846,
                0.008009391690844657, 0.00771955618076247),
    (1, 1): (0.40159645773900315, -0.896271508209153, 0.0, 0.0),
    (1, 7): (0.31985331036129006, -0.6385926214413743,
             0.09561936852167223, 0.24474412036373477),
    (1, 64): (0.28400048114891907, -0.539671800750986,
              0.03436661518720867, 0.08850042587428723),
    (1, 4096): (0.2779640373289216, -0.5273683336735777,
                0.004255853099682005, 0.011011122096079441),
    (2, 1): (0.8987919440453586, -0.30604202934836716, 0.0, 0.0),
    (2, 7): (0.6319800680961389, -0.14963288894401308,
             0.1304577848107976, 0.19001179661420933),
    (2, 64): (0.34469188254888333, -0.04876909053049224,
              0.0684194591464258, 0.06196722487896178),
    (2, 4096): (0.2760854639699862, -0.013376687920862856,
                0.008871570331435836, 0.007061768550728751),
}


@pytest.mark.parametrize("point, ensemble", sorted(STREAM_PINS))
def test_langevin_stream_is_pinned(point, ensemble):
    # the start, the step and the noise draws reproduce the recorded
    # stream exactly: a faster kernel must round every operation as before
    theta, q, t_half, n = STREAM_POINTS[point]
    p = ModelParams(n=n, omega_l=1.0, theta=theta,
                    bath=LorentzianBath.from_q(q, 7.0, 5.0),
                    beta=beta_from_t_half(t_half))
    cfg = SimConfig(dt=0.007, t_burn=0.5, t_sample=1.5, stride=5,
                    seed=100 + point, ensemble=ensemble)
    e = simulate_steady(p, cfg)
    assert (e.sz, e.sx, e.sz_err, e.sx_err) == STREAM_PINS[point, ensemble]


def test_trajectory_dump_is_pinned(tmp_path):
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=2.0, stride=10, seed=2,
                    ensemble=4)
    path = tmp_path / "traj.csv"
    simulate_steady(make_params(zeta_val=1.0), cfg, trajectory_path=str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "239d7a705a059fe3c75f88e27a9ac6c66b62befc72339bd16131669fd26f5dca")


def test_simulation_memory_is_bounded():
    # the start never holds its 1441 x 2881 sphere grid whole: one float
    # array of it is 33 MB, and the dense start peaked above 100 MB here
    p = make_params(zeta_val=2.0, beta=2.0)
    cfg = SimConfig(dt=0.007, t_burn=0.05, t_sample=0.05, seed=5,
                    ensemble=4096)
    tracemalloc.start()
    try:
        simulate_steady(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 4])
@pytest.mark.parametrize("n", [1, 3])
def test_zero_temperature_matches_cmf(theta, n):
    # at T = 0 every trajectory starts on a global maximum of -H_eff and
    # stays there; at theta = pi/2 there are two mirror maxima, which an
    # even ensemble averages as cmf does
    p = make_params(zeta_val=2.0, theta=theta, beta=math.inf, n=n)
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=2.0, seed=3, ensemble=8)
    e = simulate_steady(p, cfg)
    ref = cmf_expectations(p)
    assert e.sz == pytest.approx(ref.sz, abs=1e-12)
    assert e.sx == pytest.approx(ref.sx, abs=1e-12)


@pytest.mark.parametrize("zeta_val", [0.3, 2.0, 50.0])
@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 4, 1.2])
@pytest.mark.parametrize("n", [1, 3])
def test_zero_temperature_start_is_a_fixed_point(theta, n, zeta_val):
    # simulate_steady takes no step at T = 0: without noise the step leaves
    # every member of the start (a least-energy orientation, the bath mode
    # at its conditional mean and at rest) where it is
    p = make_params(zeta_val=zeta_val, theta=theta, beta=math.inf, n=n)
    kern = _StepKernel(p, 0.005, 8)
    rng = np.random.Generator(np.random.Philox(key=3))
    start = _init_ensemble(p, kern, 8, rng)
    state = tuple(a.copy() for a in start)
    for _ in range(400):
        state = kern.step(*state, rng)
    for got, ref in zip(state, start):
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_zero_temperature_takes_no_step(tmp_path):
    # the result is the start's ensemble mean with no sampling error, and
    # the trajectory dump holds the start at the usual sampling times
    p = make_params(zeta_val=2.0, theta=math.pi / 2, beta=math.inf)
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=2.0, stride=10, seed=3,
                    ensemble=64)
    path = tmp_path / "traj.csv"
    e = simulate_steady(p, cfg, trajectory_path=str(path))
    assert (e.sz_err, e.sx_err) == (0.0, 0.0)
    assert e.sx == pytest.approx(0.0, abs=1e-15)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (40, 6)
    assert np.allclose(rows[:, 0], 1.0 + (np.arange(0, 400, 10) + 1) * 0.005)
    assert np.all(rows[:, 1:] == rows[0, 1:])
