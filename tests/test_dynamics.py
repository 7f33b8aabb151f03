"""Langevin spin + collective-mode simulator: integrator correctness,
stationarity, and determinism."""

import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

from meanforce.classical import (
    _RULES,
    _bath_panels,
    _bath_terms,
    _panel_nodes,
    cmf_expectations,
)
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
    for bad in (math.inf, math.nan):
        for cfg in (SimConfig(dt=bad, t_burn=0.1, t_sample=0.1),
                    SimConfig(dt=0.005, t_burn=bad, t_sample=0.1),
                    SimConfig(dt=0.005, t_burn=0.1, t_sample=bad)):
            with pytest.raises(ValueError, match="finite"):
                simulate_steady(p, cfg)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_the_philox_key_range_is_rejected(seed):
    p = make_params()
    SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0,
              seed=2 ** 128 - 1).validate(p)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(dt=0.005, t_burn=1.0, t_sample=1.0, seed=seed).validate(p)


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


def _sin_cos_step(p, dt, sx, sy, sz, x, mom):
    """The noiseless Strang step with the rotation by -|B| dt about k = B/|B|
    in closed form from sin and cos, s cos - (k x s) sin + k (k.s)(1 - cos):
    the reference for the kernel's tangent (Cayley) form."""
    c = p.bath.omega_0 * math.sqrt(2.0 * p.q)
    sin_t, cos_t = math.sin(p.theta), math.cos(p.theta)
    h = 0.5 * dt

    def force(sx, sz, x):
        return (p.bath.omega_0 ** 2 * x + c * (sz * cos_t - sx * sin_t)) * h

    mom = mom - force(sx, sz, x)
    x = x + mom * h
    mom = mom * math.exp(-p.bath.gamma_w * dt)
    bx, bz = c * sin_t * x, p.omega_l - c * cos_t * x
    r = np.hypot(bx, bz)
    kx, kz = bx / np.maximum(r, 1e-300), bz / np.maximum(r, 1e-300)
    cos_a, sin_a = np.cos(r * dt), np.sin(r * dt)
    ks = (kx * sx + kz * sz) * (1.0 - cos_a)
    nx = sx * cos_a + kz * sy * sin_a + kx * ks
    ny = sy * cos_a - (kz * sx - kx * sz) * sin_a
    nz = sz * cos_a - kx * sy * sin_a + kz * ks
    x = x + mom * h
    return nx, ny, nz, x, mom - force(nx, nz, x)


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
def test_tangent_rotation_matches_sin_cos_rotation(theta):
    # at T = 0 (no noise) one step agrees with the sin/cos reference to
    # 1e-14 over rotation angles |B| dt in [0, 3 pi], the neighbourhoods of
    # pi/2 and pi (tan's pole) included, and keeps |s|; at theta = 0 the
    # field vanishes exactly at X = 1/c, where the guard leaves s as it is
    p = ModelParams(n=1, omega_l=1.0, theta=theta,
                    bath=LorentzianBath.from_q(2.0, 7.0, 5.0),
                    beta=math.inf)
    dt = 0.007
    w0 = p.bath.omega_0
    c = w0 * math.sqrt(2.0 * p.q)
    near = np.linspace(-1e-6, 1e-6, 2001)
    phi = np.concatenate([np.linspace(0.0, 3.0 * math.pi, 100_001),
                          math.pi / 2 + near, math.pi + near])
    # X on the branch where |B| = phi/dt, from
    # c^2 X^2 - 2 c cos(theta) X + 1 = (phi/dt)^2
    cos_t = math.cos(theta)
    x = (cos_t + np.sqrt(np.maximum(cos_t ** 2 - 1.0 + (phi / dt) ** 2,
                                    0.0))) / c
    if theta == 0.0:
        x = np.append(x, 1.0 / c)
    n = len(x)
    rng = np.random.default_rng(23)
    s = rng.standard_normal((3, n))
    s *= p.s0 / np.linalg.norm(s, axis=0)
    # P equal to the opening kick's force: the drift leaves X where it is
    s_theta = s[2] * cos_t - s[0] * math.sin(theta)
    mom = (w0 ** 2 * x + c * s_theta) * (dt / 2)
    ref = _sin_cos_step(p, dt, *s, x, mom)
    angle = np.hypot(c * math.sin(theta) * x, 1.0 - c * cos_t * x) * dt
    assert angle.min() <= (0.0 if theta == 0.0 else 0.01)
    assert angle.max() >= 3.0 * math.pi - 1e-9
    got = _StepKernel(p, dt, n).step(*(a.copy() for a in (*s, x, mom)),
                                     np.random.default_rng(0))
    for g, r in zip(got[:3], ref[:3]):
        assert np.max(np.abs(g - r)) <= 1e-14
    assert np.array_equal(got[3], ref[3])
    assert np.max(np.abs(got[4] - ref[4])) <= 1e-14 * np.max(np.abs(ref[4]))
    # |s| to 1e-15 relative up to |B| dt = pi/2; towards tan's pole at pi
    # the rounding of the large w costs a few ulps more (the sin/cos form
    # itself reaches 1e-15 there)
    before = np.sqrt(np.sum(s * s, axis=0))
    after = np.sqrt(got[0] ** 2 + got[1] ** 2 + got[2] ** 2)
    drift = np.abs(after - before) / p.s0
    assert np.max(drift[angle <= math.pi / 2]) <= 1e-15
    assert np.max(drift) <= 2e-15
    if theta == 0.0:
        assert all(g[-1] == a[-1] for g, a in zip(got[:3], s))


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
    with open(path, "w") as fh:
        simulate_steady(p, cfg, trajectory=fh)
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
    (0, 1): (0.7363616923161601, -0.43594404133210163, 0.0, 0.0),
    (0, 7): (0.4272751078148744, -0.022227379512987033,
             0.19300815773885618, 0.2295159953115935),
    (0, 64): (0.3965337457878822, 0.027724735259350902,
              0.0644075249558076, 0.062046956664560185),
    (0, 4096): (0.3335504222681829, -0.06179076545036486,
                0.00783565940715884, 0.007911211254622661),
    (1, 1): (0.4357299326002013, -0.8334167958476976, 0.0, 0.0),
    (1, 7): (0.4156702316329876, -0.8659199259396473,
             0.004890425713588527, 0.017215510827921037),
    (1, 64): (0.28004968602728414, -0.5356505086620451,
              0.03427194442756369, 0.0875984271171833),
    (1, 4096): (0.2774696782948062, -0.5244436056456804,
                0.004276476772391268, 0.011051915852817165),
    (2, 1): (-0.9855451298812304, -0.09636476625478933, 0.0, 0.0),
    (2, 7): (0.18195974824294098, -0.34194912629835866,
             0.2757649287164181, 0.11950614369970121),
    (2, 64): (0.25229048197790216, 0.011111062081359214,
              0.07422854292671602, 0.05968806824481647),
    (2, 4096): (0.2868589556950423, -0.019757093371601753,
                0.008758983892214883, 0.007069702907714536),
}


@pytest.mark.parametrize("point, ensemble", sorted(STREAM_PINS))
def test_langevin_stream_is_pinned(point, ensemble):
    # the start, the step and the noise draws reproduce the recorded
    # stream exactly.  The step's map is checked against the closed form
    # by test_tangent_rotation_matches_sin_cos_rotation; these pins guard
    # the stream: the order of the draws and the rounding of every
    # operation
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
    with open(path, "w") as fh:
        simulate_steady(make_params(zeta_val=1.0), cfg, trajectory=fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cc6825497cc24aa11affef46948cadf37ecb453e72f14cfa68f89d5197cb8c20")


def _start(p, n, seed):
    kern = _StepKernel(p, 0.007, n)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return kern, list(_init_ensemble(p, kern, n, rng)), rng


def test_single_steps_equal_one_run():
    # step() is the loop with one step: 60 calls give the bits of one
    # 60-step run, noise included
    p = make_params(zeta_val=2.0, beta=1.0)
    kern, one, rng_one = _start(p, 16, 31)
    _, run, rng_run = _start(p, 16, 31)
    for _ in range(60):
        one = kern.step(*one, rng_one)
    kern.run(*run, rng_run, 60)
    for a, b in zip(one, run):
        assert np.array_equal(a, b)


def test_simulate_steady_is_a_loop_over_step():
    # simulate_steady gives the bits of a hand loop over step() that
    # samples every stride-th step after burn-in, and dumps member 0 there
    p = make_params(zeta_val=2.0, beta=1.0)
    cfg = SimConfig(dt=0.007, t_burn=0.1, t_sample=0.3, stride=3, seed=8,
                    ensemble=5)
    stream = io.StringIO()
    e = simulate_steady(p, cfg, trajectory=stream)

    kern, state, rng = _start(p, cfg.ensemble, cfg.seed)
    n_burn, n_samp = round(cfg.t_burn / cfg.dt), round(cfg.t_sample / cfg.dt)
    sum_z, sum_x, count = np.zeros(cfg.ensemble), np.zeros(cfg.ensemble), 0
    rows = ["t,sx,sy,sz,X,P\n"]
    for i in range(n_burn + n_samp):
        state = kern.step(*state, rng)
        k = i - n_burn
        if k >= 0 and k % cfg.stride == 0:
            sum_z += state[2]
            sum_x += state[0]
            count += 1
            rows.append("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n" % (
                cfg.t_burn + (k + 1) * cfg.dt, *(a[0] for a in state)))
    mz, mx = sum_z / (count * p.s0), sum_x / (count * p.s0)
    sq_n = math.sqrt(cfg.ensemble)
    assert (e.sz, e.sx, e.sz_err, e.sx_err) == (
        float(np.mean(mz)), float(np.mean(mx)),
        float(np.std(mz, ddof=1) / sq_n), float(np.std(mx, ddof=1) / sq_n))
    assert stream.getvalue() == "".join(rows)


def test_simulation_memory_is_bounded():
    # the start and the step hold a few ensemble-sized arrays (33 kB each
    # here), and no grid over the sphere: one float array of a 1441 x 2881
    # grid alone would be 33 MB
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


START_THETAS = [1e-3, 0.3, math.pi / 4, 1.2, math.pi / 2]
START_QS = [0.0, 0.04, 2.0, 14.0, 500.0]
START_T_HALFS = [0.05, 0.5, 4.0, 100.0]


def _cmf_second_moments(p):
    """<(sz/s0)^2> and <(sx/s0)^2> of the cmf state, by cmf's own 1D integral
    over the bath coordinate: given it, the spin is von Mises-Fisher about
    h with second moment (L(r)/r) I + (1 - 3 L(r)/r) k k^T, k = h/r."""
    x1 = p.beta * p.omega_l * p.s0
    x2 = p.beta * p.q * p.s0 ** 2
    u, wts = _panel_nodes(_bath_panels(x1, x2), _RULES[1])
    logw, gz, gx = _bath_terms(p.theta, x1, x2, u)
    y = math.sqrt(2.0 * x2) * u
    hz, hx = x1 + y * math.cos(p.theta), -y * math.sin(p.theta)
    r2 = hz * hz + hx * hx
    g = np.hypot(gz, gx) / np.sqrt(r2)
    wt = wts * np.exp(logw - logw.max())
    wt /= wt.sum()
    return (float(wt @ (g + (1.0 - 3.0 * g) * hz * hz / r2)),
            float(wt @ (g + (1.0 - 3.0 * g) * hx * hx / r2)))


@pytest.mark.parametrize("theta", START_THETAS)
def test_start_is_the_stationary_spin_law(theta):
    # at T > 0 the start is an exact draw: its mean spin lies within 4.5
    # standard errors of cmf, the errors taken from cmf's own variance
    ens = 100_000
    key = 100 * START_THETAS.index(theta)
    for q in START_QS:
        for t_half in START_T_HALFS:
            for n in (1, 3):
                key += 1
                p = ModelParams(n=n, omega_l=1.0, theta=theta,
                                bath=LorentzianBath.from_q(q, 7.0, 5.0),
                                beta=beta_from_t_half(t_half))
                sx, sy, sz, _, _ = _init_ensemble(
                    p, _StepKernel(p, 1e-4, 1), ens,
                    np.random.Generator(np.random.Philox(key=key)))
                norm = np.sqrt(sx * sx + sy * sy + sz * sz)
                assert np.max(np.abs(norm - p.s0)) <= 1e-12
                ref = cmf_expectations(p)
                for name, s, mean, second in zip(
                        ("sz", "sx"), (sz, sx), (ref.sz, ref.sx),
                        _cmf_second_moments(p)):
                    se = math.sqrt((second - mean * mean) / ens)
                    z = (float(np.mean(s)) / p.s0 - mean) / se
                    assert abs(z) <= 4.5, (name, theta, q, t_half, n, z)


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


def test_zero_temperature_near_transverse_starts_on_the_one_maximum():
    # 1e-10 below pi/2 the mirror maxima of zeta = 2 are no longer a tie:
    # every member starts on the lower-energy one, so even an odd ensemble
    # gives cmf's state
    p = make_params(zeta_val=2.0, theta=math.pi / 2 - 1e-10, beta=math.inf)
    cfg = SimConfig(dt=0.005, t_burn=1.0, t_sample=2.0, seed=3, ensemble=7)
    e = simulate_steady(p, cfg)
    ref = cmf_expectations(p)
    assert ref.sx < -0.96
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
    with open(path, "w") as fh:
        e = simulate_steady(p, cfg, trajectory=fh)
    assert (e.sz_err, e.sx_err) == (0.0, 0.0)
    assert e.sx == pytest.approx(0.0, abs=1e-15)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (40, 6)
    assert np.allclose(rows[:, 0], 1.0 + (np.arange(0, 400, 10) + 1) * 0.005)
    assert np.all(rows[:, 1:] == rows[0, 1:])
