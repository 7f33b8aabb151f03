"""Stochastic classical spin plus collective-mode Langevin dynamics.

The Lorentzian reservoir acting on the spin is equivalent to a single
harmonic mode X with frequency omega_0, damped at rate Gamma and driven by
white thermal noise.  The coupled system evolves under

    H = -omega_l*Sz + c*S_theta*X + (P^2 + omega_0^2*X^2)/2,   c = omega_0*sqrt(2Q)

with S_theta = s . that = -sx*sin(theta) + sz*cos(theta).  Damping and noise
obey the fluctuation-dissipation relation <xi xi'> = 2*Gamma*kB*T*delta, so
the joint stationary law is Gibbs(H) and the stationary spin marginal is
exactly the classical mean-force state.  Long-time averages therefore
converge to cmf_expectations; the transient evolution is a faithful damped
precession but is not calibrated against any particular reference method.

Integration uses a Strang splitting: half update of (X, P), an exact
rotation of the spin about the instantaneous effective field, then the
mirrored half update.  The damped momentum takes one exact Ornstein-Uhlenbeck
step over dt next to the rotation, which does not read P; this is the same
Markov chain as two OU half-steps around the rotation, with one normal per
step.  The rotation preserves |s| to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import _bath_panels, _bath_terms, _zero_temperature_maxima
from .model import ModelParams
from .results import SpinExpectation

__all__ = [
    "SimConfig",
    "simulate_steady",
]

_ONE, _TINY = np.array(1.0), np.array(1e-300)

_THETA_MSG = (
    "theta = 0 couples the bath to Sz only, which commutes with the free "
    "precession; there is no dissipation channel and the spin cannot "
    "equilibrate.  Use theta > 0."
)


def _max_rate(params: ModelParams) -> float:
    """The fastest rate of the dynamics, max(omega_l, omega_0, Gamma)."""
    return max(params.omega_l, params.bath.omega_0, params.bath.gamma_w)


@dataclass(frozen=True)
class SimConfig:
    """Integration and sampling settings for the Langevin simulator."""

    dt: float
    t_burn: float = 20.0
    t_sample: float = 200.0
    stride: int = 10
    seed: int = 0
    ensemble: int = 64

    @classmethod
    def for_params(cls, params: ModelParams, dt=None,
                   **settings) -> "SimConfig":
        """Settings with dt = 0.02/max(omega_l, omega_0, Gamma) unless
        given."""
        return cls(dt=0.02 / _max_rate(params) if dt is None else dt,
                   **settings)

    def validate(self, params: ModelParams) -> None:
        if not all(map(math.isfinite, (self.dt, self.t_burn, self.t_sample))):
            raise ValueError("dt, t_burn and t_sample must be finite")
        rate = _max_rate(params)
        if self.dt <= 0 or self.dt > 0.05 / rate:
            raise ValueError(
                "dt must satisfy 0 < dt <= 0.05/max(omega_l, omega_0, Gamma)"
                " = %g" % (0.05 / rate))
        if self.t_burn <= 0 or self.t_sample <= 0:
            raise ValueError("t_burn and t_sample must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")


class _StepKernel:
    """Precomputed constants, scratch buffers for n trajectories and the
    Strang step acting on component arrays."""

    def __init__(self, params: ModelParams, dt: float, n: int):
        bath = params.bath
        if params.beta == math.inf:
            kbt = 0.0
        elif params.beta <= 0:
            raise ValueError("dynamics requires beta > 0")
        else:
            kbt = 1.0 / params.beta
        self.kbt = kbt
        c = bath.omega_0 * math.sqrt(2.0 * params.q)
        sin_t, cos_t = math.sin(params.theta), math.cos(params.theta)
        h = 0.5 * dt
        c1 = math.exp(-bath.gamma_w * dt)
        # the step's scalars are 0-d arrays: numpy converts a Python float
        # operand on every call, which at small ensembles costs more than
        # the arithmetic
        f = np.array
        self.dt, self.h, self.omega_l = f(dt), f(h), f(params.omega_l)
        self.sin_t, self.cos_t, self.c = f(sin_t), f(cos_t), f(c)
        self.c_sin, self.c_cos = f(c * sin_t), f(c * cos_t)
        self.w0sq = f(bath.omega_0 ** 2)
        self.c1 = f(c1)
        self.noise_std = f(math.sqrt(kbt * (1.0 - c1 * c1)))
        self._tmp = tuple(np.empty(n) for _ in range(6))
        self._spin = tuple(np.empty(n) for _ in range(3))

    def _kick(self, sx, sz, x, p):
        """p -= (omega_0^2 X + c S_theta) h, the half-step force kick."""
        a, b = self._tmp[:2]
        np.multiply(sz, self.cos_t, out=a)
        np.multiply(sx, self.sin_t, out=b)
        a -= b
        a *= self.c
        np.multiply(x, self.w0sq, out=b)
        b += a
        b *= self.h
        p -= b

    def _drift(self, x, p):
        a = self._tmp[0]
        np.multiply(p, self.h, out=a)
        x += a

    def _ou(self, p, rng):
        """Exact Ornstein-Uhlenbeck step of the damped momentum over dt."""
        a = self._tmp[0]
        rng.standard_normal(out=a)
        a *= self.noise_std
        p *= self.c1
        p += a

    def step(self, sx, sy, sz, x, p, rng):
        """One full Strang step, x and p in place.  The new spin goes to
        the kernel's spin buffers, and the spin passed in becomes them."""
        mul, sub = np.multiply, np.subtract
        a, b, kx, kz, ca, sn = self._tmp
        nx, ny, nz = self._spin

        # half update of (X, P): kick, drift; then the momentum's whole OU
        # step, since the rotation does not read P
        self._kick(sx, sz, x, p)
        self._drift(x, p)
        self._ou(p, rng)

        # exact precession: ds/dt = grad_s H x s = -B_eff x s with
        # B_eff = omega_l z_hat - c X theta_hat, i.e. rotation by -|B| dt
        # about k = B/|B|: s' = s cos - (k x s) sn + k (k.s)(1 - cos),
        # with sn = sin(|B| dt)
        mul(x, self.c_sin, out=kx)
        mul(x, self.c_cos, out=kz)
        sub(self.omega_l, kz, out=kz)
        mul(kx, kx, out=a)
        mul(kz, kz, out=b)
        a += b
        np.sqrt(a, out=a)
        mul(a, self.dt, out=ca)
        np.sin(ca, out=sn)
        np.cos(ca, out=ca)
        np.maximum(a, _TINY, out=a)
        np.divide(_ONE, a, out=a)
        kx *= a
        kz *= a
        # a = (k . s)(1 - cos)
        mul(kx, sx, out=a)
        mul(kz, sz, out=b)
        a += b
        sub(_ONE, ca, out=b)
        a *= b
        mul(sx, ca, out=nx)
        mul(kz, sy, out=b)
        b *= sn
        nx += b
        mul(kx, a, out=b)
        nx += b
        mul(sz, ca, out=nz)
        mul(kx, sy, out=b)
        b *= sn
        nz -= b
        mul(kz, a, out=b)
        nz += b
        mul(sy, ca, out=ny)
        mul(kz, sx, out=a)
        mul(kx, sz, out=b)
        a -= b
        a *= sn
        ny -= a
        self._spin = sx, sy, sz

        # mirrored half update of (X, P)
        self._drift(x, p)
        self._kick(nx, nz, x, p)
        return nx, ny, nz, x, p


# trapezoid intervals per unit panel of the bath coordinate's inverse CDF:
# its log-weight is -u^2/2 plus a convex function of u, so every peak is at
# least about 1 wide
_U_NODES = 64


def _init_ensemble(params: ModelParams, kern: _StepKernel, n_traj: int, rng):
    """Draw (s, X, P) from the stationary law, so burn-in only has to
    remove the step's discretization bias.

    At T > 0 the draw is exact.  The Gaussian identity that turns the cmf
    sphere integral into a 1D integral (see cmf_expectations) makes the
    spin, jointly with the scaled bath coordinate u, von Mises-Fisher about
    the field h = x1 z + sigma u e_theta given u.  So u is drawn by inverse
    CDF of its 1D marginal (a trapezoid CDF on the cmf panels), then the
    spin's cosine w about k = h/|h| by the closed-form inverse CDF
    w = 1 + log(1 + xi (e^-2r - 1)) / r, r = |h| (Wood 1994), with a
    uniform azimuth about k.  X follows its conditional Gibbs law given the
    spin, centered on -c*s_theta/omega_0^2 with variance kBT/omega_0^2.

    At T = 0 member k starts on the (k mod m)-th of the m global maxima of
    -H_eff, with X at its conditional mean and P = 0.  Without noise each
    stays there, so when m divides the ensemble the average is cmf's.
    """
    s0 = params.s0
    if params.beta == math.inf:
        psi = np.array(_zero_temperature_maxima(params.theta, params.zeta))
        psi = psi[np.arange(n_traj) % len(psi)]
        sx, sy, sz = s0 * np.sin(psi), np.zeros(n_traj), s0 * np.cos(psi)
        s_theta = sz * kern.cos_t - sx * kern.sin_t
        return sx, sy, sz, -kern.c * s_theta / kern.w0sq, np.zeros(n_traj)

    theta = params.theta
    x1 = params.beta * params.omega_l * s0
    x2 = params.beta * params.q * s0 * s0
    u = np.concatenate([np.linspace(b[0], b[-1], _U_NODES * (len(b) - 1) + 1)
                        for b in _bath_panels(x1, x2)])
    lw = _bath_terms(theta, x1, x2, u)[0]
    w = np.exp(lw - lw.max())
    cdf = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) * np.diff(u))])
    xi = rng.random((3, n_traj))
    u = np.interp(xi[0] * cdf[-1], cdf, u)

    # h = (hx, 0, hz) and r = |h|, as in _bath_terms; the frame about
    # k = h/r is (kz, 0, -kx) and y_hat
    y = math.sqrt(2.0 * x2) * u
    hx, hz = -y * math.sin(theta), x1 + y * math.cos(theta)
    r = np.hypot(hx, hz)
    kx, kz = hx / r, hz / r
    one_less_w = -np.log1p(xi[1] * np.expm1(-2.0 * r)) / r
    cos_k = 1.0 - one_less_w
    sin_k = np.sqrt(np.maximum(one_less_w * (2.0 - one_less_w), 0.0))
    phi = 2.0 * math.pi * xi[2]
    across = sin_k * np.cos(phi)
    sx = s0 * (cos_k * kx + across * kz)
    sy = s0 * sin_k * np.sin(phi)
    sz = s0 * (cos_k * kz - across * kx)
    s_theta = sz * kern.cos_t - sx * kern.sin_t
    x_std = math.sqrt(kern.kbt) / params.bath.omega_0
    x = -kern.c * s_theta / kern.w0sq + rng.standard_normal(n_traj) * x_std
    p = rng.standard_normal(n_traj) * math.sqrt(kern.kbt)
    return sx, sy, sz, x, p


def simulate_steady(params: ModelParams, cfg: SimConfig,
                    trajectory_path=None) -> SpinExpectation:
    """Time-and-ensemble averaged normalized spin after burn-in.

    Ensemble members share one vectorized counter-based generator seeded
    from cfg.seed, so results are deterministic per seed.  At T > 0 the
    start is an exact draw from the stationary law (see _init_ensemble),
    and the step works in place on a fixed set of ensemble-sized arrays, so
    memory stays at a few such arrays.  The standard error treats each
    member's time average as one independent block.  At beta = inf the
    members start on the least-energy orientations (see _init_ensemble),
    which the noiseless step leaves fixed, so no step is taken: the result
    is the start's ensemble mean, with standard errors 0.
    If trajectory_path is given, member 0 is dumped there as CSV rows
    (t, sx, sy, sz, X, P) at stride intervals.
    """
    if params.theta <= 0:
        raise ValueError(_THETA_MSG)
    cfg.validate(params)

    kern = _StepKernel(params, cfg.dt, cfg.ensemble)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    n_traj = cfg.ensemble
    sx, sy, sz, x, p = _init_ensemble(params, kern, n_traj, rng)
    s0 = params.s0

    n_samp = max(1, int(round(cfg.t_sample / cfg.dt)))
    dump = [] if trajectory_path is not None else None

    if params.beta == math.inf:
        # no noise acts and every member starts on a fixed point of the
        # noiseless step, so each time average is the member's start and
        # the members' spread between the maxima is no sampling error
        if dump is not None:
            dump = [(cfg.t_burn + (k + 1) * cfg.dt, sx[0], sy[0], sz[0],
                     x[0], p[0]) for k in range(0, n_samp, cfg.stride)]
        mz, mx = sz / s0, sx / s0
        sz_err = sx_err = 0.0
    else:
        for _ in range(max(1, int(round(cfg.t_burn / cfg.dt)))):
            sx, sy, sz, x, p = kern.step(sx, sy, sz, x, p, rng)

        sum_z = np.zeros(n_traj)
        sum_x = np.zeros(n_traj)
        count = 0
        for k in range(n_samp):
            sx, sy, sz, x, p = kern.step(sx, sy, sz, x, p, rng)
            if k % cfg.stride == 0:
                sum_z += sz
                sum_x += sx
                count += 1
                if dump is not None:
                    t = cfg.t_burn + (k + 1) * cfg.dt
                    dump.append((t, sx[0], sy[0], sz[0], x[0], p[0]))

        norm = np.sqrt(sx * sx + sy * sy + sz * sz)
        if np.max(np.abs(norm - s0)) > 1e-9 * max(1.0, s0):
            raise RuntimeError("spin norm drifted beyond tolerance")

        mz = sum_z / (count * s0)
        mx = sum_x / (count * s0)
        if n_traj > 1:
            sz_err = float(np.std(mz, ddof=1) / math.sqrt(n_traj))
            sx_err = float(np.std(mx, ddof=1) / math.sqrt(n_traj))
        else:
            sz_err = sx_err = 0.0
    out_z = float(np.mean(mz))
    out_x = float(np.mean(mx))

    if dump is not None:
        rows = "\n".join("%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" % r for r in dump)
        with open(trajectory_path, "w") as fh:
            fh.write("t,sx,sy,sz,X,P\n" + rows + "\n")

    return SpinExpectation(sz=out_z, sx=out_x, sz_err=sz_err, sx_err=sx_err,
                           method="langevin")
