"""Coupling-regime classification and boundary finding.

A point (zeta, T) is labeled by which approximation reproduces the exact
mean-force expectations within tolerance: UW (bare Gibbs), WK (second-order),
US (infinite-coupling projection), otherwise IM.  Precedence UW > WK > US
when several pass.  FLAVORS names, per flavor, the entries of the method
table (solvers.SOLVERS) for the exact state and its three approximations.
The exact solver is the reaction coordinate for the quantum flavor and the
bath-coordinate integral for the classical one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (LorentzianBath, ModelParams, alpha_scaling,
                    beta_from_t_half, spin_length, t_half_from_beta)
from .results import SpinExpectation, SweepTable
from .solvers import SOLVERS

__all__ = [
    "BoundaryNotFound",
    "FLAVORS",
    "RegimePoint",
    "approx_error",
    "classify_point",
    "find_boundary",
    "regime_atlas",
]

DEFAULT_TOL = 4e-3
# classification uses an absolute-difference metric (floor 1.0 swamps the
# normalized components, which never exceed 1); this choice, together with
# the narrow default Lorentzian below, is what places the T = 0 boundaries
# at the documented locations
CLASSIFY_FLOOR = 1.0
DEFAULT_OMEGA_0 = 7.0
DEFAULT_GAMMA_W = 0.2
_SCAN_LO, _SCAN_HI = 1e-3, 1e4
_POINTS_PER_DECADE = 12
# bisection stops when the bracket's ends are within this ratio
_REL_PRECISION = 0.02

# (exact, UW, WK, US) solver names per flavor, and each approximation's
# position in those tuples
FLAVORS = {
    "quantum": ("qmf-rc", "qgibbs", "qmf-wk", "qmf-us"),
    "classical": ("cmf", "cgibbs", "cmf-wk", "cmf-us"),
}
_APPROX = {"UW": 1, "WK": 2, "US": 3}


class BoundaryNotFound(RuntimeError):
    """The error curve does not cross the tolerance in the scan window."""


@dataclass(frozen=True)
class RegimePoint:
    zeta: float
    t_half: float
    err_uw: float
    err_wk: float
    err_us: float
    label: str
    n_rc_used: int = 0
    backend: str = ""


def approx_error(exact: SpinExpectation, approx: SpinExpectation,
                 floor: float = CLASSIFY_FLOOR) -> float:
    """max over components of |approx - exact| / max(|exact|, floor).

    The denominator floor keeps the metric finite where a component crosses
    zero.
    """
    ez = abs(approx.sz - exact.sz) / max(abs(exact.sz), floor)
    ex = abs(approx.sx - exact.sx) / max(abs(exact.sx), floor)
    return max(ez, ex)


def _approx_errors(params: ModelParams, flavor: str, approxes,
                   floor: float):
    """The flavor's exact state at params and each named approximation's
    approx_error against it."""
    try:
        methods = FLAVORS[flavor]
    except KeyError:
        raise ValueError("flavor must be quantum or classical") from None
    exact = SOLVERS[methods[0]](params)
    return exact, [approx_error(exact, SOLVERS[methods[_APPROX[a]]](params),
                                floor) for a in approxes]


def classify_point(params: ModelParams, flavor: str = "quantum",
                   tol: float = DEFAULT_TOL,
                   floor: float = CLASSIFY_FLOOR) -> RegimePoint:
    exact, (err_uw, err_wk, err_us) = _approx_errors(params, flavor, _APPROX,
                                                     floor)
    if err_uw < tol:
        label = "UW"
    elif err_wk < tol:
        label = "WK"
    elif err_us < tol:
        label = "US"
    else:
        label = "IM"
    return RegimePoint(zeta=params.zeta,
                       t_half=t_half_from_beta(params.beta, params.omega_l),
                       err_uw=err_uw, err_wk=err_wk, err_us=err_us,
                       label=label, n_rc_used=exact.n_rc_used,
                       backend=exact.method)


def _params_at(zeta_val: float, t_half: float, theta: float, n: int,
               omega_l: float, omega_0: float, gamma_w: float) -> ModelParams:
    q = alpha_scaling(zeta_val, spin_length(n), omega_l)
    bath = LorentzianBath.from_q(q, omega_0, gamma_w)
    beta = beta_from_t_half(t_half, omega_l)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


def find_boundary(t_half: float, theta: float, approx: str,
                  flavor: str = "quantum", tol: float = DEFAULT_TOL,
                  n: int = 1, omega_l: float = 1.0,
                  omega_0: float = DEFAULT_OMEGA_0,
                  gamma_w: float = DEFAULT_GAMMA_W,
                  floor: float = CLASSIFY_FLOOR,
                  scan_lo: float = _SCAN_LO,
                  scan_hi: float = _SCAN_HI) -> float:
    """Coupling strength zeta* where the given approximation's error first
    crosses tol.

    Coarse log scan (12 points per decade over [scan_lo, scan_hi], default
    [1e-3, 1e4]) brackets the first crossing; bisection in log(zeta) then
    narrows it to 2% relative.  For the US approximation the error crosses
    from above, so the scan looks for the first sign change either way.
    A tighter scan window cuts the cost a lot at high temperature, where
    each exact solve needs a large oscillator cutoff.
    """
    if approx not in _APPROX:
        raise ValueError("approx must be UW, WK or US")

    def err(z):
        p = _params_at(z, t_half, theta, n, omega_l, omega_0, gamma_w)
        return _approx_errors(p, flavor, (approx,), floor)[1][0] - tol

    n_pts = int(round(_POINTS_PER_DECADE
                      * math.log10(scan_hi / scan_lo))) + 1
    grid = np.geomspace(scan_lo, scan_hi, n_pts)
    # the bracket's lower end keeps its error from the scan for bisection
    lo, e_lo = grid[0], err(grid[0])
    for hi in grid[1:]:
        e_hi = err(hi)
        if e_lo == 0.0 or e_lo * e_hi < 0:
            break
        lo, e_lo = hi, e_hi
    else:
        raise BoundaryNotFound(
            f"no {approx} boundary crossing in scan range "
            f"[{scan_lo}, {scan_hi}]"
        )
    while hi / lo > 1.0 + _REL_PRECISION:
        mid = math.sqrt(lo * hi)
        e_mid = err(mid)
        if e_lo * e_mid <= 0:
            hi = mid
        else:
            lo, e_lo = mid, e_mid
    return math.sqrt(lo * hi)


def regime_atlas(theta: float, zeta_grid: Sequence[float],
                 t_grid: Sequence[float], flavor: str = "quantum",
                 n: int = 1, tol: float = DEFAULT_TOL,
                 floor: float = CLASSIFY_FLOOR,
                 omega_l: float = 1.0, omega_0: float = DEFAULT_OMEGA_0,
                 gamma_w: float = DEFAULT_GAMMA_W) -> SweepTable:
    """Classify every (zeta, t_half) grid cell; solver failures are recorded
    in-row with label ERR rather than aborting the sweep."""
    table = SweepTable(
        columns=("zeta", "t_half", "err_uw", "err_wk", "err_us", "label",
                 "n_rc_used", "backend"),
        metadata={"theta": theta, "flavor": flavor, "n": n, "tol": tol,
                  "metric": f"max_component|diff|/max(|exact|,{floor})",
                  "omega_0": omega_0, "gamma_w": gamma_w},
    )
    for zv in zeta_grid:
        for tv in t_grid:
            p = _params_at(zv, tv, theta, n, omega_l, omega_0, gamma_w)
            try:
                pt = classify_point(p, flavor=flavor, tol=tol, floor=floor)
            except Exception as exc:  # recorded per-cell, sweep continues
                table.append(zv, tv, math.nan, math.nan, math.nan,
                             f"ERR:{type(exc).__name__}", 0, "none")
                continue
            table.append(pt.zeta, pt.t_half, pt.err_uw, pt.err_wk,
                         pt.err_us, pt.label, pt.n_rc_used, pt.backend)
    return table
