"""Command-line interface: sweeps, regime boundaries, density maps, dynamics.

One binary with subcommands.  Options can come from a flat key = value
config file (--config); explicit flags override file values.  Angles accept
plain radians or tokens like pi/4.  Grids are min:max:count, optionally
prefixed log: for geometric spacing.  Sweeps, regime boundaries and dynamics
cache each grid cell in a JSONL store keyed by a hash of (command, parameters,
tolerances, code version), so identical reruns are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence
(quadrature, reaction-coordinate cutoff or boundary scan); any other
exception propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .cache import ResultCache, canonical_key, default_cache_dir
from .classical import QuadratureNotConverged, cmf_expectations, cmf_logweight
from .dynamics import SimConfig, simulate_steady
from .limits import correspondence_sweep
from .model import (
    LorentzianBath,
    ModelParams,
    alpha_scaling,
    beta_from_t_half,
    beta_from_t_spin,
    spin_length,
)
from .qrc import RcNotConverged
from .regimes import (CLASSIFY_FLOOR, DEFAULT_TOL, BoundaryNotFound,
                       find_boundary, regime_atlas)
from .results import SweepTable
from .solvers import SOLVERS

METHODS = (*SOLVERS, "cdyn")

_PI_TOKEN = re.compile(r"^(\d*)\s*pi\s*(?:/\s*(\d+))?$")


class ConfigError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Radians as a float, or a pi fraction token like pi/4 or 3pi/2."""
    text = str(text).strip().lower()
    m = _PI_TOKEN.match(text)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        return num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}")


def finite_float(text: str) -> float:
    """float(text), rejecting NaN and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_grid(spec: str) -> list:
    """min:max:count (linear) or log:min:max:count, or a single number."""
    spec = str(spec).strip()
    log = spec.startswith("log:")
    if log:
        spec = spec[4:]
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [finite_float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi = finite_float(parts[0]), finite_float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError("grid spec must be min:max:count of finite numbers,"
                          f" got {spec!r}")
    if count < 1:
        raise ConfigError("grid count must be >= 1")
    if count == 1:
        return [lo]
    if log:
        if lo <= 0 or hi <= 0:
            raise ConfigError("log grid endpoints must be positive")
        return list(np.geomspace(lo, hi, count))
    return list(np.linspace(lo, hi, count))


def read_config_file(path: str) -> dict:
    """Flat key = value text; '#' starts a comment; keys use flag names."""
    values = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{ln}: expected key = value, got {raw!r}")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return values


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", default="pi/4", help="spin-bath angle (rad or pi/k)")
    p.add_argument("--n", type=int, default=1, help="spin size n (S0 = n/2)")
    p.add_argument("--omega-l", type=finite_float, default=1.0)
    p.add_argument("--omega-0", type=finite_float, default=7.0,
                   help="Lorentzian peak frequency")
    p.add_argument("--gamma-w", type=finite_float, default=5.0,
                   help="Lorentzian width")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--zeta", type=finite_float,
                   help="coupling zeta = Q S0 / omega_l")
    g.add_argument("--alpha", type=finite_float,
                   help="coupling alpha (Q = alpha omega_l / S0)")
    g.add_argument("--q", type=finite_float,
                   help="reorganization energy Q directly")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--output", "-o", help="CSV output path (default stdout)")
    p.add_argument("--cache-dir", help="cache directory (or MEANFORCE_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=finite_float, help="solver tolerance override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="meanforce")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-temperature",
                       help="methods on a t_half grid at fixed coupling")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--methods", default="cmf", help="comma list of " + ",".join(METHODS))
    p.add_argument("--t-half", default="0.05:4:40", help="kBT grid in units of omega_l/2")

    p = sub.add_parser("sweep-coupling",
                       help="methods on a zeta grid at fixed temperature")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--methods", default="cmf")
    p.add_argument("--zeta-grid", default="log:0.01:100:25")
    p.add_argument("--t-half", type=finite_float, default=1.0)

    p = sub.add_parser("regimes", help="regime boundaries or a full atlas")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--flavor", choices=("quantum", "classical"), default="quantum")
    p.add_argument("--t-half", default="0", help="grid or single value; 0 means T = 0")
    p.add_argument("--zeta-grid", help="if set, emit a label atlas instead of boundaries")
    p.add_argument("--regime-tol", type=finite_float, default=DEFAULT_TOL)
    p.add_argument("--floor", type=finite_float, default=CLASSIFY_FLOOR,
                   help="denominator floor of the error metric")

    p = sub.add_parser("density-map",
                       help="classical mean-force density on the sphere")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--t-spin", type=finite_float, default=1.0,
                   help="kBT in units of S0 omega_l")
    p.add_argument("--v-count", type=int, default=61)
    p.add_argument("--phi-count", type=int, default=121)

    p = sub.add_parser("dynamics", help="Langevin steady state vs temperature")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--t-half", default="0.05:4:10")
    p.add_argument("--dt", type=finite_float,
                   help="time step (default 0.02/max rate)")
    p.add_argument("--t-burn", type=finite_float, default=SimConfig.t_burn)
    p.add_argument("--t-sample", type=finite_float, default=SimConfig.t_sample)
    p.add_argument("--stride", type=int, default=SimConfig.stride)
    p.add_argument("--ensemble", type=int, default=SimConfig.ensemble)
    p.add_argument("--trajectory", help="optional member-0 trajectory CSV path")

    p = sub.add_parser("correspondence",
                       help="quantum WK/RC vs classical CMF across spin sizes")
    _add_common_args(p)
    p.add_argument("--theta", default="pi/4")
    p.add_argument("--alpha", type=finite_float, default=0.06)
    p.add_argument("--t-spin", default="0.05:5:25", help="kBT grid in units of S0 omega_l")
    p.add_argument("--n-list", default="1,2,5,100")
    p.add_argument("--method", choices=("WK", "RC"), default="WK")
    p.add_argument("--omega-l", type=finite_float, default=1.0)
    p.add_argument("--omega-0", type=finite_float, default=7.0)
    p.add_argument("--gamma-w", type=finite_float, default=5.0)
    return ap


def _coupling_q(args) -> float:
    if args.q is not None:
        return args.q
    scaled = args.zeta if args.zeta is not None else args.alpha
    if scaled is None:
        raise ConfigError("one of --zeta, --alpha, --q is required")
    return alpha_scaling(scaled, spin_length(args.n), args.omega_l)


def _model_params(args, q: float, beta: float) -> ModelParams:
    bath = LorentzianBath.from_q(q=q, omega_0=args.omega_0, gamma_w=args.gamma_w)
    return ModelParams(n=args.n, omega_l=args.omega_l, theta=args.theta_rad,
                       bath=bath, beta=beta)


def _echo_metadata(args, command: str) -> dict:
    skip = {"config", "output", "cache_dir", "no_cache"}
    meta = {"command": command, "version": __version__}
    for key, val in sorted(vars(args).items()):
        if key in skip or key == "command" or val is None:
            continue
        meta[key] = val
    return meta


def _add_echo(table: SweepTable, args, command: str) -> SweepTable:
    """The command's metadata after a library table's own; the table's keys
    win (its theta is in radians, the flag's may read pi/4)."""
    for key, val in _echo_metadata(args, command).items():
        table.metadata.setdefault(key, val)
    return table


def _cached(cache, payload: dict, compute):
    """The cached value for payload, computed and stored on a miss."""
    key = canonical_key(payload)
    hit = cache.get(key)
    if hit is not None:
        return hit
    value = compute()
    cache.put(key, value)
    return value


def _spin_row(e) -> list:
    return [e.sz, e.sx, e.sz_err, e.sx_err]


def _cell(args, cache, command: str, method: str, params: ModelParams,
          trajectory_path=None) -> list:
    """One cached (sz, sx, sz_err, sx_err) cell: a solver's, or at method
    cdyn a Langevin run's with the command's simulation settings."""
    payload = {
        "command": command,
        "method": method,
        "version": __version__,
        "n": params.n,
        "omega_l": params.omega_l,
        "theta": params.theta,
        "omega_0": params.bath.omega_0,
        "gamma_w": params.bath.gamma_w,
        "q": params.q,
        "beta": repr(params.beta),
        "tol": args.tol,
    }
    if method == "cdyn":
        cfg = SimConfig.for_params(params, **{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(SimConfig)
            if getattr(args, f.name, None) is not None})
        payload.update(dataclasses.asdict(cfg))
        solve = functools.partial(simulate_steady, params, cfg,
                                  trajectory_path=trajectory_path)
    else:
        solve = functools.partial(SOLVERS[method], params)
    return _cached(cache, payload, lambda: _spin_row(solve()))


def _run_sweep(args, cache, command: str) -> SweepTable:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if m == "cdyn" and args.theta_rad <= 0:
            raise ConfigError("cdyn requires theta > 0")

    if command == "sweep-temperature":
        q = _coupling_q(args)
        grid = [("t_half", t, _model_params(args, q, beta_from_t_half(t, args.omega_l)))
                for t in parse_grid(args.t_half)]
    else:
        beta = beta_from_t_half(args.t_half, args.omega_l)
        s0 = spin_length(args.n)
        grid = [("zeta", z, _model_params(
                    args, alpha_scaling(z, s0, args.omega_l), beta))
                for z in parse_grid(args.zeta_grid)]

    axis = grid[0][0]
    table = SweepTable(columns=(axis, "method", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args, command))
    for _, val, params in grid:
        for m in methods:
            table.append(val, m, *_cell(args, cache, command, m, params))
    return table


def _run_regimes(args, cache) -> SweepTable:
    t_grid = parse_grid(args.t_half)
    if args.zeta_grid:
        table = regime_atlas(args.theta_rad, parse_grid(args.zeta_grid),
                             t_grid, flavor=args.flavor, n=args.n,
                             tol=args.regime_tol, floor=args.floor,
                             omega_l=args.omega_l, omega_0=args.omega_0,
                             gamma_w=args.gamma_w)
        return _add_echo(table, args, "regimes")
    table = SweepTable(
        columns=("t_half", "zeta_uw_wk", "zeta_wk_im", "zeta_im_us"),
        metadata=_echo_metadata(args, "regimes"))

    def boundary(t_half, approx):
        payload = {"command": "regimes", "version": __version__,
                   "approx": approx, "flavor": args.flavor, "n": args.n,
                   "theta": args.theta_rad, "t_half": t_half,
                   "omega_l": args.omega_l, "omega_0": args.omega_0,
                   "gamma_w": args.gamma_w, "tol": args.regime_tol,
                   "floor": args.floor}
        return _cached(cache, payload, lambda: find_boundary(
            t_half, args.theta_rad, approx, flavor=args.flavor,
            tol=args.regime_tol, n=args.n, omega_l=args.omega_l,
            omega_0=args.omega_0, gamma_w=args.gamma_w, floor=args.floor))

    for t_half in t_grid:
        table.append(t_half, boundary(t_half, "UW"), boundary(t_half, "WK"),
                     boundary(t_half, "US"))
    return table


def _run_density_map(args, cache) -> SweepTable:
    if args.t_spin <= 0:
        raise ConfigError("--t-spin must be positive (density needs T > 0)")
    if args.alpha is None and args.zeta is None and args.q is None:
        args.alpha = 1.0
    q = _coupling_q(args)
    beta = beta_from_t_spin(args.t_spin, args.n, args.omega_l)
    params = _model_params(args, q, beta)
    # tau = exp(lw) / Z in log space: at low temperature both overflow
    log_z = cmf_expectations(params).log_z
    table = SweepTable(columns=("v_theta", "phi", "tau_mf"),
                       metadata=_echo_metadata(args, "density-map"))
    from .classical import SphericalPoint
    for v in np.linspace(0.0, math.pi, args.v_count):
        for phi in np.linspace(0.0, 2.0 * math.pi, args.phi_count):
            lw = cmf_logweight(SphericalPoint(float(v), float(phi)), params)
            table.append(float(v), float(phi), math.exp(lw - log_z))
    return table


def _run_dynamics(args, cache) -> SweepTable:
    if args.theta_rad <= 0:
        raise ConfigError("dynamics requires theta > 0")
    q = _coupling_q(args)
    table = SweepTable(columns=("t_half", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args, "dynamics"))
    for i, t_half in enumerate(parse_grid(args.t_half)):
        params = _model_params(args, q, beta_from_t_half(t_half, args.omega_l))
        traj = args.trajectory if i == 0 else None
        table.append(t_half, *_cell(args, cache, "dynamics", "cdyn", params,
                                    traj))
    return table


def _run_correspondence(args, cache) -> SweepTable:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers")
    beta_prime = [1.0 / t for t in parse_grid(args.t_spin)]
    table = correspondence_sweep(args.alpha, args.theta_rad, beta_prime,
                                 n_list=n_list, method=args.method,
                                 omega_l=args.omega_l, omega_0=args.omega_0,
                                 gamma_w=args.gamma_w)
    return _add_echo(table, args, "correspondence")


def run(argv=None) -> int:
    parser = build_parser()
    t_start = time.time()
    try:
        # first pass only to locate --config; then re-parse with file defaults
        try:
            pre, _ = parser.parse_known_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if getattr(pre, "config", None):
            file_vals = read_config_file(pre.config)
            sub_parser = parser._subparsers._group_actions[0].choices[pre.command]
            sub_map = {a.dest: a for a in sub_parser._actions}
            defaults = {}
            for key, val in file_vals.items():
                if key not in sub_map:
                    raise ConfigError(f"unknown config key {key!r}")
                action = sub_map[key]
                if action.type is not None:
                    val = action.type(val)
                elif isinstance(action, argparse._StoreTrueAction):
                    val = val.lower() in ("1", "true", "yes")
                defaults[key] = val
            sub_parser.set_defaults(**defaults)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

        if hasattr(args, "theta"):
            args.theta_rad = parse_angle(args.theta)
        cache = ResultCache(None if args.no_cache
                            else default_cache_dir(args.cache_dir))

        if args.command in ("sweep-temperature", "sweep-coupling"):
            table = _run_sweep(args, cache, args.command)
        elif args.command == "regimes":
            table = _run_regimes(args, cache)
        elif args.command == "density-map":
            table = _run_density_map(args, cache)
        elif args.command == "dynamics":
            table = _run_dynamics(args, cache)
        else:
            table = _run_correspondence(args, cache)

        # wall time and cache stats go to stderr so identical runs produce
        # byte-identical CSV
        print("wall time %.3f s, cache hits %d, misses %d"
              % (time.time() - t_start, cache.hits, cache.misses),
              file=sys.stderr)
        if args.output:
            table.to_csv(args.output)
        else:
            sys.stdout.write(table.to_csv())
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNotConverged, RcNotConverged, BoundaryNotFound) as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
