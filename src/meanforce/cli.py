"""Command-line interface: sweeps, regime boundaries, density maps, dynamics.

One binary with subcommands.  Options can come from a flat key = value
config file (--config); explicit flags override file values.  Angles accept
plain radians or tokens like pi/4.  Grids are min:max:count, optionally
prefixed log: for geometric spacing.  Results are cached per grid cell in a
JSONL store keyed by a canonical hash of (command, parameters, tolerances,
code version); identical reruns are served from the cache byte-identically.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cache import ResultCache, canonical_key, default_cache_dir
from .classical import QuadratureNotConverged, cmf_expectations, cmf_logweight
from .dynamics import SimConfig, simulate_steady
from .limits import correspondence_sweep
from .model import (
    LorentzianBath,
    ModelParams,
    beta_from_t_half,
    beta_from_t_spin,
)
from .qrc import RcNotConverged
from .regimes import CLASSIFY_FLOOR, DEFAULT_TOL, find_boundary, regime_atlas
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


def parse_grid(spec: str) -> list:
    """min:max:count (linear) or log:min:max:count, or a single number."""
    spec = str(spec).strip()
    log = spec.startswith("log:")
    if log:
        spec = spec[4:]
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid spec must be min:max:count, got {spec!r}")
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
    p.add_argument("--omega-l", type=float, default=1.0)
    p.add_argument("--omega-0", type=float, default=7.0,
                   help="Lorentzian peak frequency")
    p.add_argument("--gamma-w", type=float, default=5.0,
                   help="Lorentzian width")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--zeta", type=float, help="coupling zeta = Q S0 / omega_l")
    g.add_argument("--alpha", type=float, help="coupling alpha (Q = alpha omega_l / S0)")
    g.add_argument("--q", type=float, help="reorganization energy Q directly")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--output", "-o", help="CSV output path (default stdout)")
    p.add_argument("--cache-dir", help="cache directory (or MEANFORCE_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--tol", type=float, help="solver tolerance override")


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
    p.add_argument("--t-half", type=float, default=1.0)

    p = sub.add_parser("regimes", help="regime boundaries or a full atlas")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--flavor", choices=("quantum", "classical"), default="quantum")
    p.add_argument("--t-half", default="0", help="grid or single value; 0 means T = 0")
    p.add_argument("--zeta-grid", help="if set, emit a label atlas instead of boundaries")
    p.add_argument("--regime-tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--floor", type=float, default=CLASSIFY_FLOOR,
                   help="denominator floor of the error metric")

    p = sub.add_parser("density-map",
                       help="classical mean-force density on the sphere")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--t-spin", type=float, default=1.0, help="kBT in units of S0 omega_l")
    p.add_argument("--v-count", type=int, default=61)
    p.add_argument("--phi-count", type=int, default=121)

    p = sub.add_parser("dynamics", help="Langevin steady state vs temperature")
    _add_common_args(p)
    _add_model_args(p)
    p.add_argument("--t-half", default="0.05:4:10")
    p.add_argument("--dt", type=float, help="time step (default 0.02/max rate)")
    p.add_argument("--t-burn", type=float, default=20.0)
    p.add_argument("--t-sample", type=float, default=200.0)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--ensemble", type=int, default=64)
    p.add_argument("--trajectory", help="optional member-0 trajectory CSV path")

    p = sub.add_parser("correspondence",
                       help="quantum WK/RC vs classical CMF across spin sizes")
    _add_common_args(p)
    p.add_argument("--theta", default="pi/4")
    p.add_argument("--alpha", type=float, default=0.06)
    p.add_argument("--t-spin", default="0.05:5:25", help="kBT grid in units of S0 omega_l")
    p.add_argument("--n-list", default="1,2,5,100")
    p.add_argument("--method", choices=("WK", "RC"), default="WK")
    p.add_argument("--omega-l", type=float, default=1.0)
    p.add_argument("--omega-0", type=float, default=7.0)
    p.add_argument("--gamma-w", type=float, default=5.0)
    return ap


def _coupling_q(args) -> float:
    s0 = args.n / 2.0
    given = [v for v in (args.zeta, args.alpha, args.q) if v is not None]
    if not given:
        raise ConfigError("one of --zeta, --alpha, --q is required")
    if args.q is not None:
        return args.q
    if args.zeta is not None:
        return args.zeta * args.omega_l / s0
    return args.alpha * args.omega_l / s0


def _model_params(args, q: float, beta: float) -> ModelParams:
    bath = LorentzianBath.from_q(q=q, omega_0=args.omega_0, gamma_w=args.gamma_w)
    return ModelParams(n=args.n, omega_l=args.omega_l, theta=args.theta_rad,
                       bath=bath, beta=beta)


def _sim_config(args, params: ModelParams) -> SimConfig:
    dt = getattr(args, "dt", None)
    if dt is None:
        rate = max(params.omega_l, params.bath.omega_0, params.bath.gamma_w)
        dt = 0.02 / rate
    return SimConfig(dt=dt,
                     t_burn=getattr(args, "t_burn", 20.0),
                     t_sample=getattr(args, "t_sample", 200.0),
                     stride=getattr(args, "stride", 10),
                     seed=args.seed,
                     ensemble=getattr(args, "ensemble", 64))


def _cache_payload(args, command: str, method: str, params: ModelParams,
                   extra: dict) -> dict:
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
    payload.update(extra)
    return payload


def _echo_metadata(args, command: str) -> dict:
    skip = {"config", "output", "cache_dir", "no_cache", "workers"}
    meta = {"command": command, "version": __version__}
    for key, val in sorted(vars(args).items()):
        if key in skip or key == "command" or val is None:
            continue
        meta[key] = val
    return meta


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
        grid = []
        for z in parse_grid(args.zeta_grid):
            qz = z * args.omega_l / (args.n / 2.0)
            grid.append(("zeta", z, _model_params(args, qz, beta)))

    axis = grid[0][0]
    table = SweepTable(columns=(axis, "method", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args, command))
    cells = [(val, m, params) for _, val, params in grid for m in methods]

    def work(cell):
        val, m, params = cell
        if m == "cdyn":
            cfg = _sim_config(args, params)
            payload = _cache_payload(args, command, m, params,
                                     dataclasses.asdict(cfg))
            return _cached(cache, payload,
                           lambda: _spin_row(simulate_steady(params, cfg)))
        payload = _cache_payload(args, command, m, params, {})
        return _cached(cache, payload, lambda: _spin_row(SOLVERS[m](params)))

    results = _fan_out(work, cells, args.workers)
    for (val, m, _), (sz, sx, sze, sxe) in zip(cells, results):
        table.append(val, m, sz, sx, sze, sxe)
    return table


def _fan_out(work, cells, workers: int):
    if workers <= 1 or len(cells) <= 1:
        return [work(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, cells))


def _run_regimes(args, cache) -> SweepTable:
    t_grid = parse_grid(args.t_half)
    if args.zeta_grid:
        return regime_atlas(args.theta_rad, parse_grid(args.zeta_grid),
                            t_grid, flavor=args.flavor, n=args.n,
                            tol=args.regime_tol, floor=args.floor,
                            omega_l=args.omega_l, omega_0=args.omega_0,
                            gamma_w=args.gamma_w)
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
    z_part = cmf_expectations(params).z_part
    table = SweepTable(columns=("v_theta", "phi", "tau_mf"),
                       metadata=_echo_metadata(args, "density-map"))
    from .classical import SphericalPoint
    for v in np.linspace(0.0, math.pi, args.v_count):
        for phi in np.linspace(0.0, 2.0 * math.pi, args.phi_count):
            lw = cmf_logweight(SphericalPoint(float(v), float(phi)), params)
            table.append(float(v), float(phi), math.exp(lw) / z_part)
    return table


def _run_dynamics(args, cache) -> SweepTable:
    if args.theta_rad <= 0:
        raise ConfigError("dynamics requires theta > 0")
    q = _coupling_q(args)
    table = SweepTable(columns=("t_half", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args, "dynamics"))
    t_vals = parse_grid(args.t_half)
    for i, t_half in enumerate(t_vals):
        params = _model_params(args, q, beta_from_t_half(t_half, args.omega_l))
        cfg = _sim_config(args, params)
        payload = _cache_payload(args, "dynamics", "cdyn", params,
                                 dataclasses.asdict(cfg))
        traj = args.trajectory if (args.trajectory and i == 0) else None
        table.append(t_half, *_cached(cache, payload, lambda: _spin_row(
            simulate_steady(params, cfg, trajectory_path=traj))))
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
    table.metadata.update(_echo_metadata(args, "correspondence"))
    return table


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
            sub_map = {a.dest: a for a in
                       parser._subparsers._group_actions[0].choices[pre.command]._actions}
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
            parser.parse_args([pre.command], namespace=argparse.Namespace())
            sub_parser = parser._subparsers._group_actions[0].choices[pre.command]
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
        text = table.to_csv()
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNotConverged, RcNotConverged, RuntimeError) as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
