"""Command-line interface: sweeps, regime boundaries, density maps, dynamics.

One binary with subcommands; each accepts only the flags it reads.  A flat
key = value config file (--config) is read as flags placed right after the
subcommand name, so flags on the command line override it.  Angles accept
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
import io
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .cache import ResultCache, canonical_key, default_cache_dir
from .classical import (QuadratureNotConverged, SphericalPoint,
                        cmf_expectations, cmf_logweight)
from .dynamics import SEED_LIMIT, SimConfig, simulate_steady
from .limits import correspondence_sweep
from .model import (BareQBath, LorentzianBath, ModelParams, alpha_scaling,
                    beta_from_t_half, beta_from_t_spin, spin_length)
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
        if den == 0:
            raise ConfigError(f"angle {text!r} divides by zero")
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


def positive_int(text: str) -> int:
    """int(text), rejecting values below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """int(text), rejecting values outside the Langevin seed range."""
    value = int(text)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 2**128), got {value}")
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


def read_config_file(path: str) -> list:
    """Flat key = value text as flags: '#' starts a comment, keys are flag
    names (t-half or t_half).  Each line becomes --key=value; a value of
    true gives the bare switch --key and false gives nothing."""
    flags = []
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{ln}: expected key = value, got {raw!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if val.lower() == "true":
                    flags.append(flag)
                elif val.lower() != "false":
                    flags.append(f"{flag}={val}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return flags


# flag groups; each subcommand takes the groups its command reads


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", help="cache directory (or MEANFORCE_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true")


def _add_cell_args(p: argparse.ArgumentParser) -> None:
    """Settings that only the cell cache key and the Langevin runs read."""
    p.add_argument("--seed", type=seed_int, default=0,
                   help="Langevin noise seed")
    p.add_argument("--tol", type=finite_float,
                   help="tolerance recorded in the cache key")


def _add_spin_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", default="pi/4", help="spin-bath angle (rad or pi/k)")
    p.add_argument("--n", type=int, default=1, help="spin size n (S0 = n/2)")
    p.add_argument("--omega-l", type=finite_float, default=1.0)


def _add_bath_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-0", type=finite_float, default=7.0,
                   help="Lorentzian peak frequency")
    p.add_argument("--gamma-w", type=finite_float, default=5.0,
                   help="Lorentzian width")


def _add_coupling_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--zeta", "--alpha", dest="zeta", type=finite_float,
                   help="coupling zeta = Q S0 / omega_l (alpha is zeta)")
    g.add_argument("--q", type=finite_float,
                   help="reorganization energy Q directly")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it as it was."""
    ap = argparse.ArgumentParser(prog="meanforce")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *groups, **kwargs):
        p = sub.add_parser(name, help=summary, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--output", "-o", help="CSV output path (default stdout)")
        for add in groups:
            add(p)
        return p

    p = command("sweep-temperature", _run_sweep_temperature,
                "methods on a t_half grid at fixed coupling",
                _add_cache_args, _add_cell_args, _add_spin_args,
                _add_bath_args, _add_coupling_args)
    p.add_argument("--methods", default="cmf", help="comma list of " + ",".join(METHODS))
    p.add_argument("--t-half", default="0.05:4:40", help="kBT grid in units of omega_l/2")

    # sweep-coupling and regimes take the coupling from a grid or a scan, so
    # they have no --zeta; and no abbreviations, or --zeta would be read as
    # --zeta-grid
    p = command("sweep-coupling", _run_sweep_coupling,
                "methods on a zeta grid at fixed temperature",
                _add_cache_args, _add_cell_args, _add_spin_args,
                _add_bath_args, allow_abbrev=False)
    p.add_argument("--methods", default="cmf")
    p.add_argument("--zeta-grid", default="log:0.01:100:25")
    p.add_argument("--t-half", type=finite_float, default=1.0)

    p = command("regimes", _run_regimes, "regime boundaries or a full atlas",
                _add_cache_args, _add_spin_args, _add_bath_args,
                allow_abbrev=False)
    p.add_argument("--flavor", choices=("quantum", "classical"), default="quantum")
    p.add_argument("--t-half", default="0", help="grid or single value; 0 means T = 0")
    p.add_argument("--zeta-grid", help="if set, emit a label atlas instead of boundaries")
    p.add_argument("--regime-tol", type=finite_float, default=DEFAULT_TOL)
    p.add_argument("--floor", type=finite_float, default=CLASSIFY_FLOOR,
                   help="denominator floor of the error metric")

    # the classical state reads the bath only through Q: no bath shape flags
    p = command("density-map", _run_density_map,
                "classical mean-force density on the sphere",
                _add_spin_args, _add_coupling_args)
    p.add_argument("--t-spin", type=finite_float, default=1.0,
                   help="kBT in units of S0 omega_l")
    p.add_argument("--v-count", type=positive_int, default=61)
    p.add_argument("--phi-count", type=positive_int, default=121)

    p = command("dynamics", _run_dynamics, "Langevin steady state vs temperature",
                _add_cache_args, _add_cell_args, _add_spin_args,
                _add_bath_args, _add_coupling_args)
    p.add_argument("--t-half", default="0.05:4:10")
    p.add_argument("--dt", type=finite_float,
                   help="time step (default 0.02/max rate)")
    p.add_argument("--t-burn", type=finite_float, default=SimConfig.t_burn)
    p.add_argument("--t-sample", type=finite_float, default=SimConfig.t_sample)
    p.add_argument("--stride", type=int, default=SimConfig.stride)
    p.add_argument("--ensemble", type=int, default=SimConfig.ensemble)
    p.add_argument("--trajectory", help="optional member-0 trajectory CSV path")

    # the library's table names the coupling alpha and writes it itself
    p = command("correspondence", _run_correspondence,
                "quantum WK/RC vs classical CMF across spin sizes")
    p.add_argument("--theta", default="pi/4")
    p.add_argument("--zeta", "--alpha", dest="alpha", metavar="ZETA",
                   type=finite_float, default=0.06,
                   help="coupling zeta = Q S0 / omega_l at every n")
    p.add_argument("--t-spin", default="0.05:5:25", help="kBT grid in units of S0 omega_l")
    p.add_argument("--n-list", default="1,2,5,100")
    p.add_argument("--method", choices=("WK", "RC"), default="WK")
    p.add_argument("--omega-l", type=finite_float, default=1.0)
    _add_bath_args(p)
    return ap


def _coupling_q(args) -> float:
    if args.q is not None:
        return args.q
    if args.zeta is None:
        raise ConfigError("one of --zeta (--alpha), --q is required")
    return alpha_scaling(args.zeta, spin_length(args.n), args.omega_l)


def _model_params(args, q: float, beta: float) -> ModelParams:
    bath = LorentzianBath.from_q(q=q, omega_0=args.omega_0, gamma_w=args.gamma_w)
    return ModelParams(n=args.n, omega_l=args.omega_l, theta=args.theta_rad,
                       bath=bath, beta=beta)


def _echo_metadata(args) -> dict:
    # run is a function (its repr holds an address), trajectory_file a stream
    skip = {"command", "run", "config", "output", "cache_dir", "no_cache",
            "trajectory_file"}
    meta = {"command": args.command, "version": __version__}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        meta[key] = val
    return meta


def _add_echo(table: SweepTable, args) -> SweepTable:
    """The command's metadata after a library table's own; the table's keys
    win (its theta is in radians, the flag's may read pi/4)."""
    for key, val in _echo_metadata(args).items():
        table.metadata.setdefault(key, val)
    return table


def _cached(cache, payload: dict, compute, fresh: bool = False):
    """The cached value for payload, computed and stored on a miss; fresh
    computes it whatever the cache holds, as a miss."""
    key = canonical_key(payload)
    if fresh:
        cache.misses += 1
    elif (hit := cache.get(key)) is not None:
        return hit
    value = compute()
    cache.put(key, value)
    return value


def _spin_row(e) -> list:
    return [e.sz, e.sx, e.sz_err, e.sx_err]


def _cell(args, cache, method: str, params: ModelParams,
          trajectory=None) -> list:
    """One cached (sz, sx, sz_err, sx_err) cell: a solver's, or at method
    cdyn a Langevin run's with the command's simulation settings.  A run
    that writes a trajectory is always computed: the cache holds no dumps."""
    payload = {
        "command": args.command,
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
        solve = functools.partial(simulate_steady, params, cfg, trajectory)
    else:
        solve = functools.partial(SOLVERS[method], params)
    return _cached(cache, payload, lambda: _spin_row(solve()),
                   fresh=trajectory is not None)


def _run_sweep(args, cache, axis: str, grid: list) -> SweepTable:
    """Every method at each (axis value, ModelParams) of grid."""
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if m == "cdyn" and args.theta_rad <= 0:
            raise ConfigError("cdyn requires theta > 0")
    table = SweepTable(columns=(axis, "method", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args))
    for val, params in grid:
        for m in methods:
            table.append(val, m, *_cell(args, cache, m, params))
    return table


def _run_sweep_temperature(args, cache) -> SweepTable:
    q = _coupling_q(args)
    return _run_sweep(args, cache, "t_half", [
        (t, _model_params(args, q, beta_from_t_half(t, args.omega_l)))
        for t in parse_grid(args.t_half)])


def _run_sweep_coupling(args, cache) -> SweepTable:
    beta = beta_from_t_half(args.t_half, args.omega_l)
    s0 = spin_length(args.n)
    return _run_sweep(args, cache, "zeta", [
        (z, _model_params(args, alpha_scaling(z, s0, args.omega_l), beta))
        for z in parse_grid(args.zeta_grid)])


def _run_regimes(args, cache) -> SweepTable:
    t_grid = parse_grid(args.t_half)
    model = {"flavor": args.flavor, "n": args.n, "omega_l": args.omega_l,
             "omega_0": args.omega_0, "gamma_w": args.gamma_w,
             "tol": args.regime_tol, "floor": args.floor}
    if args.zeta_grid:
        table = regime_atlas(args.theta_rad, parse_grid(args.zeta_grid),
                             t_grid, **model)
        return _add_echo(table, args)
    table = SweepTable(
        columns=("t_half", "zeta_uw_wk", "zeta_wk_im", "zeta_im_us"),
        metadata=_echo_metadata(args))

    def boundary(t_half, approx):
        payload = {"command": "regimes", "version": __version__,
                   "approx": approx, "theta": args.theta_rad,
                   "t_half": t_half, **model}
        return _cached(cache, payload, lambda: find_boundary(
            t_half, args.theta_rad, approx, **model))

    for t_half in t_grid:
        table.append(t_half, boundary(t_half, "UW"), boundary(t_half, "WK"),
                     boundary(t_half, "US"))
    return table


def _run_density_map(args, cache) -> SweepTable:
    if args.t_spin <= 0:
        raise ConfigError("--t-spin must be positive (density needs T > 0)")
    if args.zeta is None and args.q is None:
        args.zeta = 1.0
    params = ModelParams(n=args.n, omega_l=args.omega_l, theta=args.theta_rad,
                         bath=BareQBath(_coupling_q(args)),
                         beta=beta_from_t_spin(args.t_spin, args.n, args.omega_l))
    # tau = exp(lw) / Z in log space: at low temperature both overflow
    log_z = cmf_expectations(params).log_z
    table = SweepTable(columns=("v_theta", "phi", "tau_mf"),
                       metadata=_echo_metadata(args))
    for v in np.linspace(0.0, math.pi, args.v_count):
        for phi in np.linspace(0.0, 2.0 * math.pi, args.phi_count):
            lw = cmf_logweight(SphericalPoint(float(v), float(phi)), params)
            table.append(float(v), float(phi), math.exp(lw - log_z))
    return table


def _run_dynamics(args, cache) -> SweepTable:
    # theta = 0 fails in the first cell's simulate_steady, before any step
    q = _coupling_q(args)
    table = SweepTable(columns=("t_half", "sz", "sx", "sz_err", "sx_err"),
                       metadata=_echo_metadata(args))
    for i, t_half in enumerate(parse_grid(args.t_half)):
        params = _model_params(args, q, beta_from_t_half(t_half, args.omega_l))
        traj = args.trajectory_file if i == 0 else None
        table.append(t_half, *_cell(args, cache, "cdyn", params, traj))
    return table


def _run_correspondence(args, cache) -> SweepTable:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers")
    t_grid = parse_grid(args.t_spin)
    if min(t_grid) < 0:
        raise ConfigError(f"--t-spin must be nonnegative, got {args.t_spin!r}")
    # beta' = beta S0 = 1/(t_spin omega_l): beta at n = 2 (S0 = 1); 0 is T = 0
    beta_prime = [beta_from_t_spin(t, 2, args.omega_l) for t in t_grid]
    table = correspondence_sweep(args.alpha, args.theta_rad, beta_prime,
                                 n_list=n_list, method=args.method,
                                 omega_l=args.omega_l, omega_0=args.omega_0,
                                 gamma_w=args.gamma_w)
    return _add_echo(table, args)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    t_start = time.time()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config:
                # argv[0] is the subcommand (the top-level parser has no other
                # argument); argparse converts and checks the file's flags,
                # and the command line's, which follow them, win
                args = parser.parse_args(
                    [argv[0], *read_config_file(args.config), *argv[1:]])
        except SystemExit as exc:
            return int(exc.code or 0)

        args.theta_rad = parse_angle(args.theta)
        # density-map and correspondence have no cache flags: they compute
        # every cell
        cache = ResultCache(None if getattr(args, "no_cache", True)
                            else default_cache_dir(args.cache_dir))
        # both files are opened, not truncated, before any cell is computed
        # and written whole once every cell has succeeded (the trajectory
        # dump waits in memory); a failed run removes each file it created
        # and leaves the others as they were
        paths = {what: path for what, path in (
            ("output", args.output),
            ("trajectory", getattr(args, "trajectory", None))) if path}
        created = [p for p in paths.values() if not os.path.lexists(p)]
        try:
            for what, path in paths.items():
                try:
                    open(path, "a").close()
                except OSError as exc:
                    raise ConfigError(f"cannot open {what} file: {exc}")
            dump = io.StringIO() if "trajectory" in paths else None
            args.trajectory_file = dump
            table = args.run(args, cache)
            # wall time and cache stats go to stderr so identical runs
            # produce byte-identical CSV
            print("wall time %.3f s, cache hits %d, misses %d"
                  % (time.time() - t_start, cache.hits, cache.misses),
                  file=sys.stderr)
            texts = {"output": table.to_csv(),
                     "trajectory": dump.getvalue() if dump else ""}
            # opened again by path rather than truncated through a kept
            # handle: truncate() fails on /dev/null
            for what, path in paths.items():
                with open(path, "w", newline="") as fh:
                    fh.write(texts[what])
            if "output" not in paths:
                sys.stdout.write(texts["output"])
        except BaseException:
            for path in created:
                if os.path.lexists(path):
                    os.remove(path)
            raise
        finally:
            cache.close()
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
