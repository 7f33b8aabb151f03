"""Workload inputs (made from the seed) and the fixed work of one repetition.

make_inputs runs in the parent process (run.py) and needs only numpy.  setup and
work run in a fresh child process (child.py) with meanforce importable;
they call only meanforce's public functions, the command line through
meanforce.cli.run.  Functions are looked up on their modules at call time,
so the traced run's wrappers (tracing.py) see every call.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("sweep", "regimes", "langevin")

METHODS_T = "cgibbs,qgibbs,cmf,cmf-wk,cmf-us,qmf-wk,qmf-rc,qmf-us"
METHODS_Z = "cmf,cmf-wk,cmf-us,qmf-wk,qmf-rc,qmf-us"

# command-line defaults of the Lorentzian bath, used by every workload's
# sweeps and Langevin runs (regimes uses its own narrower default width)
OMEGA_0, GAMMA_W = 7.0, 5.0

# Langevin settings shared by every item: the step of the acceptance test,
# and burn-in/sampling long enough for a 3-sigma check at ensemble 4096
LANGEVIN_DT = 0.007
LANGEVIN_STRIDE = 4

# sweep runs its two commands into an empty cache, then once more, as a
# user re-running a figure script does: the second pass is served from the
# cache the first one filled
SWEEP_PASSES = ("fresh", "rerun")


def _jitter(rng, rel):
    return 1.0 + rng.uniform(-rel, rel)


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """JSON-serialisable inputs of one workload; the same seed gives the
    same inputs.  The seed moves theta and the grids by a few percent and
    picks the Langevin noise seed, which leaves the amount of work nearly
    unchanged."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    theta = math.pi / 4 + rng.uniform(-0.02, 0.02)
    if workload == "sweep":
        t_count, z_count = (3, 3) if tiny else (41, 25)
        return {
            "theta": theta,
            "zeta": 1.0 * _jitter(rng, 0.02),
            "t_grid": [0.0, 4.0 * _jitter(rng, 0.01), t_count],
            "t_half": 1.0 * _jitter(rng, 0.02),
            "zeta_grid": [0.01 * _jitter(rng, 0.02),
                          100.0 * _jitter(rng, 0.02), z_count],
        }
    if workload == "regimes":
        # T = 0 classical boundaries in windows like the acceptance tests;
        # a quantum atlas at high temperature, where the reaction-coordinate
        # cutoff reaches 512 levels (dimension 1024)
        t_atlas = (3.0 if tiny else 300.0) * _jitter(rng, 0.01)
        bounds = [["US", 20.0, 200.0]] if tiny else \
            [["WK", 0.02, 0.5], ["US", 20.0, 200.0]]
        return {
            "theta": theta,
            "boundaries": bounds,
            "atlas_t": [t_atlas],
            # the cutoff converges at 256 levels for the first cell and at
            # 512 for the second
            "atlas_zeta": [0.3 * t_atlas] if tiny else
            [0.1 * t_atlas, 1.0 * t_atlas],
        }
    if workload == "langevin":
        scale = 0.05 if tiny else 1.0
        large = 256 if tiny else 4096
        noise = int(rng.integers(0, 2**31))
        items = [
            # (q, t_half, ensemble, seeds): large ensembles, one call each
            {"q": 2.0, "t_half": 1.0, "ensemble": large, "seeds": [noise]},
            {"q": 14.0, "t_half": 0.5, "ensemble": large, "seeds": [noise + 1]},
            # the command line's default ensemble of 64, where per-call
            # overhead dominates; eight calls pooled into one estimate
            {"q": 2.0, "t_half": 2.0, "ensemble": 64,
             "seeds": [noise + 2 + k for k in range(2 if tiny else 8)]},
        ]
        return {"theta": theta, "t_burn": 4.0 * scale,
                "t_sample": 16.0 * scale, "items": items}
    raise ValueError(f"unknown workload {workload!r}")


def _grid_spec(lo, hi, count, log=False):
    return ("log:" if log else "") + f"{lo!r}:{hi!r}:{count}"


def sweep_argvs(inp: dict, cache_dir: str, out_dir: str, tag: str):
    """The two README-style sweeps: every deterministic method against
    temperature (T = 0 included), the coupled methods against zeta."""
    theta = repr(inp["theta"])
    return [
        ["sweep-temperature", "--methods", METHODS_T,
         "--zeta", repr(inp["zeta"]), "--t-half", _grid_spec(*inp["t_grid"]),
         "--theta", theta, "--cache-dir", cache_dir,
         "-o", os.path.join(out_dir, f"{tag}-temperature.csv")],
        ["sweep-coupling", "--methods", METHODS_Z,
         "--zeta-grid", _grid_spec(*inp["zeta_grid"], log=True),
         "--t-half", repr(inp["t_half"]),
         "--theta", theta, "--cache-dir", cache_dir,
         "-o", os.path.join(out_dir, f"{tag}-coupling.csv")],
    ]


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# child side: set-up, then the timed fixed work, then collecting outputs


def setup(workload: str, inp: dict, workdir: str) -> dict:
    """Work before the timed region: every repetition gets a fresh, empty
    cache directory."""
    return {"cache": os.path.join(workdir, "cache")}


def _cli(argv):
    """Exit code of one command; an exception escaping the CLI is recorded
    as its text, which the check counts as a failure."""
    import meanforce.cli as cli
    try:
        return cli.run(argv)
    except Exception as exc:  # counted as failed items
        return f"{type(exc).__name__}: {exc}"


def work(workload: str, inp: dict, workdir: str, state: dict) -> dict:
    """The fixed work of one repetition; returns raw results."""
    import meanforce.dynamics as dynamics
    import meanforce.model as model
    import meanforce.regimes as regimes

    if workload == "sweep":
        return {"codes": [_cli(a) for tag in SWEEP_PASSES for a in
                          sweep_argvs(inp, state["cache"], workdir, tag)]}
    if workload == "regimes":
        out = {"boundaries": [], "atlas": None}
        for approx, lo, hi in inp["boundaries"]:
            try:
                z = regimes.find_boundary(0.0, inp["theta"], approx,
                                          flavor="classical",
                                          scan_lo=lo, scan_hi=hi)
                out["boundaries"].append(z)
            except Exception as exc:  # counted as a failed item
                out["boundaries"].append(f"{type(exc).__name__}: {exc}")
        table = regimes.regime_atlas(inp["theta"], inp["atlas_zeta"],
                                     inp["atlas_t"], flavor="quantum")
        out["atlas"] = [list(r) for r in table.rows]
        return out
    if workload == "langevin":
        res = []
        for it in inp["items"]:
            bath = model.LorentzianBath.from_q(it["q"], OMEGA_0, GAMMA_W)
            p = model.ModelParams(n=1, omega_l=1.0, theta=inp["theta"],
                                  bath=bath,
                                  beta=model.beta_from_t_half(it["t_half"]))
            calls = []
            for s in it["seeds"]:
                cfg = dynamics.SimConfig(dt=LANGEVIN_DT, t_burn=inp["t_burn"],
                                         t_sample=inp["t_sample"],
                                         stride=LANGEVIN_STRIDE, seed=s,
                                         ensemble=it["ensemble"])
                try:
                    e = dynamics.simulate_steady(p, cfg)
                    calls.append([e.sz, e.sx, e.sz_err, e.sx_err])
                except Exception as exc:  # counted as a failed item
                    calls.append(f"{type(exc).__name__}: {exc}")
            res.append(calls)
        return {"items": res}
    raise ValueError(workload)


def collect(workload: str, inp: dict, workdir: str, state: dict,
            raw: dict) -> dict:
    """Outputs for checking, gathered after the timed region."""
    if workload == "sweep":
        raw["csv"] = [_read(a[-1]) for tag in SWEEP_PASSES for a in
                      sweep_argvs(inp, state["cache"], workdir, tag)]
    return raw
