"""Spans recorded from outside the package, and the per-layer metrics.

install() wraps public meanforce functions at every site that holds them:
the modules bind names with `from .x import y`, so each module attribute
that is the original function object is replaced by the same wrapper.
A span is [name, start, end, parent index, attrs]; spans stay in memory
until the run ends.  Self time is a span's duration minus the durations of
its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4]["error"] = 1
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if attrs is not None:
                rec[4].update(attrs(args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cmf_attrs(a, k, out):
    return {"t0": math.isinf(_arg(a, k, 0, "params").beta),
            "quad_err": float(out.quad_err)}


def _matrix_attrs(a, k, out):
    h = _arg(a, k, 0, "h")
    return {"dim": int(h.shape[0]), "complex": bool(np.iscomplexobj(h))}


def _sim_attrs(a, k, out):
    cfg = _arg(a, k, 1, "cfg")
    # step count as simulate_steady derives it from the config
    steps = max(1, int(round(cfg.t_burn / cfg.dt))) + \
        max(1, int(round(cfg.t_sample / cfg.dt)))
    return {"ensemble": int(cfg.ensemble), "steps": steps}


# (module, attribute, span name, attrs); a dotted attribute is a method
TARGETS = [
    ("meanforce.cli", "run", "cli.run", None),
    ("meanforce.cache", "ResultCache.__init__", "cache.load", None),
    ("meanforce.cache", "ResultCache.get", "cache.get",
     lambda a, k, out: {"hit": out is not None}),
    ("meanforce.cache", "ResultCache.put", "cache.put", None),
    ("meanforce.results", "SweepTable.to_csv", "results.to_csv",
     lambda a, k, out: {"bytes": len(out) if isinstance(out, str) else 0}),
    ("meanforce.classical", "cmf_expectations", "classical.cmf", _cmf_attrs),
    ("meanforce.qweak", "bath_a", "qweak.bath_a", None),
    ("meanforce.qweak", "qmf_wk_expectations", "qweak.qmf_wk", None),
    ("meanforce.qrc", "rc_mf_state", "qrc.rc",
     lambda a, k, out: {"n_used": int(out.n_used)}),
    ("meanforce.qrc", "rc_hamiltonian", "qrc.hamiltonian",
     lambda a, k, out: {"dim": int(out.shape[0])}),
    ("meanforce.qspin", "thermal_state", "qspin.thermal_state", _matrix_attrs),
    ("meanforce.limits", "us_expectations", "limits.us", None),
    ("meanforce.regimes", "find_boundary", "regimes.find_boundary", None),
    ("meanforce.regimes", "regime_atlas", "regimes.regime_atlas", None),
    ("meanforce.dynamics", "simulate_steady", "dynamics.simulate", _sim_attrs),
]


def install(tracer: Tracer) -> None:
    """Wrap every target at every meanforce module that binds it."""
    import meanforce  # noqa: F401  (loads every submodule)

    mods = [m for n, m in list(sys.modules.items())
            if n == "meanforce" or n.startswith("meanforce.")]
    for mod_name, attr, span, attrs in TARGETS:
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), attrs))
            continue
        orig = getattr(owner, attr)
        wrapper = tracer.wrap(span, orig, attrs)
        for m in mods:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics from a span list


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced run."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            kids[s[3]].append(i)
    self_t = [d - c for d, c in zip(dur, child)]

    def idx(name, pred=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (pred is None or pred(s))]

    def total(ix, which=dur):
        return float(sum(which[i] for i in ix))

    def ms(ix):
        return [dur[i] * 1e3 for i in ix]

    m = {}
    bath = idx("qweak.bath_a")
    wk = idx("qweak.qmf_wk")
    m["qweak.bath_a_calls"] = (len(bath), "count")
    m["qweak.bath_a_s"] = (total(bath), "s")
    m["qweak.bath_a_ms_p50"] = (_pct(ms(bath), 50), "ms")
    m["qweak.bath_a_ms_p90"] = (_pct(ms(bath), 90), "ms")
    m["qweak.qmf_wk_calls"] = (len(wk), "count")
    m["qweak.qmf_wk_self_s"] = (total(wk, self_t), "s")

    cmf = idx("classical.cmf", lambda s: not s[4].get("t0"))
    cmf0 = idx("classical.cmf", lambda s: s[4].get("t0"))
    m["classical.cmf_calls"] = (len(cmf), "count")
    m["classical.cmf_s"] = (total(cmf), "s")
    m["classical.cmf_ms_p50"] = (_pct(ms(cmf), 50), "ms")
    m["classical.cmf_ms_p90"] = (_pct(ms(cmf), 90), "ms")
    m["classical.quad_err_max"] = (
        max((spans[i][4].get("quad_err", 0.0) for i in cmf), default=0.0),
        "abs")
    m["classical.cmf_t0_calls"] = (len(cmf0), "count")
    m["classical.cmf_t0_s"] = (total(cmf0), "s")

    rc = idx("qrc.rc")
    ham = idx("qrc.hamiltonian")
    built = [i for i in rc
             if any(spans[j][0] == "qrc.hamiltonian" for j in kids[i])]
    solved = [i for i in built if not spans[i][4].get("error")]
    therm = idx("qspin.thermal_state")
    m["qrc.rc_calls"] = (len(rc), "count")
    m["qrc.rc_s"] = (total(rc), "s")
    m["qrc.rc_ms_p50"] = (_pct(ms(rc), 50), "ms")
    m["qrc.rc_ms_p90"] = (_pct(ms(rc), 90), "ms")
    m["qrc.hamiltonians"] = (len(ham), "count")
    m["qrc.memo_hits"] = (len(rc) - len(built), "count")
    # base: rc_mf_state calls that diagonalised and converged, over
    # rc_hamiltonian calls
    m["qrc.useful_ratio"] = (len(solved) / len(ham) if ham else 0.0, "ratio")
    m["qrc.n_used_max"] = (max((spans[i][4].get("n_used", 0) for i in rc),
                               default=0), "levels")
    m["qrc.dim_max"] = (max((spans[i][4]["dim"] for i in ham), default=0),
                        "dim")
    # computed, not measured: 9 n^3 real flops per dense symmetric eigh
    # with vectors, four times that in complex arithmetic
    m["qrc.eigh_gflop"] = (sum(
        (36.0 if spans[i][4]["complex"] else 9.0) * spans[i][4]["dim"] ** 3
        for i in therm if spans[i][3] in rc) / 1e9, "GFLOP")
    m["qspin.thermal_state_calls"] = (len(therm), "count")
    m["qspin.thermal_state_s"] = (total(therm), "s")

    sim = idx("dynamics.simulate")
    steps = [spans[i][4]["ensemble"] * spans[i][4]["steps"] for i in sim]

    def ns_per_step(large):
        v = [dur[i] * 1e9 / n for i, n in zip(sim, steps)
             if (spans[i][4]["ensemble"] >= 1024) == large]
        return float(np.median(v)) if v else 0.0

    m["dynamics.simulate_calls"] = (len(sim), "count")
    m["dynamics.traj_steps"] = (sum(steps), "count")
    m["dynamics.ns_per_traj_step.large"] = (ns_per_step(True), "ns")
    m["dynamics.ns_per_traj_step.small"] = (ns_per_step(False), "ns")

    fb = idx("regimes.find_boundary")
    atlas = idx("regimes.regime_atlas")
    exact = {"qrc.rc", "classical.cmf"}
    fb_solves = sum(1 for i in fb for j in kids[i] if spans[j][0] in exact)
    at_solves = sum(1 for i in atlas for j in kids[i] if spans[j][0] in exact)
    m["regimes.boundary_calls"] = (len(fb), "count")
    m["regimes.exact_solves"] = (fb_solves + at_solves, "count")
    m["regimes.solves_per_boundary"] = (fb_solves / len(fb) if fb else 0.0,
                                        "ratio")
    m["regimes.self_s"] = (total(fb + atlas, self_t), "s")

    m["limits.us_s"] = (total(idx("limits.us")), "s")

    gets = idx("cache.get")
    hits = [i for i in gets if spans[i][4].get("hit")]
    m["cache.load_s"] = (total(idx("cache.load")), "s")
    m["cache.get_calls"] = (len(gets), "count")
    m["cache.put_calls"] = (len(idx("cache.put")), "count")
    m["cache.hit_ratio"] = (len(hits) / len(gets) if gets else 0.0, "ratio")
    m["cache.get_s"] = (total(gets), "s")
    m["cache.put_s"] = (total(idx("cache.put")), "s")
    csv = idx("results.to_csv")
    m["results.to_csv_s"] = (total(csv), "s")
    m["results.csv_bytes"] = (sum(spans[i][4].get("bytes", 0) for i in csv),
                              "bytes")
    run = idx("cli.run")
    m["cli.run_calls"] = (len(run), "count")
    m["cli.self_s"] = (total(run, self_t), "s")
    m["trace.spans"] = (len(spans), "count")
    return m
