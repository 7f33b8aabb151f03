"""Reference values per workload and the check of one repetition's outputs.

Tolerances are the solvers' own:
- cmf: 1e-10, the quadrature tolerance, at T > 0.  At T = 0 cmf_expectations
  minimises the energy directly, which locates the minimum only to about
  sqrt(machine eps); the check uses 1e-7 there.
- closed forms (cgibbs, qgibbs, cmf-wk, cmf-us, qmf-us): 1e-10.
- qmf-wk: 1e-6, the reaction-coordinate tolerance the regime labels rely on.
- qmf-rc: rc_mf_state's 1e-6 on <Sz> and <Sx>, i.e. 1e-6/S0 on the
  normalised values the CSV holds.
- boundaries: the 2% bisection precision of find_boundary.
- Langevin: within 3 sigma and 0.02 of the classical mean-force state, as
  in the acceptance test; the pooled ensemble-64 item gets the 3-sigma
  test only, since its sigma is larger than 0.02/3 at this run length.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracle as O
from workloads import GAMMA_W, METHODS_T, METHODS_Z, OMEGA_0

OMEGA_L, N_SPIN = 1.0, 1
S0 = N_SPIN / 2.0
REGIME_GAMMA_W = 0.2    # regimes.DEFAULT_GAMMA_W
REGIME_TOL = 4e-3       # regimes.DEFAULT_TOL
RC_TOL = 1e-6 / S0
TOL = {"cgibbs": 1e-10, "qgibbs": 1e-10, "cmf": 1e-10, "cmf-wk": 1e-10,
       "cmf-us": 1e-10, "qmf-us": 1e-10, "qmf-wk": 1e-6, "qmf-rc": RC_TOL}
CMF_T0_TOL = 1e-7


def _beta(t_half):
    return math.inf if t_half == 0.0 else 2.0 / (t_half * OMEGA_L)


def _method_ref(method, theta, beta, q, gamma_w):
    x = beta * OMEGA_L * S0
    zeta = q * S0 / OMEGA_L
    if method == "cgibbs":
        return O.gibbs_classical(x)
    if method == "qgibbs":
        return O.gibbs_quantum(beta, N_SPIN, OMEGA_L)[0]
    if method == "cmf":
        return O.cmf(theta, beta, OMEGA_L, S0, q)
    if method == "cmf-wk":
        return O.cmf_weak(theta, x, zeta)
    if method in ("cmf-us", "qmf-us"):
        return O.ultrastrong(theta, x)
    a_lor = 2.0 * q * OMEGA_0**2
    if method == "qmf-wk":
        return O.qmf_weak(theta, beta, OMEGA_L, N_SPIN, a_lor, OMEGA_0, gamma_w)
    if method == "qmf-rc":
        return O.rc_exact(theta, beta, OMEGA_L, N_SPIN, q, OMEGA_0)[:2]
    raise ValueError(method)


def _sweep_cells(inp):
    """[(csv index, axis value, method, beta, q)] in CSV row order."""
    lo, hi, count = inp["t_grid"]
    t_vals = list(np.linspace(lo, hi, count))
    zlo, zhi, zcount = inp["zeta_grid"]
    z_vals = list(np.geomspace(zlo, zhi, zcount))
    q_t = inp["zeta"] * OMEGA_L / S0
    cells = [(0, t, m, _beta(t), q_t) for t in t_vals
             for m in METHODS_T.split(",")]
    cells += [(1, z, m, _beta(inp["t_half"]), z * OMEGA_L / S0)
              for z in z_vals for m in METHODS_Z.split(",")]
    return cells


def references(workload: str, inp: dict) -> dict:
    theta = inp["theta"]
    if workload == "sweep":
        return {"cells": [
            (k, v, m, _method_ref(m, theta, b, q, GAMMA_W))
            for k, v, m, b, q in _sweep_cells(inp)]}
    if workload == "regimes":
        bounds = [_boundary(theta, a, lo, hi) for a, lo, hi in inp["boundaries"]]
        atlas = [_atlas_cell(theta, z, t)
                 for z in inp["atlas_zeta"] for t in inp["atlas_t"]]
        return {"boundaries": bounds, "atlas": atlas}
    if workload == "langevin":
        return {"items": [O.cmf(theta, _beta(it["t_half"]), OMEGA_L, S0,
                                it["q"]) for it in inp["items"]]}
    raise ValueError(workload)


def _err(exact, approx, floor=1.0):
    return max(abs(approx[0] - exact[0]) / max(abs(exact[0]), floor),
               abs(approx[1] - exact[1]) / max(abs(exact[1]), floor))


def _boundary(theta, approx, lo, hi, precision=0.02):
    """First crossing of the T = 0 classical error through the tolerance,
    by the same log scan (12 per decade) and bisection as find_boundary."""
    approximation = {
        "UW": lambda z: (1.0, 0.0),
        "WK": lambda z: O.cmf_weak(theta, math.inf, z),
        "US": lambda z: O.ultrastrong(theta, math.inf),
    }[approx]

    def f(z):
        return _err(O.cmf_zero_temperature(theta, z), approximation(z)) \
            - REGIME_TOL

    grid = np.geomspace(lo, hi, int(round(12 * math.log10(hi / lo))) + 1)
    prev_z, prev_e = grid[0], f(grid[0])
    for z in grid[1:]:
        e = f(z)
        if prev_e == 0.0 or prev_e * e < 0:
            break
        prev_z, prev_e = z, e
    else:
        return None
    a, b = prev_z, z
    fa = f(a)
    while b / a > 1.0 + precision:
        mid = math.sqrt(a * b)
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return math.sqrt(a * b)


def _atlas_cell(theta, zeta, t_half):
    beta = _beta(t_half)
    q = zeta * OMEGA_L / S0
    sz, sx, n_used = O.rc_exact(theta, beta, OMEGA_L, N_SPIN, q, OMEGA_0)
    exact = (sz, sx)
    uw = O.gibbs_quantum(beta, N_SPIN, OMEGA_L)[0]
    wk = O.qmf_weak(theta, beta, OMEGA_L, N_SPIN, 2.0 * q * OMEGA_0**2,
                    OMEGA_0, REGIME_GAMMA_W)
    us = O.ultrastrong(theta, beta * OMEGA_L * S0)
    errs = [_err(exact, a) for a in (uw, wk, us)]
    label = "IM"
    for name, e in zip(("UW", "WK", "US"), errs):
        if e < REGIME_TOL:
            label = name
            break
    ambiguous = any(abs(e - REGIME_TOL) < RC_TOL for e in errs)
    return {"zeta": zeta, "t_half": t_half, "errs": errs, "label": label,
            "ambiguous": ambiguous, "n_used": n_used}


# ---------------------------------------------------------------------------
# checking one repetition


def _check_csv(text, cells, failures, tag):
    """Compare CSV rows with reference cells; returns the number failed."""
    if text is None:
        failures.append(f"{tag}: no CSV written")
        return len(cells)
    rows = [r for r in csv.reader(io.StringIO(text))
            if r and not r[0].startswith("#")][1:]
    if len(rows) != len(cells):
        failures.append(f"{tag}: {len(rows)} rows, expected {len(cells)}")
        return len(cells)
    failed = 0
    for row, (_, v, m, ref) in zip(rows, cells):
        try:
            val, meth, sz, sx = float(row[0]), row[1], float(row[2]), float(row[3])
        except (ValueError, IndexError):
            failures.append(f"{tag}: malformed row {row}")
            failed += 1
            continue
        tol = CMF_T0_TOL if (m == "cmf" and v == 0.0) else TOL[m]
        dev = max(abs(sz - ref[0]), abs(sx - ref[1]))
        if meth != m or abs(val - v) > 1e-11 * max(1.0, abs(v)) or not dev <= tol:
            failures.append(f"{tag}: {m} at {v:.6g}: deviation {dev:.3e} "
                            f"> {tol:.0e} (got {sz!r}, {sx!r}; "
                            f"reference {ref[0]!r}, {ref[1]!r})")
            failed += 1
    return failed


def check(workload: str, inp: dict, refs: dict, out: dict):
    """Returns (attempted, failed, failure messages) for one repetition."""
    failures = []
    if workload == "sweep":
        # out["csv"], out["codes"]: temperature and coupling of the fresh
        # pass, then of the rerun against the cache the fresh pass filled
        cells = refs["cells"]
        failed = 0
        for k in (0, 1):
            tag = ("temperature", "coupling")[k]
            mine = [c for c in cells if c[0] == k]
            if out["codes"][k] != 0:
                failures.append(f"{tag}: exit code {out['codes'][k]}")
                failed += len(mine)
                continue
            failed += _check_csv(out["csv"][k], mine, failures, tag)
        # the rerun must reproduce the fresh CSVs byte for byte
        for k in (2, 3):
            tag = ("temperature", "coupling")[k - 2]
            code, same = out["codes"][k], out["csv"][k] == out["csv"][k - 2]
            if code != 0 or not same:
                failures.append(f"{tag} rerun: exit code {code}, "
                                f"CSV identical: {same}")
                failed += 1
        return len(cells) + 2, failed, failures
    if workload == "regimes":
        failed = 0
        for (approx, lo, hi), z, zr in zip(inp["boundaries"],
                                           out["boundaries"],
                                           refs["boundaries"]):
            ok = isinstance(z, float) and zr is not None and \
                max(z / zr, zr / z) <= 1.02 + 1e-12
            if not ok:
                failures.append(f"boundary {approx} [{lo}, {hi}]: {z!r}, "
                                f"reference {zr!r}")
                failed += 1
        for row, ref in zip(out["atlas"], refs["atlas"]):
            zeta, t_half, e_uw, e_wk, e_us, label, n_used, _ = row
            bad = []
            if str(label).startswith("ERR"):
                bad.append(label)
            else:
                dev = max(abs(a - b) for a, b in
                          zip((e_uw, e_wk, e_us), ref["errs"]))
                if not dev <= RC_TOL:
                    bad.append(f"error metrics off by {dev:.3e}")
                if n_used != ref["n_used"]:
                    bad.append(f"cutoff {n_used} != {ref['n_used']}")
                if label != ref["label"] and not ref["ambiguous"]:
                    bad.append(f"label {label} != {ref['label']}")
            if bad:
                failures.append(f"atlas cell zeta={zeta:.6g} t_half="
                                f"{t_half:.6g}: " + "; ".join(bad))
                failed += 1
        attempted = len(inp["boundaries"]) + len(refs["atlas"])
        return attempted, failed, failures
    if workload == "langevin":
        failed = 0
        for it, calls, ref in zip(inp["items"], out["items"], refs["items"]):
            tag = f"q={it['q']} t_half={it['t_half']} ensemble={it['ensemble']}"
            errs = [c for c in calls if isinstance(c, str)]
            if errs:
                failures.append(f"{tag}: {errs[0]}")
                failed += 1
                continue
            a = np.array(calls)
            k = len(calls)
            est = a[:, :2].mean(axis=0)
            sig = np.sqrt((a[:, 2:] ** 2).sum(axis=0)) / k
            bad = []
            for comp, e, s, r in zip(("sz", "sx"), est, sig, ref):
                dev = abs(e - r)
                if dev > 3.0 * s + 1e-12 or (k == 1 and dev > 0.02):
                    bad.append(f"{comp} {e:.5f} vs {r:.5f} "
                               f"(deviation {dev:.2e}, sigma {s:.2e})")
            if bad:
                failures.append(f"{tag}: " + "; ".join(bad))
                failed += 1
        return len(inp["items"]), failed, failures
    raise ValueError(workload)
