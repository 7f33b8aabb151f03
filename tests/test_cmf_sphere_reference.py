"""The bath-coordinate CMF kernel against graded sphere quadrature.

The reference integrates exp(x1 cos v + x2 (s.e_theta)^2) over the sphere
directly: Gauss-Legendre panels in (v, phi), graded geometrically around
the polar angles of the ridge maxima (found by a bounded scalar search)
and refined by halving until orders 12 and 20 agree to 1e-11.  It shares
no formula with the package's 1D integral over the bath coordinate.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize_scalar

from meanforce.classical import cmf_expectations
from meanforce.model import BareQBath, ModelParams

THETAS = [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2]
X1S = [1e-3, 0.1, 1.0, 5.0, 40.0]
X2S = [1e-14, 1e-4, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4]


def _logweight(theta, x1, x2, v, phi):
    st = np.cos(theta) * np.cos(v) - np.sin(theta) * np.sin(v) * np.cos(phi)
    return x1 * np.cos(v) + x2 * st**2


def _polar_peaks(theta, x1, x2):
    """Polar angles maximizing the log-weight along the phi = pi and
    phi = 0 ridges (where the azimuthal maxima always sit), plus the
    poles."""
    peaks = []
    for phi0 in (math.pi, 0.0):
        res = minimize_scalar(
            lambda v: -_logweight(theta, x1, x2, v, phi0),
            bounds=(0.0, math.pi), method="bounded",
            options={"xatol": 1e-12})
        peaks.append(float(res.x))
    return peaks + [0.0, math.pi]


def _graded_breaks(a, b, centers, width, coarse=8):
    """Geometric ladders around each center merged with a uniform coarse
    partition of [a, b]."""
    pts = set(np.linspace(a, b, coarse + 1))
    for c in centers:
        off = width
        while off < (b - a):
            pts.update(x for x in (c - off, c + off) if a < x < b)
            off *= 2.0
        if a < c < b:
            pts.add(c)
    return np.array(sorted(pts))


def _nodes(breaks, order):
    x, w = leggauss(order)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    return ((0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel(),
            (0.5 * (hi - lo) * w).ravel())


def sphere_reference(theta, x1, x2):
    """(Z, sz, sx) by graded 2D quadrature with phi folded onto [0, pi]."""
    width = max(1.0 / math.sqrt(1.0 + x1 + 4.0 * x2), 1e-9)
    peaks = _polar_peaks(theta, x1, x2)
    vb = _graded_breaks(0.0, math.pi, peaks, width)
    pb = _graded_breaks(0.0, math.pi, [0.0, math.pi], width)
    shift = max(float(_logweight(theta, x1, x2, v, p))
                for v in peaks for p in (0.0, math.pi))

    def once(order):
        nv, wv = _nodes(vb, order)
        npp, wp = _nodes(pb, order)
        v, phi = nv[:, None], npp[None, :]
        wgt = (np.exp(_logweight(theta, x1, x2, v, phi) - shift) * np.sin(v)
               * wv[:, None] * wp[None, :])
        z = float(wgt.sum())
        return (z, float(np.sum(wgt * np.cos(v))) / z,
                float(np.sum(wgt * np.sin(v) * np.cos(phi))) / z)

    for _ in range(5):
        a, b = once(12), once(20)
        if max(abs(b[1] - a[1]), abs(b[2] - a[2]), abs(b[0] - a[0]) / b[0]) < 1e-11:
            z = math.exp(shift) * b[0] / (2.0 * math.pi) if shift < 700 else math.inf
            return z, b[1], b[2]
        vb = np.sort(np.concatenate([vb, 0.5 * (vb[:-1] + vb[1:])]))
        pb = np.sort(np.concatenate([pb, 0.5 * (pb[:-1] + pb[1:])]))
    raise RuntimeError("sphere reference not converged")


@pytest.mark.parametrize("theta", THETAS)
def test_cmf_matches_sphere_quadrature(theta):
    for x1 in X1S:
        for x2 in X2S:
            # n = 1, omega_l = 1: x1 = beta/2, x2 = beta*Q/4
            beta = 2.0 * x1
            p = ModelParams(n=1, omega_l=1.0, theta=theta,
                            bath=BareQBath(q=4.0 * x2 / beta), beta=beta)
            m = cmf_expectations(p)
            z, sz, sx = sphere_reference(theta, x1, x2)
            case = f"x1={x1}, x2={x2}"
            assert m.sz == pytest.approx(sz, abs=1e-10), case
            assert m.sx == pytest.approx(sx, abs=1e-10), case
            if math.isinf(z):
                assert math.isinf(m.z_part), case
            else:
                assert m.z_part == pytest.approx(z, rel=1e-10), case
