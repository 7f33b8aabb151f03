"""The in-house complex digamma and trigamma of the bath integrals, against
mpmath and scipy.special.psi."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import psi

from meanforce.qweak import _polygammas


def _digamma(z):
    """_polygammas' digamma, elementwise over an array."""
    return np.array([_polygammas(complex(v))[0] for v in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))


def _trigamma(z):
    """_polygammas' trigamma, elementwise over an array."""
    return np.array([_polygammas(complex(v))[1] for v in np.ravel(z)],
                    dtype=complex).reshape(np.shape(z))

# the bath shapes, temperatures and frequencies of test_bath_closed_form.py
BATHS = [(7.0, 5.0), (7.0, 0.2), (2.0, 1.0), (1.0, 3.0), (3.0, 10.0)]
BETAS = [0.02, 0.3, 1.0, 2.0, 20.0, 200.0, 2000.0]
OMEGAS = [0.37, -0.37, 1.0, -1.0, 7.0, -7.0, 12.0]


def _grid():
    """Re z on a log grid over [1e-3, 1e4], Im z on log grids over
    +-[1e-4, 1e4] and Im z = 0."""
    re = np.logspace(-3, 4, 36)
    im = np.logspace(-4, 4, 40)
    im = np.concatenate((-im[::-1], [0.0], im))
    return (re[:, None] + 1j * im[None, :]).ravel()


def _closed_form_arguments():
    """The digamma arguments the closed form builds at finite beta: the
    upper poles' -i c p, the lower poles' 1 + i c p and 1 + i c omega, with
    c = beta / 2 pi and the poles +-i Gamma/2 +- delta."""
    zs = []
    for w0, g in BATHS:
        delta = cmath.sqrt((w0 - 0.5 * g) * (w0 + 0.5 * g))
        for beta in BETAS:
            c = beta / (2.0 * math.pi)
            for sign in (1.0, -1.0):
                zs.append(-1j * c * (0.5j * g + sign * delta))
                zs.append(1.0 + 1j * c * (-0.5j * g + sign * delta))
            zs.extend(1.0 + 1j * c * w for w in OMEGAS)
    return np.array(zs)


ARGS = np.concatenate((_grid(), _closed_form_arguments()))


def test_digamma_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    ref = np.array([complex(mp.digamma(mp.mpc(z))) for z in ARGS])
    err = np.abs(_digamma(ARGS) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-14


def test_trigamma_matches_mpmath_on_the_grid():
    mp = pytest.importorskip("mpmath")
    ref = np.array([complex(mp.polygamma(1, mp.mpc(z))) for z in ARGS])
    assert np.max(np.abs(_trigamma(ARGS) - ref) / np.abs(ref)) <= 1e-14


def test_digamma_matches_scipy():
    ref = psi(ARGS)
    err = np.abs(_digamma(ARGS) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-14


def test_digamma_is_elementwise():
    z = ARGS[:12].reshape(3, 4)
    got = _digamma(z)
    assert got.shape == (3, 4)
    assert np.array_equal(got.ravel(), _digamma(z.ravel()))
