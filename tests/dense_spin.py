"""Dense complex spin matrices: the tests' independent reference for the
package's real Sz-basis kernel (meanforce.qspin).  Built here from the
angular-momentum formula, not from meanforce.qspin.sz_ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpinOperators:
    """Dense angular momentum matrices for spin S0 = n/2 (hbar = 1)."""

    dim: int
    sz: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    def s_theta(self, theta: float) -> np.ndarray:
        """Coupling direction operator Sz*cos(theta) - Sx*sin(theta)."""
        return math.cos(theta) * self.sz - math.sin(theta) * self.sx


def spin_operators(n: int) -> SpinOperators:
    """Spin matrices in the Sz eigenbasis ordered m = S0, S0-1, ..., -S0."""
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    s0 = n / 2.0
    m = s0 - np.arange(n + 1)
    sz = np.diag(m).astype(complex)
    # <m+1|S+|m> = sqrt(S0(S0+1) - m(m+1))
    up = np.sqrt(s0 * (s0 + 1.0) - m[1:] * (m[1:] + 1.0))
    sp = np.zeros((n + 1, n + 1), dtype=complex)
    sp[np.arange(n), np.arange(1, n + 1)] = up
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return SpinOperators(dim=n + 1, sz=sz, sx=sx, sy=sy, s_plus=sp, s_minus=sm)
