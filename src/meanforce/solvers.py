"""One table from method name to solver.

Every entry maps a ModelParams record to a SpinExpectation.  Entries call
the solvers through this module's globals at call time, so a wrapper
installed on a module attribute (a profiler, say) sees every call.
"""

from __future__ import annotations

from .classical import cl_gibbs_stats, cmf_expectations, cmf_wk_expectations, us_expectations
from .model import ModelParams
from .qrc import rc_expectations, rc_mf_state
from .qspin import qu_gibbs_stats
from .qweak import qmf_wk_expectations
from .results import SpinExpectation

__all__ = ["SOLVERS"]


def _cgibbs(p: ModelParams) -> SpinExpectation:
    m = cl_gibbs_stats(p.beta * p.omega_l * p.s0)
    return SpinExpectation(sz=m.sz, sx=0.0)


def _qgibbs(p: ModelParams) -> SpinExpectation:
    return SpinExpectation(sz=qu_gibbs_stats(p.beta, p.n, p.omega_l) / p.s0,
                           sx=0.0)


def _cmf(p: ModelParams) -> SpinExpectation:
    m = cmf_expectations(p)
    return SpinExpectation(sz=m.sz, sx=m.sx, sz_err=m.quad_err,
                           sx_err=m.quad_err)


SOLVERS = {
    "cgibbs": _cgibbs,
    "qgibbs": _qgibbs,
    "cmf": _cmf,
    "cmf-wk": lambda p: cmf_wk_expectations(p),
    "cmf-us": lambda p: us_expectations(p),
    "qmf-wk": lambda p: qmf_wk_expectations(p),
    "qmf-rc": lambda p: rc_expectations(rc_mf_state(p)),
    "qmf-us": lambda p: us_expectations(p),
}
