"""Equilibrium mean-force states of the angled spin-boson model.

Classical and quantum mean-force expectation values from ultraweak to
ultrastrong coupling, a reaction-coordinate exact solver, closed-form
weak-coupling and ultrastrong limits, regime classification, and a
classical Langevin dynamics cross-check.
"""

__version__ = "0.3.7"

from .model import (
    BareQBath,
    LorentzianBath,
    ModelParams,
    alpha_scaling,
    beta_from_t_half,
    beta_from_t_spin,
    lorentzian_q,
    spin_length,
    t_half_from_beta,
    t_spin_from_beta,
    zeta,
)
from .results import SpinExpectation, SweepTable
from .classical import (
    ClassicalMoments,
    QuadratureNotConverged,
    cl_gibbs_stats,
    cmf_expectations,
    cmf_logweight,
    cmf_sample,
    cmf_wk_expectations,
)
from .qspin import QuGibbsStats, qu_gibbs_stats, s_theta, spin_moments, sz_ladder, thermal_state
from .qweak import BathIntegrals, bath_a, bath_combos, qmf_wk_expectations, qmf_wk_state
from .qrc import RcNotConverged, RcParams, RcResult, rc_expectations, rc_hamiltonian, rc_mf_state, rc_params
from .limits import correspondence_sweep, mll_bare_ratio, us_expectations, us_quantum_state
from .regimes import RegimePoint, approx_error, classify_point, find_boundary, regime_atlas
from .dynamics import SimConfig, simulate_steady
