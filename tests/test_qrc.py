"""Reaction-coordinate mapping and the numerically exact quantum MF state."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from dense_spin import spin_operators
from meanforce import qrc
from meanforce.limits import us_expectations
from meanforce.model import LorentzianBath, ModelParams, beta_from_t_half
from meanforce.qrc import RcNotConverged, rc_expectations, rc_hamiltonian, rc_mf_state
from meanforce.qspin import thermal_state
from meanforce.qweak import qmf_wk_expectations


def make_params(zeta_val=1.0, theta=math.pi / 4, beta=2.0, n=1,
                omega_l=1.0, omega_0=7.0, gamma_w=0.2):
    s0 = n / 2.0
    bath = LorentzianBath.from_q(zeta_val * omega_l / s0, omega_0, gamma_w)
    return ModelParams(n=n, omega_l=omega_l, theta=theta, bath=bath, beta=beta)


def test_rc_parameter_mapping():
    # Omega = omega_0 on the oscillator diagonal and lambda = sqrt(Q omega_0)
    # on the coupling, read off the Hamiltonian at theta = 0, where the
    # coupling is lambda Sz x (a + a^dag)
    p = ModelParams(n=1, omega_l=1.0, theta=0.0, beta=2.0,
                    bath=LorentzianBath.from_q(2.0, omega_0=7.0, gamma_w=0.2))
    h = rc_hamiltonian(p, 3)
    assert np.array_equal(np.diag(h)[:3], -0.5 + 7.0 * np.arange(3))
    assert h[0, 1] == pytest.approx(0.5 * math.sqrt(2.0 * 7.0), rel=1e-14)


def test_rc_params_warns_on_strong_residual_bath():
    # once per solve, when gamma = Gamma/(2 pi omega_0) exceeds 0.05
    for gamma in (0.2 / (2.0 * math.pi * 7.0), 0.0499, 0.0501, 0.1137):
        rc_mf_state.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc_mf_state(make_params(zeta_val=0.4,
                                    gamma_w=2.0 * math.pi * 7.0 * gamma))
        hits = [w for w in caught if "residual-bath" in str(w.message)]
        assert len(hits) == (gamma > 0.05)
        if hits:
            assert hits[0].category is UserWarning
            assert f"gamma_rc = {gamma:.4f} > 0.05" in str(hits[0].message)


def test_rc_needs_two_oscillator_levels():
    p = make_params()
    with pytest.raises(ValueError, match="2 oscillator levels"):
        rc_hamiltonian(p, 1)
    assert rc_hamiltonian(p, 2).shape == (4, 4)


def test_rc_hamiltonian_structure():
    p = make_params(zeta_val=1.0, n=1)
    h = rc_hamiltonian(p, 4)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T, atol=1e-12)
    # zero coupling block-diagonalizes into spin (x) oscillator spectra
    p0 = make_params(zeta_val=0.0)
    h0 = rc_hamiltonian(p0, 4)
    evals = np.sort(np.linalg.eigvalsh(h0))
    expect = np.sort([s * -p0.omega_l + 7.0 * k
                      for s in (0.5, -0.5) for k in range(4)])
    assert np.allclose(evals, expect, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("theta", [0.0, 0.4, math.pi / 4, math.pi / 2])
def test_rc_hamiltonian_matches_dense_kron(n, theta):
    # the ladder assembly is bit-identical to the dense complex operators'
    # real parts: a_j^2 = j(n + 1 - j) is an exact integer in both
    p = make_params(zeta_val=1.3, theta=theta, n=n)
    so = spin_operators(n)
    a = np.diag(np.sqrt(np.arange(1, 8, dtype=float)), k=1)
    lam = math.sqrt(p.q * 7.0)
    ref = (np.kron(-p.omega_l * so.sz.real, np.eye(8))
           + np.kron(np.eye(n + 1), 7.0 * np.diag(np.arange(8.0)))
           + lam * np.kron(so.s_theta(theta).real, a + a.T))
    assert np.array_equal(rc_hamiltonian(p, 8), ref)


def test_rc_dimension_guard():
    p = make_params(n=100)
    with pytest.raises(ValueError, match="dimension"):
        rc_hamiltonian(p, 512)


def test_rc_matches_weak_coupling_at_tiny_zeta():
    p = make_params(zeta_val=0.01, beta=2.0)
    rc = rc_expectations(rc_mf_state(p))
    wk = qmf_wk_expectations(p)
    assert abs(rc.sz - wk.sz) < 5e-4
    assert abs(rc.sx - wk.sx) < 5e-4


def test_rc_zero_coupling_is_bare_gibbs():
    p = make_params(zeta_val=0.0, beta=2.0)
    e = rc_expectations(rc_mf_state(p))
    assert e.sz == pytest.approx(math.tanh(1.0), abs=1e-9)
    assert e.sx == pytest.approx(0.0, abs=1e-9)


def test_rc_transverse_coupling_has_no_cold_coherence_along_x():
    # theta = pi/2 at T = 0: sx averages to zero by the S_x -> -S_x symmetry
    p = make_params(zeta_val=2.0, theta=math.pi / 2, beta=math.inf)
    e = rc_expectations(rc_mf_state(p))
    assert abs(e.sx) < 1e-8


def test_rc_approaches_ultrastrong_limit():
    # beta = 2, Q = 1500 puts log z_mf past the float range
    for zeta_val, beta in ((100.0, math.inf), (750.0, 2.0)):
        p = make_params(zeta_val=zeta_val, beta=beta)
        e = rc_expectations(rc_mf_state(p))
        us = us_expectations(p)
        assert abs(e.sz - us.sz) < 1e-2
        assert abs(e.sx - us.sx) < 1e-2
        assert e.sx < 0.0


def test_rc_state_invariants_and_zmf():
    p = make_params(zeta_val=1.0, beta=1.0)
    res = rc_mf_state(p)
    rho = res.rho
    assert rho.dtype == np.float64
    assert rho.shape == (2, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    assert res.z_mf is not None and res.z_mf > 0.0
    # the mean-force partition function is not reported at T = 0
    assert rc_mf_state(replace(p, beta=math.inf)).z_mf is None


def test_rc_memo_is_bounded_and_returns_the_same_result():
    p = make_params(zeta_val=0.3, beta=1.5)
    first = rc_mf_state(p)
    assert rc_mf_state(p) is first
    assert rc_mf_state.cache_info().maxsize is not None
    assert rc_expectations(first).n_rc_used == first.n_used


def test_rc_memo_result_is_read_only():
    # the memoised state is shared by every caller, so none may change it
    p = make_params(zeta_val=0.5, theta=0.7, beta=2.0)
    before = rc_expectations(rc_mf_state(p))
    with pytest.raises(ValueError):
        rc_mf_state(p).rho[0, 0] += 0.1
    assert rc_expectations(rc_mf_state(p)) == before


def _dense_reference(params, tol=1e-6, n_max=2048):
    """rc_mf_state by the dense route: at each cutoff the full composite
    thermal state, traced over the oscillator; ln Z from a second,
    eigenvalue-only decomposition at the converged cutoff."""
    d_spin = params.n + 1
    beta = params.beta
    so = spin_operators(params.n)
    n_levels = 16
    if beta > 0 and beta * params.bath.omega_0 < 50.0:
        n_bar = 1.0 / math.expm1(beta * params.bath.omega_0)
        while n_levels < 4.0 * n_bar + 10.0 and n_levels < n_max:
            n_levels *= 2
    prev = None
    while n_levels <= n_max:
        h = rc_hamiltonian(params, n_levels)
        rho = thermal_state(h, beta).reshape(
            d_spin, n_levels, d_spin, n_levels).trace(axis1=1, axis2=3)
        sz = float(np.trace(rho @ so.sz).real)
        sx = float(np.trace(rho @ so.sx).real)
        if prev is not None and abs(sz - prev[0]) < tol and abs(sx - prev[1]) < tol:
            z_mf = None
            if not math.isinf(beta):
                log_z_mf = (logsumexp(-beta * np.linalg.eigvalsh(h))
                            - logsumexp(-beta * params.bath.omega_0 * np.arange(n_levels)))
                z_mf = math.exp(log_z_mf) if log_z_mf < 709.0 else math.inf
            return rho, n_levels, z_mf
        prev = (sz, sx)
        n_levels *= 2
    raise AssertionError("dense reference did not converge")


_DENSE_GRID = [
    make_params(zeta_val=2.0, theta=theta, beta=beta, n=n)
    for beta in (0.0, 0.5, 2.0, math.inf)
    for theta in (0.0, math.pi / 4, math.pi / 2)
    for n in (1, 3)
] + [
    # like the benchmark's quantum atlas: cutoff 512, dimension 1024
    make_params(zeta_val=300.0, beta=beta_from_t_half(300.0), gamma_w=0.2),
]


@pytest.mark.parametrize("p", _DENSE_GRID)
def test_rc_state_matches_dense_composite_route(p):
    res = rc_mf_state(p)
    rho, n_used, z_mf = _dense_reference(p)
    assert res.n_used == n_used
    assert np.abs(res.rho - rho).max() <= 1e-12
    if z_mf is None:
        assert res.z_mf is None
    else:
        assert res.z_mf == pytest.approx(z_mf, rel=1e-12, abs=0.0)


def test_rc_not_converged_raises():
    p = make_params(zeta_val=100.0, beta=math.inf)
    with pytest.raises(RcNotConverged):
        rc_mf_state(p, tol=1e-10, n_max=32)


# ---------------------------------------------------------------------------
# the eigendecompositions kept for the last Hamiltonian


def _solve_cold(p):
    """rc_mf_state at p with neither memo holding anything."""
    rc_mf_state.cache_clear()
    qrc._eigh_chain.clear()
    qrc._eigh_key = None
    return rc_mf_state(p)


@pytest.mark.parametrize("n", [1, 3])
def test_rc_memo_hit_is_bitwise_equal_to_a_cold_solve(n):
    betas = (0.0, 0.5, 2.0, 10.0, math.inf)
    cold = [_solve_cold(make_params(zeta_val=2.0, beta=b, n=n)) for b in betas]
    # every beta of the sweep now reads the one Hamiltonian's chain
    rc_mf_state.cache_clear()
    warm = [rc_mf_state(make_params(zeta_val=2.0, beta=b, n=n))
            for b in betas]
    for c, w in zip(cold, warm):
        assert c is not w
        assert w.rho.tobytes() == c.rho.tobytes()
        assert w.n_used == c.n_used
        assert w.z_mf == c.z_mf


def test_rc_temperature_sweep_diagonalises_each_cutoff_once(monkeypatch):
    built = []
    original = qrc.rc_hamiltonian

    def counting(params, n_levels):
        built.append(n_levels)
        return original(params, n_levels)

    monkeypatch.setattr(qrc, "rc_hamiltonian", counting)
    _solve_cold(make_params(zeta_val=0.7, beta=math.inf))
    for t_half in np.linspace(0.0, 4.0, 41):
        beta = beta_from_t_half(float(t_half)) if t_half > 0 else math.inf
        rc_mf_state(make_params(zeta_val=0.7, beta=beta))
    assert len(built) > 1
    assert len(built) == len(set(built))


def test_rc_memo_arrays_are_read_only():
    _solve_cold(make_params(zeta_val=1.0, beta=1.0))
    assert qrc._eigh_chain
    for evals, vecs in qrc._eigh_chain.values():
        for a in (evals, vecs):
            with pytest.raises(ValueError):
                a[0] += 1.0


@pytest.mark.parametrize("change", [
    {"zeta_val": 5.0}, {"theta": 0.3}, {"omega_0": 6.0},
    # at the first solve's Q
    {"omega_l": 2.0, "zeta_val": 0.5}, {"n": 2, "zeta_val": 2.0},
])
def test_rc_memo_holds_only_the_last_hamiltonians_chain(change):
    # a solve after one whose Hamiltonian differs in one parameter
    _solve_cold(make_params(zeta_val=1.0, beta=1.0))
    p = make_params(**{"zeta_val": 1.0, "beta": 1.0, **change})
    res = rc_mf_state(p)
    assert max(qrc._eigh_chain) == res.n_used
    for n_levels, (evals, vecs) in qrc._eigh_chain.items():
        h = rc_hamiltonian(p, n_levels)
        assert np.array_equal(vecs, np.linalg.eigh(h)[1])
