"""Regime classification, the error metric, and boundary location."""

import math

import pytest

from meanforce.model import LorentzianBath, ModelParams
from meanforce.regimes import (
    CLASSIFY_FLOOR,
    FLAVORS,
    approx_error,
    classify_point,
    find_boundary,
    regime_atlas,
)
from meanforce.results import SpinExpectation
from meanforce.solvers import SOLVERS


def test_approx_error_metric():
    a = SpinExpectation(sz=0.5, sx=-0.1)
    assert approx_error(a, a) == 0.0
    b = SpinExpectation(sz=0.5, sx=-0.1004)
    assert approx_error(a, b) == pytest.approx(0.004, rel=1e-12)
    # floor denominator engages when a component sits at zero
    zero = SpinExpectation(sz=0.0, sx=0.0)
    off = SpinExpectation(sz=0.001, sx=0.0)
    assert approx_error(zero, off) == pytest.approx(0.01, rel=1e-12)
    # the absolute-difference variant used by the classifier
    assert approx_error(zero, off, floor=1.0) == pytest.approx(0.001, rel=1e-12)


def make_params(zeta_val, t_half, theta=math.pi / 4, n=1):
    s0 = n / 2.0
    bath = LorentzianBath.from_q(zeta_val / s0, 7.0, 0.2)
    beta = math.inf if t_half == 0 else 2.0 / t_half
    return ModelParams(n=n, omega_l=1.0, theta=theta, bath=bath, beta=beta)


def test_classify_labels_follow_coupling():
    # classical flavor keeps the exact backend cheap
    assert classify_point(make_params(1e-3, 1.0), flavor="classical").label == "UW"
    assert classify_point(make_params(0.15, 1.0), flavor="classical").label == "WK"
    assert classify_point(make_params(1.0, 1.0), flavor="classical").label == "IM"
    assert classify_point(make_params(300.0, 1.0), flavor="classical").label == "US"


def test_classify_point_record_fields():
    pt = classify_point(make_params(0.5, 1.0), flavor="classical")
    assert pt.zeta == pytest.approx(0.5)
    assert pt.t_half == pytest.approx(1.0)
    assert pt.backend == "cmf" and pt.n_rc_used == 0
    assert pt.err_uw > pt.err_wk
    with pytest.raises(ValueError):
        classify_point(make_params(0.5, 1.0), flavor="semiclassical")


def test_classical_wk_boundary_cold():
    z = find_boundary(0.0, math.pi / 4, "WK", flavor="classical")
    assert z == pytest.approx(0.0903, rel=0.03)


def test_boundary_monotone_in_temperature_classical():
    z1 = find_boundary(1.0, math.pi / 4, "WK", flavor="classical",
                       scan_lo=0.01, scan_hi=10.0)
    z4 = find_boundary(4.0, math.pi / 4, "WK", flavor="classical",
                       scan_lo=0.01, scan_hi=10.0)
    assert z4 > z1


def test_boundary_rejects_missing_crossing():
    with pytest.raises(RuntimeError, match="no WK boundary"):
        find_boundary(0.0, math.pi / 4, "WK", flavor="classical",
                      scan_lo=1e-3, scan_hi=1e-2)
    with pytest.raises(ValueError):
        find_boundary(0.0, math.pi / 4, "XX", flavor="classical")
    with pytest.raises(ValueError):
        find_boundary(0.0, math.pi / 4, "WK", flavor="quantun")


def test_atlas_classical():
    table = regime_atlas(math.pi / 4, [1e-3, 1.0, 300.0], [0.5, 2.0],
                         flavor="classical")
    assert table.columns == ("zeta", "t_half", "err_uw", "err_wk", "err_us",
                             "label", "n_rc_used", "backend")
    assert len(table.rows) == 6
    labels = {row[0]: row[5] for row in table.rows}
    assert labels[1e-3] == "UW"
    assert labels[300.0] == "US"
    assert "metric" in table.metadata
    assert str(CLASSIFY_FLOOR) in table.metadata["metric"]


def test_atlas_records_cell_failures_in_row():
    # n large enough that the quantum RC composite dimension guard trips
    table = regime_atlas(math.pi / 4, [1.0], [1.0], flavor="quantum", n=1300)
    assert len(table.rows) == 1
    assert table.rows[0][5].startswith("ERR:")


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_flavor_solvers_at_edge_values(flavor):
    exact, gibbs, wk, _ = FLAVORS[flavor]

    def solve(zeta_val, beta, theta=math.pi / 4):
        p = ModelParams(n=1, omega_l=1.0, theta=theta,
                        bath=LorentzianBath.from_q(2.0 * zeta_val, 7.0, 0.2),
                        beta=beta)
        return {m: SOLVERS[m](p) for m in FLAVORS[flavor]}

    for m, e in solve(1.0, 0.0).items():
        assert abs(e.sz) <= 1e-12 and abs(e.sx) <= 1e-12, m
    for m, e in solve(1.0, 2.0, theta=0.0).items():
        assert abs(e.sx) <= 1e-12, m
    for beta in (2.0, math.inf, 0.0):
        out = solve(0.0, beta)
        for m in (exact, wk):
            assert out[m].sz == pytest.approx(out[gibbs].sz, abs=1e-12), (m, beta)
            assert out[m].sx == pytest.approx(out[gibbs].sx, abs=1e-12), (m, beta)
    for m, e in solve(1.0, math.inf, theta=math.pi / 2).items():
        assert math.isfinite(e.sz) and math.isfinite(e.sx), m
