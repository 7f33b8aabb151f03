"""Command-line interface: parsing, sweeps, caching, and exit codes."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import meanforce.cli as cli
from meanforce.cache import ResultCache, canonical_key
from meanforce.classical import QuadratureNotConverged
from meanforce.cli import ConfigError, parse_angle, parse_grid, run
from meanforce.qrc import RcNotConverged
from meanforce.regimes import BoundaryNotFound
from meanforce.solvers import SOLVERS


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_angle():
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("3pi/2") == pytest.approx(1.5 * math.pi)
    assert parse_angle("0.7853") == pytest.approx(0.7853)
    with pytest.raises(ConfigError):
        parse_angle("quarter-turn")


def test_parse_grid():
    assert parse_grid("1:3:3") == [1.0, 2.0, 3.0]
    assert parse_grid("2.5") == [2.5]
    assert parse_grid("0:9:1") == [0.0]
    log = parse_grid("log:0.1:10:3")
    assert log == pytest.approx([0.1, 1.0, 10.0])
    with pytest.raises(ConfigError):
        parse_grid("1:2")
    with pytest.raises(ConfigError):
        parse_grid("log:-1:10:3")
    with pytest.raises(ConfigError):
        parse_grid("1:10:0")
    for spec in ("nan", "0:inf:3", "log:0.1:nan:2"):
        with pytest.raises(ConfigError, match="finite"):
            parse_grid(spec)


# ---------------------------------------------------------------------------
# cache behavior


def test_canonical_key_stability():
    a = canonical_key({"b": 1, "a": 2.5})
    b = canonical_key({"a": 2.5, "b": 1})
    assert a == b
    assert canonical_key({"a": 2.5, "b": 2}) != a


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get("k") is None
    cache.put("k", [1.0, 2.0])
    assert cache.get("k") == [1.0, 2.0]
    # a fresh instance reloads from disk
    again = ResultCache(str(tmp_path))
    assert again.get("k") == [1.0, 2.0]
    assert again.hit_rate == 1.0


def test_cache_disabled_mode():
    cache = ResultCache(None)
    cache.put("k", 1)
    # in-memory only: still readable this run, nothing on disk
    assert cache.get("k") == 1


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "results.jsonl"
    good = json.dumps({"key": "good", "value": 3})
    path.write_text("not json at all\n" + good + "\n")
    with caplog.at_level("WARNING"):
        cache = ResultCache(str(tmp_path))
    assert cache.get("good") == 3
    assert any("corrupt" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# end-to-end commands


def sweep_args(tmp_path, out="out.csv", extra=()):
    return ["sweep-temperature", "--methods", "cgibbs,cmf",
            "--zeta", "1", "--t-half", "0.5:4:8",
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / out), *extra]


def test_sweep_temperature_contract(tmp_path):
    assert run(sweep_args(tmp_path)) == 0
    text = (tmp_path / "out.csv").read_text()
    lines = text.strip().split("\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "t_half,method,sz,sx,sz_err,sx_err"
    assert len(data) == 1 + 8 * 2  # header + grid x methods
    assert any("command = sweep-temperature" in ln for ln in meta)
    assert any("version =" in ln for ln in meta)
    # cgibbs rows carry sx = 0 exactly
    row = data[1].split(",")
    assert row[1] == "cgibbs" and float(row[3]) == 0.0


def test_cache_byte_identity_and_hits(tmp_path, capsys):
    assert run(sweep_args(tmp_path, out="a.csv")) == 0
    first_err = capsys.readouterr().err
    assert "misses 16" in first_err
    assert run(sweep_args(tmp_path, out="b.csv")) == 0
    second_err = capsys.readouterr().err
    assert "hits 16" in second_err and "misses 0" in second_err
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_version_bump_invalidates_cache(tmp_path, capsys, monkeypatch):
    assert run(sweep_args(tmp_path)) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "__version__", "999.0.0")
    assert run(sweep_args(tmp_path)) == 0
    assert "hits 0" in capsys.readouterr().err


def test_tolerance_change_invalidates_cache(tmp_path, capsys):
    assert run(sweep_args(tmp_path)) == 0
    capsys.readouterr()
    assert run(sweep_args(tmp_path, extra=("--tol", "1e-8"))) == 0
    assert "hits 0" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "methods = cgibbs\n"
        "zeta = 1  # overridden below\n"
        "t-half = 1:2:2\n"
    )
    out = tmp_path / "c.csv"
    assert run(["sweep-temperature", "--config", str(cfg), "--no-cache",
                "--zeta", "3", "--output", str(out)]) == 0
    text = out.read_text()
    assert "# zeta = 3.0" in text
    assert text.count("cgibbs") >= 2


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("zeta_maximal = 3\n")
    assert run(["sweep-temperature", "--config", str(cfg)]) == 2


def test_missing_coupling_is_config_error(tmp_path):
    assert run(["sweep-temperature", "--methods", "cmf", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2


def test_unknown_method_is_config_error(tmp_path):
    assert run(["sweep-temperature", "--methods", "cmf,magic", "--zeta", "1",
                "--no-cache", "--output", str(tmp_path / "x.csv")]) == 2


def test_dynamics_rejects_theta_zero(tmp_path):
    assert run(["dynamics", "--theta", "0", "--zeta", "1", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep-temperature", "--zeta", "1", "--t-half", "nan",
     "--methods", "cgibbs,qgibbs,cmf-us,qmf-us"],
    ["sweep-coupling", "--zeta-grid", "nan"],
    ["sweep-temperature", "--q", "inf", "--t-half", "1"],
    ["regimes", "--t-half", "nan"],
    ["correspondence", "--t-spin", "nan"],
    ["density-map", "--t-spin", "nan"],
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, argv):
    # rejected with a message, before any solve or cache key
    assert run([*argv, "--no-cache", "--output", str(tmp_path / "x.csv")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_cdyn_cell_equals_dynamics_row(tmp_path):
    # both commands build their simulation settings from the same defaults
    # (a narrow, slow bath keeps the default 220 time units cheap)
    common = ["--zeta", "1", "--omega-0", "1", "--gamma-w", "1",
              "--seed", "4", "--no-cache"]
    assert run(["sweep-temperature", "--methods", "cdyn", "--t-half", "1",
                *common, "--output", str(tmp_path / "s.csv")]) == 0
    assert run(["dynamics", "--t-half", "1", *common,
                "--output", str(tmp_path / "d.csv")]) == 0
    sweep_row = (tmp_path / "s.csv").read_text().strip().split("\n")[-1]
    dyn_row = (tmp_path / "d.csv").read_text().strip().split("\n")[-1]
    assert sweep_row.split(",")[2:] == dyn_row.split(",")[1:]
    assert sweep_row.split(",")[1] == "cdyn"


def test_density_map_runs(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["density-map", "--theta", "pi/4", "--alpha", "1",
                "--t-spin", "1", "--v-count", "7", "--phi-count", "9",
                "--no-cache", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    assert lines[0] == "v_theta,phi,tau_mf"
    assert len(lines) == 1 + 7 * 9
    dens = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert min(dens) > 0.0


def test_density_map_is_normalised(tmp_path):
    # the sphere average of tau_mf is 1: this checks z_part, which the
    # density map divides by; the trapezoid rule is good to about 4e-5 here
    out = tmp_path / "d.csv"
    assert run(["density-map", "--theta", "pi/4", "--alpha", "1",
                "--t-spin", "1", "--v-count", "181", "--phi-count", "361",
                "--no-cache", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    v = data[::361, 0]
    phi = data[:361, 1]
    tau = data[:, 2].reshape(181, 361)
    ring = trapezoid(tau, phi, axis=1)
    total = trapezoid(ring * np.sin(v), v) / (4.0 * math.pi)
    assert total == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("t_spin", [0.001, 0.0025])
def test_density_map_at_low_temperature(tmp_path, t_spin):
    # exp(lw) and Z both overflow here; their ratio does not
    out = tmp_path / "d.csv"
    assert run(["density-map", "--theta", "pi/4", "--alpha", "1",
                "--t-spin", str(t_spin), "--v-count", "7", "--phi-count", "9",
                "--no-cache", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    dens = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.all(np.isfinite(dens))
    assert dens.max() > 0.0


def test_density_map_rejects_zero_temperature(tmp_path):
    assert run(["density-map", "--theta", "pi/4", "--alpha", "1",
                "--t-spin", "0", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2


def test_sweep_coupling_runs(tmp_path):
    out = tmp_path / "z.csv"
    assert run(["sweep-coupling", "--methods", "cmf-wk,cmf-us",
                "--zeta-grid", "log:0.1:10:3", "--t-half", "1",
                "--no-cache", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    assert lines[0].startswith("zeta,method")
    assert len(lines) == 1 + 3 * 2


def _failing_solver(exc):
    def solver(params):
        raise exc
    return solver


@pytest.mark.parametrize("exc", [QuadratureNotConverged("q"),
                                 RcNotConverged("rc"),
                                 BoundaryNotFound("scan")])
def test_non_convergence_exits_3(tmp_path, monkeypatch, capsys, exc):
    monkeypatch.setitem(SOLVERS, "cgibbs", _failing_solver(exc))
    assert run(sweep_args(tmp_path, extra=("--no-cache",))) == 3
    assert "did not converge" in capsys.readouterr().err


def test_other_errors_propagate(tmp_path, monkeypatch):
    # a programming error is not reported as non-convergence
    monkeypatch.setitem(SOLVERS, "cgibbs",
                        _failing_solver(NotImplementedError("a bug")))
    with pytest.raises(NotImplementedError, match="a bug"):
        run(sweep_args(tmp_path, extra=("--no-cache",)))


def test_correspondence_command(tmp_path):
    out = tmp_path / "corr.csv"
    assert run(["correspondence", "--alpha", "0.06", "--t-spin", "0.5:2:2",
                "--n-list", "1,2", "--no-cache", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    assert lines[0] == "n,beta_prime,sz,sx"
    assert len(lines) == 1 + 3 * 2


def test_correspondence_keeps_the_tables_theta(tmp_path):
    # the library writes theta in radians; the flag's pi/4 does not replace it
    out = tmp_path / "corr.csv"
    assert run(["correspondence", "--theta", "pi/4", "--t-spin", "1",
                "--n-list", "1", "--no-cache", "--output", str(out)]) == 0
    theta = [ln.split("=", 1)[1] for ln in out.read_text().split("\n")
             if ln.startswith("# theta =")]
    assert len(theta) == 1 and float(theta[0]) == math.pi / 4


def test_regime_atlas_has_metadata_header(tmp_path):
    # the atlas CSV carries the command and version lines like every other
    # table, next to the atlas's own metric line
    out = tmp_path / "atlas.csv"
    assert run(["regimes", "--flavor", "classical", "--zeta-grid", "log:0.1:1:2",
                "--t-half", "1", "--no-cache", "--output", str(out)]) == 0
    head = [ln for ln in out.read_text().split("\n") if ln.startswith("#")]
    assert "# command = regimes" in head
    assert f"# version = {cli.__version__}" in head
    assert any(ln.startswith("# metric = ") for ln in head)
