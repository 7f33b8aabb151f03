"""Command-line interface: parsing, sweeps, caching, and exit codes."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


def test_angle_over_zero_is_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="pi/0"):
        parse_angle("pi/0")
    assert run(sweep_args(tmp_path, extra=("--no-cache", "--theta", "pi/0"))) == 2
    assert "'pi/0'" in capsys.readouterr().err


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
    with ResultCache(str(tmp_path)) as cache:
        assert cache.get("k") is None
        cache.put("k", [1.0, 2.0])
        assert cache.get("k") == [1.0, 2.0]
    # a fresh instance reloads from disk
    again = ResultCache(str(tmp_path))
    assert again.get("k") == [1.0, 2.0]
    assert (again.hits, again.misses) == (1, 0)


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


def test_cache_put_reaches_the_file_before_close(tmp_path):
    # each record is flushed as it is put: a run killed before close keeps it
    with ResultCache(str(tmp_path / "new")) as cache:
        cache.put("a", 1)
        cache.put("b", [2.0])
        assert (tmp_path / "new" / "results.jsonl").read_text() == (
            '{"key": "a", "value": 1}\n{"key": "b", "value": [2.0]}\n')
    cache.close()  # a second close is harmless


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


def test_failed_sweep_keeps_the_cells_it_finished(tmp_path, monkeypatch,
                                                  capsys):
    # the k-th of 16 cells fails: the k - 1 before it are on disk, one whole
    # line each, while the run is still open; a rerun serves them as hits
    k, calls, seen = 5, [], []
    path = tmp_path / "cache" / "results.jsonl"

    def counted(solve):
        def solver(params):
            calls.append(1)
            if len(calls) == k:
                seen.append(path.read_text())
                raise QuadratureNotConverged("cell k")
            return solve(params)
        return solver

    for name in ("cgibbs", "cmf"):
        monkeypatch.setitem(SOLVERS, name, counted(SOLVERS[name]))
    assert run(sweep_args(tmp_path)) == 3
    lines = seen[0].split("\n")
    assert len(lines) == k and lines[-1] == ""
    assert all(set(json.loads(ln)) == {"key", "value"} for ln in lines[:-1])
    assert path.read_text() == seen[0]
    monkeypatch.undo()
    capsys.readouterr()
    assert run(sweep_args(tmp_path)) == 0
    assert f"hits {k - 1}, misses {17 - k}" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [None, QuadratureNotConverged,
                                 NotImplementedError])
def test_run_closes_the_cache_file(tmp_path, monkeypatch, exc):
    # after a run that succeeds, exits 3 or raises, no file is left open; a
    # new exception each time, so that no traceback keeps the run's frame
    def fails(params):
        raise exc("cmf")

    if exc is not None:
        monkeypatch.setitem(SOLVERS, "cmf", fails)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            assert run(sweep_args(tmp_path)) == (0 if exc is None else 3)
        except NotImplementedError:
            pass
        gc.collect()
    assert (tmp_path / "cache" / "results.jsonl").exists()
    assert [w for w in caught if w.category is ResourceWarning] == []


def _dumps_key(payload):
    # canonical_key as written with json.dumps before 0.3.9
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_cache_written_with_json_dumps_is_served_whole(tmp_path, capsys,
                                                       monkeypatch):
    # a results.jsonl whose keys and lines json.dumps wrote (as before 0.3.9)
    # is byte-identical to today's, and a run from it hits every cell
    lines, put = [], ResultCache.put

    def dumps_put(self, key, value):
        lines.append(json.dumps({"key": key, "value": value},
                                sort_keys=True) + "\n")
        put(self, key, value)

    with monkeypatch.context() as m:
        m.setattr(cli, "canonical_key", _dumps_key)
        m.setattr(ResultCache, "put", dumps_put)
        assert run(sweep_args(tmp_path, out="a.csv",
                              extra=("--no-cache",))) == 0
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "results.jsonl").write_text("".join(lines))
    capsys.readouterr()
    assert run(sweep_args(tmp_path, out="b.csv")) == 0
    assert "hits 16, misses 0" in capsys.readouterr().err
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert run([*sweep_args(tmp_path, out="c.csv"),
                "--cache-dir", str(tmp_path / "today")]) == 0
    assert (tmp_path / "today" / "results.jsonl").read_text() == "".join(lines)


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


def test_config_coupling_yields_to_the_alpha_spelling(tmp_path):
    # --alpha is --zeta: the flag replaces the file's zeta, and the CSV,
    # header included, is the flag-only run's
    cfg = tmp_path / "z.conf"
    cfg.write_text("zeta = 1.0\n")
    common = ["sweep-temperature", "--methods", "cmf", "--t-half", "1",
              "--n", "4", "--no-cache"]
    assert run([*common, "--config", str(cfg), "--alpha", "0.25",
                "--output", str(tmp_path / "a.csv")]) == 0
    assert run([*common, "--zeta", "0.25",
                "--output", str(tmp_path / "b.csv")]) == 0
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    assert "# zeta = 0.25" in text and "alpha" not in text


def test_config_coupling_clash_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "z.conf"
    cfg.write_text("zeta = 1.0\n")
    assert run(["sweep-temperature", "--methods", "cmf", "--t-half", "1",
                "--config", str(cfg), "--q", "0.5", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "--q" in err and "--zeta" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value, hits", [("true", 0), ("false", 16)])
def test_config_switch(tmp_path, capsys, value, hits):
    # true sets the switch, false leaves it out
    cfg = tmp_path / "c.conf"
    cfg.write_text(f"no-cache = {value}\n")
    for _ in range(2):
        assert run(sweep_args(tmp_path, extra=("--config", str(cfg)))) == 0
    assert f"hits {hits}," in capsys.readouterr().err.splitlines()[-1]


def _fresh_interpreter_csv(argv, out):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "meanforce.cli", *argv,
                           "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_reused_parser_carries_nothing_between_runs(tmp_path):
    # one process parses with one parser: a config file's values, a switch
    # or a cache setting of one run must not reach the next; each CSV is
    # the one a new interpreter writes
    cfg = tmp_path / "run.conf"
    cfg.write_text("methods = cgibbs,cmf\nn = 3\nt-half = 0:2:3\n")
    cached = ["sweep-temperature", "--methods", "cmf", "--zeta", "0.5",
              "--t-half", "0.5:1:2"]
    runs = [["sweep-temperature", "--config", str(cfg), "--zeta", "2",
             "--no-cache"],
            ["sweep-temperature", "--zeta", "2", "--t-half", "1",
             "--no-cache"],
            [*cached, "--no-cache"],
            [*cached, "--cache-dir", str(tmp_path / "cache")]]
    for i, argv in enumerate(runs):
        assert run([*argv, "--output", str(tmp_path / f"{i}.csv")]) == 0
    assert (tmp_path / "cache" / "results.jsonl").read_text().count("\n") == 2
    for i, argv in enumerate(runs):
        argv = [a.replace(str(tmp_path / "cache"), str(tmp_path / "fresh"))
                for a in argv]
        assert _fresh_interpreter_csv(argv, tmp_path / f"fresh{i}.csv") == \
            (tmp_path / f"{i}.csv").read_bytes()


def test_missing_coupling_is_config_error(tmp_path):
    assert run(["sweep-temperature", "--methods", "cmf", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2


def test_unknown_method_is_config_error(tmp_path):
    assert run(["sweep-temperature", "--methods", "cmf,magic", "--zeta", "1",
                "--no-cache", "--output", str(tmp_path / "x.csv")]) == 2


def test_dynamics_rejects_theta_zero(tmp_path):
    assert run(["dynamics", "--theta", "0", "--zeta", "1", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
def test_dynamics_seed_out_of_range_names_the_flag(tmp_path, capsys, seed):
    # a seed numpy's Philox cannot take is a configuration error of --seed
    assert run(["dynamics", "--zeta", "1", "--t-half", "1", "--ensemble",
                "4", "--t-burn", "1", "--t-sample", "1", "--no-cache",
                "--seed", seed, "--output", str(tmp_path / "x.csv")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sweep-temperature", "--zeta", "1", "--t-half", "nan",
     "--methods", "cgibbs,qgibbs,cmf-us,qmf-us", "--no-cache"],
    ["sweep-coupling", "--zeta-grid", "nan", "--no-cache"],
    ["sweep-temperature", "--q", "inf", "--t-half", "1", "--no-cache"],
    ["regimes", "--t-half", "nan", "--no-cache"],
    ["correspondence", "--t-spin", "nan"],
    ["density-map", "--t-spin", "nan"],
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, argv):
    # rejected with a message, before any solve or cache key
    assert run([*argv, "--output", str(tmp_path / "x.csv")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("omega_l", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["sweep-temperature", "--methods", "cgibbs", "--zeta", "1",
     "--t-half", "1", "--no-cache"],
    ["regimes", "--flavor", "classical", "--zeta-grid", "1", "--t-half", "1",
     "--no-cache"],
    ["correspondence", "--t-spin", "1", "--n-list", "1"],
])
def test_nonpositive_omega_l_is_config_error(tmp_path, capsys, argv, omega_l):
    assert run([*argv, "--omega-l", omega_l,
                "--output", str(tmp_path / "x.csv")]) == 2
    assert "omega_l must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--zeta", "--alpha", "--q"])
@pytest.mark.parametrize("argv", [
    ["sweep-coupling", "--methods", "cgibbs", "--zeta-grid", "0.5:1:2"],
    ["regimes", "--flavor", "classical", "--zeta-grid", "0.5:1:2",
     "--t-half", "1"],
])
def test_grid_commands_take_no_fixed_coupling(tmp_path, capsys, argv, flag):
    # their cells take Q from each --zeta-grid value (or a scan), so a fixed
    # coupling would only be echoed into the header
    assert run([*argv, flag, "5", "--no-cache",
                "--output", str(tmp_path / "x.csv")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


_SMALL_RUNS = {
    "density-map": ["density-map", "--t-spin", "1", "--v-count", "3",
                    "--phi-count", "3"],
    "correspondence": ["correspondence", "--t-spin", "1", "--n-list", "1"],
    "regimes": ["regimes", "--flavor", "classical", "--zeta-grid", "1",
                "--t-half", "1"],
}


@pytest.mark.parametrize("command, flag", [
    # the classical state reads the bath only through Q
    *[("density-map", f) for f in ("--seed", "--tol", "--cache-dir",
                                   "--no-cache", "--omega-0", "--gamma-w")],
    # the library computes every cell, with no seed or tolerance
    *[("correspondence", f) for f in ("--seed", "--tol", "--cache-dir",
                                      "--no-cache")],
    # the boundary cache key reads --regime-tol
    ("regimes", "--seed"), ("regimes", "--tol"),
])
def test_commands_take_no_flag_they_do_not_read(tmp_path, monkeypatch, capsys,
                                                command, flag):
    monkeypatch.chdir(tmp_path)
    value = [] if flag == "--no-cache" else ["1"]
    assert run([*_SMALL_RUNS[command], flag, *value,
                "--output", "x.csv"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sweep-temperature", "--methods", "cgibbs", "--zeta", "1", "--t-half", "1",
     "--no-cache"],
    ["sweep-coupling", "--methods", "cgibbs", "--zeta-grid", "1", "--no-cache"],
    ["regimes", "--flavor", "classical", "--t-half", "1", "--no-cache"],
    _SMALL_RUNS["regimes"],
    _SMALL_RUNS["density-map"],
    ["dynamics", "--zeta", "1", "--t-half", "1", "--omega-0", "1",
     "--gamma-w", "1", "--t-burn", "1", "--t-sample", "2", "--ensemble", "4",
     "--no-cache"],
    _SMALL_RUNS["correspondence"],
], ids=["sweep-temperature", "sweep-coupling", "regimes", "regimes-atlas",
        "density-map", "dynamics", "correspondence"])
def test_headers_echo_values_not_functions(tmp_path, argv):
    # the command's function rides on the parsed arguments; its repr holds
    # an address, which would make reruns differ
    out = tmp_path / "x.csv"
    assert run([*argv, "--output", str(out)]) == 0
    head = [ln for ln in out.read_text().split("\n") if ln.startswith("#")]
    assert f"# command = {argv[0]}" in head
    assert not any("<function" in ln or " at 0x" in ln for ln in head)


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
                "--output", str(out)]) == 0
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
                "--output", str(out)]) == 0
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
                "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    dens = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert np.all(np.isfinite(dens))
    assert dens.max() > 0.0


def test_density_map_rejects_zero_temperature(tmp_path):
    assert run(["density-map", "--theta", "pi/4", "--alpha", "1",
                "--t-spin", "0", "--output", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flag", ["--v-count", "--phi-count"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_density_map_counts_below_one_exit_2(tmp_path, capsys, flag, value):
    # 0 gave a table with no rows, and -3 numpy's message naming no flag
    assert run(["density-map", "--t-spin", "1", flag, value,
                "--output", str(tmp_path / "x.csv")]) == 2
    assert f"{flag}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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
                "--n-list", "1,2", "--output", str(out)]) == 0
    lines = [ln for ln in out.read_text().strip().split("\n")
             if not ln.startswith("#")]
    assert lines[0] == "n,beta_prime,sz,sx"
    assert len(lines) == 1 + 3 * 2


def _correspondence_rows(tmp_path, t_spin):
    out = tmp_path / "corr.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["correspondence", "--t-spin", t_spin, "--n-list", "1,2",
                    "--output", str(out)]) == 0
    return [ln for ln in out.read_text().split("\n")[:-1]
            if not ln.startswith("#")][1:]


def test_correspondence_t_spin_zero_is_zero_temperature(tmp_path):
    # beta' = inf, with no division by zero; a grid from 0 gives the same rows
    rows = _correspondence_rows(tmp_path, "0")
    assert [r.split(",")[:2] for r in rows] == [["0", "inf"], ["1", "inf"],
                                                ["2", "inf"]]
    grid = _correspondence_rows(tmp_path, "0:1:3")
    assert [r for r in grid if ",inf," in r] == rows


@pytest.mark.parametrize("t_spin", ["-1", "-1:1:3"])
def test_correspondence_rejects_negative_t_spin(tmp_path, capsys, t_spin):
    assert run(["correspondence", f"--t-spin={t_spin}", "--n-list", "1"]) == 2
    assert "--t-spin must be nonnegative" in capsys.readouterr().err


def test_correspondence_t_spin_reads_omega_l(tmp_path):
    # t_spin = kB T/(S0 omega_l): at n = 1, omega_l = 2, t_spin = 1 is
    # t_half = 1, and the WK row is sweep-temperature's qmf-wk cell
    out = tmp_path / "x.csv"
    assert run(["correspondence", "--t-spin", "1", "--n-list", "1",
                "--omega-l", "2", "--output", str(out)]) == 0
    corr = [ln for ln in out.read_text().split("\n") if ln.startswith("1,")]
    assert run(["sweep-temperature", "--methods", "qmf-wk", "--zeta", "0.06",
                "--omega-l", "2", "--t-half", "1", "--no-cache",
                "--output", str(out)]) == 0
    sweep = out.read_text().split("\n")[-2]
    assert corr == ["1,0.5," + sweep.split(",", 2)[2].rsplit(",", 2)[0]]
    assert corr == ["1,0.5,0.754133554529,-0.0102878339499"]


def test_correspondence_keeps_the_tables_theta(tmp_path):
    # the library writes theta in radians; the flag's pi/4 does not replace it
    out = tmp_path / "corr.csv"
    assert run(["correspondence", "--theta", "pi/4", "--t-spin", "1",
                "--n-list", "1", "--output", str(out)]) == 0
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


def test_unwritable_output_exits_2_before_any_cell(tmp_path, monkeypatch,
                                                    capsys):
    # the path is opened before the first cell is computed, and the error
    # names it
    monkeypatch.setitem(SOLVERS, "cgibbs",
                        _failing_solver(AssertionError("cell computed")))
    out = tmp_path / "missing" / "x.csv"
    assert run(sweep_args(tmp_path, out=out, extra=("--no-cache",))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open output file") and str(out) in err
    assert not out.parent.exists()


def test_output_file_holds_the_stdout_bytes(tmp_path, capsys):
    argv = sweep_args(tmp_path, extra=("--no-cache",))
    assert run([*argv[:-3], *argv[-1:]]) == 0  # without --output
    stdout = capsys.readouterr().out
    assert run(argv) == 0
    assert (tmp_path / "out.csv").read_bytes() == stdout.encode()


@pytest.mark.parametrize("n_list", ["0", "1,0", "-2"])
def test_correspondence_rejects_spin_sizes_below_one(tmp_path, capsys,
                                                     n_list):
    assert run(["correspondence", "--t-spin", "1", "--n-list", n_list,
                "--output", str(tmp_path / "x.csv")]) == 2
    assert "n must be >= 1" in capsys.readouterr().err
    # a failed run leaves no output file behind
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag", ["--regime-tol", "--floor"])
@pytest.mark.parametrize("value", ["0", "-0.5"])
@pytest.mark.parametrize("extra", [(), ("--zeta-grid", "log:0.1:1:2")],
                         ids=["boundaries", "atlas"])
def test_regimes_reject_nonpositive_tolerance_and_floor(tmp_path, capsys,
                                                        flag, value, extra):
    # no scan of the window and no ERR rows: the value is refused first
    assert run(["regimes", "--flavor", "classical", "--t-half", "0",
                "--no-cache", flag, value, *extra,
                "--output", str(tmp_path / "x.csv")]) == 2
    name = "tol" if flag == "--regime-tol" else "floor"
    assert f"{name} must be positive" in capsys.readouterr().err


# a three-cell Langevin run on a narrow, slow bath
_DYNAMICS = ["dynamics", "--zeta", "1", "--t-half", "0.5:2:3", "--omega-0",
             "1", "--gamma-w", "1", "--t-burn", "1", "--t-sample", "2",
             "--ensemble", "4"]


def test_unwritable_trajectory_exits_2_before_any_step(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(cli, "simulate_steady",
                        _failing_solver(AssertionError("step taken")))
    out, traj = tmp_path / "x.csv", tmp_path / "missing" / "t.csv"
    assert run([*_DYNAMICS, "--no-cache", "--trajectory", str(traj),
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open trajectory file") and \
        str(traj) in err
    # the output file opened before it is removed again
    assert list(tmp_path.iterdir()) == []


def test_warm_cache_rewrites_the_trajectory(tmp_path, capsys):
    # the cache holds the cell's numbers, not the dump, so the cell that
    # writes the trajectory is computed again and counts as a miss
    argv = [*_DYNAMICS, "--cache-dir", str(tmp_path / "cache"),
            "--trajectory", str(tmp_path / "t.csv"),
            "--output", str(tmp_path / "x.csv")]
    assert run(argv) == 0
    assert "hits 0, misses 3" in capsys.readouterr().err
    cold = [(tmp_path / f).read_bytes() for f in ("t.csv", "x.csv")]
    for f in ("t.csv", "x.csv"):
        (tmp_path / f).unlink()
    assert run(argv) == 0
    assert "hits 2, misses 1" in capsys.readouterr().err
    assert [(tmp_path / f).read_bytes() for f in ("t.csv", "x.csv")] == cold
    assert cold[0].startswith(b"t,sx,sy,sz,X,P\n") and cold[0].count(b"\n") > 2


def test_failed_run_keeps_the_contents_of_an_output_file(tmp_path):
    # theta = 0 fails in the first cell: the file that was there is left
    # as it was, not emptied
    kept = tmp_path / "keep.csv"
    kept.write_text("precious\n")
    assert run(["dynamics", "--zeta", "1", "--t-half", "1", "--theta", "0",
                "--no-cache", "-o", str(kept)]) == 2
    assert kept.read_text() == "precious\n"


def test_failed_run_keeps_the_contents_of_a_trajectory_file(tmp_path):
    # a time step past the rate bound fails in the first cell
    kept = tmp_path / "t.csv"
    kept.write_text("precious\n")
    assert run([*_DYNAMICS, "--no-cache", "--dt", "1",
                "--trajectory", str(kept)]) == 2
    assert kept.read_text() == "precious\n"


@pytest.mark.parametrize("failing", ["theta 0", "second cell"])
def test_failed_dynamics_removes_the_files_it_created(tmp_path, monkeypatch,
                                                      failing):
    # a run that fails after opening its files removes those it made, and
    # leaves one that was there before
    argv = [*_DYNAMICS, "--no-cache"]
    if failing == "theta 0":
        argv += ["--theta", "0"]
    else:
        simulate, calls = cli.simulate_steady, []

        def fails_second(*args, **kwargs):
            if calls:
                raise ValueError("second cell")
            calls.append(1)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_steady", fails_second)
    kept = tmp_path / "kept.csv"
    kept.write_text("before\n")
    assert run([*argv, "--trajectory", str(tmp_path / "t.csv"),
                "--output", str(tmp_path / "x.csv")]) == 2
    assert run([*argv, "--trajectory", str(kept),
                "--output", str(tmp_path / "x.csv")]) == 2
    assert list(tmp_path.iterdir()) == [kept]
