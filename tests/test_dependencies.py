"""numpy is the package's only run-time dependency: no scipy module is
imported, and the command line works where scipy cannot be imported."""

import os
import subprocess
import sys
from pathlib import Path

import meanforce

SRC = str(Path(meanforce.__file__).resolve().parent.parent)

METHODS = "cgibbs,qgibbs,cmf,cmf-wk,cmf-us,qmf-wk,qmf-rc,qmf-us"


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy():
    out = _python(
        "import sys\n"
        "import meanforce.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_scipy():
    # sys.modules["scipy"] = None makes every scipy import raise
    commands = [
        # every method at T = 0, the Langevin one included
        ["sweep-temperature", "--methods", METHODS + ",cdyn", "--zeta", "1",
         "--t-half", "0"],
        ["sweep-temperature", "--methods", METHODS, "--zeta", "1",
         "--t-half", "0.05:4:3"],
        ["sweep-coupling", "--methods",
         "cmf,cmf-wk,cmf-us,qmf-wk,qmf-rc,qmf-us",
         "--zeta-grid", "log:0.01:100:3", "--t-half", "1"],
    ]
    out = _python(
        "import sys, warnings\n"
        "sys.modules['scipy'] = None\n"
        "warnings.simplefilter('ignore')\n"
        "from meanforce import cli\n"
        f"codes = [cli.run(argv + ['--no-cache']) for argv in {commands!r}]\n"
        "print('exit codes', codes, file=sys.stderr)\n")
    assert out.returncode == 0, out.stderr
    assert "exit codes [0, 0, 0]" in out.stderr
    rows = [ln for ln in out.stdout.splitlines()
            if ln and not ln.startswith(("#", "t_half,", "zeta,"))]
    assert len(rows) == 9 + 3 * 8 + 3 * 6
