"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the root of the checkout.  Runs every workload at tiny size, once
untraced and once traced, and asserts that every metric BENCHMARK.json
names is emitted with its unit, and that fail_frac is printed.  It checks
names and units only: tiny Langevin runs are too short to pass their
statistical check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            got = result["metrics"]
            for m in wanted[trace]:
                assert m["name"] in got, (wl["name"], trace, m["name"])
                assert got[m["name"]]["unit"] == m["unit"], (wl["name"], m)
                assert isinstance(got[m["name"]]["value"], (int, float))
            assert any(f"{wl['name']} fail_frac = " in ln for ln in lines)
            print(f"ok {wl['name']} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
