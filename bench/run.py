"""The meanforce benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Makes the workload's inputs from
the seed, computes reference values (checks.py, oracle.py), then runs
repetitions of the workload's fixed work one after another, each in a
fresh Python process (child.py), until --seconds have passed.  Each
repetition imports meanforce from ./src, so every run pays the cold cost a
user pays on every command.  Prints the end-to-end metrics (--trace 0) or
the per-layer metrics from a traced run (--trace 1) as the last line of
standard output, as one JSON object, and keeps a full record, environment
stamp included, under .bench_results/.

--workload all runs every workload in turn and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# one BLAS thread on both sides of every comparison: steadier on a shared
# two-core host, and cpu_s / wall_s then exposes any parallelism the
# program adds itself
BLAS_THREADS = "1"
MIN_REPS = 3
CHILD_TIMEOUT_S = 170


def env_stamp(root: str, seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable (not a git checkout)"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def run_child(root, workload, inputs, trace, workdir):
    """One repetition in a fresh process; returns its record."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("MEANFORCE_CACHE_DIR", None)
    job = json.dumps({"workload": workload, "inputs": inputs,
                      "workdir": workdir, "trace": trace})
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                          input=job, capture_output=True, text=True,
                          cwd=root, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("t_ready") - t_spawn
    if trace:
        with open(os.path.join(workdir, "spans.json")) as fh:
            rec["layers"] = tracing.layer_metrics(json.load(fh))
    return rec


def measure(root, workload, seed, seconds, trace, tiny=False, log=print):
    inputs = workloads.make_inputs(workload, seed, tiny)
    refs = checks.references(workload, inputs)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-",
                                     dir=os.path.join(root, ".bench_work")) \
            as run_dir:
        return _measure(root, run_dir, workload, inputs, refs, seconds,
                        trace, log)


def _measure(root, run_dir, workload, inputs, refs, seconds, trace, log):
    attempted, failed, failures = 0, 0, []
    # traced runs alternate untraced and traced repetitions, so the tracing
    # overhead is measured under the same conditions
    plan = [False, True] if trace else [False]
    reps = []
    start = time.monotonic()
    while True:
        traced = plan[len(reps) % len(plan)]
        workdir = os.path.join(run_dir, f"rep{len(reps)}")
        os.mkdir(workdir)
        t0 = time.monotonic()
        rec = run_child(root, workload, inputs, traced, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        rec["traced"] = traced
        rec["rep_s"] = time.monotonic() - t0
        a, f, msgs = checks.check(workload, inputs, refs, rec.pop("outputs"))
        attempted, failed = attempted + a, failed + f
        failures += [f"rep {len(reps)}: {m}" for m in msgs]
        reps.append(rec)
        log(f"# rep {len(reps) - 1}{' traced' if traced else ''}: "
            f"wall {rec['wall_s']:.4f} s, cpu {rec['cpu_s']:.4f} s, "
            f"setup {rec['setup_s']:.4f} s, rss {rec['peak_rss_mb']:.1f} MB, "
            f"items {a}, failed {f}")
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS * len(plan) and len(reps) % len(plan) == 0 \
                and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return inputs, reps, attempted, failed, failures


def end_to_end(reps, attempted, failed):
    plain = [r for r in reps if not r["traced"]]

    def med(key):
        return statistics.median(r[key] for r in plain)

    return {"wall_s": (med("wall_s"), "s"), "cpu_s": (med("cpu_s"), "s"),
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            "fail_frac": (failed / attempted, "ratio")}


def per_layer(reps):
    """Per-layer metrics: counts from the first traced repetition (they
    repeat exactly; a mismatch is printed), times as medians."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    runs = [r["layers"] for r in traced]
    out = {}
    for name, (value, unit) in runs[0].items():
        if unit in ("s", "ms", "ns"):
            value = statistics.median(m[name][0] for m in runs)
        elif any(m[name][0] != value for m in runs):
            print(f"# WARNING {name} differs between traced repetitions: "
                  f"{[m[name][0] for m in runs]}")
        out[name] = (value, unit)
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def run_one(root, workload, seed, seconds, trace, tiny):
    stamp = env_stamp(root, seed)
    print("# env " + json.dumps(stamp, sort_keys=True))
    inputs, reps, attempted, failed, failures = measure(
        root, workload, seed, seconds, trace, tiny)
    e2e = end_to_end(reps, attempted, failed)
    metrics = per_layer(reps) if trace else {
        k: v for k, v in e2e.items() if k != "fail_frac"}
    for name, (value, unit) in sorted({**e2e, **metrics}.items()):
        print(f"# {workload} {name} = {value!r} {unit}")
    for msg in failures:
        print(f"# FAILED {msg}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": stamp, "inputs": inputs,
              "attempted": attempted, "failed": failed, "failures": failures,
              "end_to_end": e2e, "metrics": metrics,
              "reps": reps}
    res_dir = os.path.join(root, ".bench_results")
    os.makedirs(res_dir, exist_ok=True)
    path = os.path.join(res_dir, f"{workload}-seed{seed}-trace{int(trace)}"
                        f"{'-tiny' if tiny else ''}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return e2e, {"correct": failed == 0, "attempted": attempted,
                 "failed": failed,
                 "metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test only")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meanforce", "__init__.py")):
        print("error: run from the root of a meanforce checkout "
              "(src/meanforce not found)", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results, summary = {}, {}
    for name in names:
        summary[name], results[name] = run_one(
            root, name, args.seed, args.seconds, bool(args.trace), args.tiny)
    if args.workload == "all":
        cols = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "fail_frac")
        print("# workload " + " ".join(f"{c:>12s}" for c in cols))
        for name, e2e in summary.items():
            print(f"# {name:8s} " + " ".join(f"{e2e[c][0]:12.4f}" for c in cols))
        print("# units: " + ", ".join(f"{c} {e2e[c][1]}" for c in cols))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
