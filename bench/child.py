"""One timed repetition of one workload, in a fresh process.

Reads a job as JSON on stdin: {"workload", "inputs", "workdir", "trace"}.
Imports meanforce (found through PYTHONPATH), runs the workload's set-up,
marks itself ready, runs the fixed work, and prints one JSON line with the
ready time (time.monotonic, shared with the parent on Linux), the wall and
process CPU time of the fixed work, the peak resident set size and the
outputs.  With tracing on, the spans go to <workdir>/spans.json when the
work ends.
"""

from __future__ import annotations

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set size of this process image.  VmHWM starts
    afresh at exec; ru_maxrss would carry over the parent's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    import meanforce.cli  # noqa: F401  (the import cost belongs to set-up)

    name, inp, workdir = job["workload"], job["inputs"], job["workdir"]
    state = workloads.setup(name, inp, workdir)
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_ready = time.monotonic()
    c0, w0 = time.process_time(), time.perf_counter()
    raw = workloads.work(name, inp, workdir, state)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = peak_rss_mb()
    if tracer is not None:
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    out = workloads.collect(name, inp, workdir, state, raw)
    print(json.dumps({"t_ready": t_ready, "wall_s": wall, "cpu_s": cpu,
                      "peak_rss_mb": rss_mb, "outputs": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
