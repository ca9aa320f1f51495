"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 24 --trace 0

Run it from the repository root; the program is imported from ``src/``.
Workloads: growth, counting, exact, cli (see perfbench/README.md).

With ``--trace 0`` the run times whole passes of the workload's fixed job
list for about ``--seconds`` seconds and prints the end-to-end metrics,
with every time scaled to reference speed (see harness.py).  With ``--trace 1`` it runs one untraced pass, then one pass with the
per-layer tracer installed, and prints the per-layer metrics and the
tracing overhead.  Every output is checked against references computed
apart from the program.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
It is also written to .perfbench_work/<workload>/result.json, and a traced
run writes its per-function table to .perfbench_work/<workload>/trace.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("growth", "counting", "exact", "cli")
SETUP_REPEATS = 5
# probes run just before and just after each set-up
SETUP_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_p90_s": "s", "peak_rss_mb": "MiB"}

sys.path.insert(0, str(HERE))

from harness import (check_passes, job_stats, run_pass,  # noqa: E402
                     run_passes, speed_scale, time_probe)
from tracer import UNITS, Tracer  # noqa: E402


def _purge_program():
    for name in [n for n in sys.modules
                 if n == "curvecomp" or n.startswith("curvecomp.")]:
        del sys.modules[name]


def timed_setup(wl, seed, workdir):
    """Median of SETUP_REPEATS fresh set-ups: import, inputs, warm-up.

    Each set-up drops the program's modules and imports them again, makes
    the seeded inputs, and runs the warm-up jobs (one light job per kind).
    Its wall time is scaled to reference speed by the probes run just
    before and just after it.
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        _purge_program()
        probes = [time_probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        for name in wl.MODULES:
            importlib.import_module(name)
        jobs, warmups = wl.setup(seed, workdir)
        for job in warmups:
            wl.run(job)
        wall = time.perf_counter() - t0
        probes += [time_probe() for _ in range(SETUP_PROBES)]
        durations.append(wall * speed_scale(probes))
    origin = Path(sys.modules["curvecomp"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"curvecomp was imported from {origin}, not {SRC}")
    return statistics.median(durations), jobs


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the probes
    time the CPU the jobs run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, jobs, seconds):
    passes = run_passes(wl, jobs, seconds)
    metrics = job_stats(passes)
    metrics["peak_rss_mb"] = peak_rss_mb(getattr(wl, "RSS_OF_CHILDREN", False))
    return passes, metrics


def trace(wl, jobs):
    """One untraced and one traced pass; layer metrics and overhead."""
    run = getattr(wl, "run_traced", wl.run)
    passes = [run_pass(wl.run, jobs)]
    extra = {}
    if run is not wl.run:
        # the cli children are separate processes: trace the same commands
        # run in-process, and compare against them untraced
        passes.append(run_pass(run, jobs))
        extra = wl.layer_metrics(jobs, passes[0], passes[1])
    untraced = passes[-1]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(run, jobs)
    finally:
        tracer.uninstall()
    passes.append(traced)
    metrics = {name: 0.0 for name in UNITS}
    metrics.update(tracer.metrics())
    metrics.update(extra)
    untraced_s = sum(untraced.scaled_times())
    traced_s = sum(traced.scaled_times())
    metrics["trace.jobs_per_s_untraced"] = len(jobs) / untraced_s
    metrics["trace.jobs_per_s_traced"] = len(jobs) / traced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    return passes, metrics, tracer.table()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "curvecomp" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    wl = importlib.import_module(f"wl_{args.workload}")
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s, jobs = timed_setup(wl, args.seed, workdir)
    if args.trace:
        passes, metrics, table = trace(wl, jobs)
        (workdir / "trace.json").write_text(json.dumps(table, indent=1))
        units = UNITS
    else:
        passes, metrics = measure(wl, jobs, args.seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    attempted, failed, correct = check_passes(wl, jobs, passes, {})
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    (workdir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
