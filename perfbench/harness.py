"""Job lists, the timing loop and the statistics every workload shares.

Times are reported at reference speed.  The machine the benchmark runs on
is shared, and its speed swings by up to 2x within a second and drifts by
tens of percent over minutes, in wall and in CPU time alike.  So after
every job the loop also times a fixed pure-Python probe that does not touch
the program, and a job's wall time is scaled by REF_PROBE_S over the median
time of the probes run near it: the time the job would take on a machine
where the probe takes REF_PROBE_S.  A change to the program moves the
scaled time as it moves the wall time; a change in the machine's speed
moves the probes with the job and cancels.
"""

from __future__ import annotations

import bisect
import cmath
import gc
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

# the probe's time at reference speed (its median on the reference machine
# is about this); a scaled time is in seconds at that speed
REF_PROBE_S = 1.0e-3
# a job's local speed is the median of the probes that ran within
# max(SPAN_FACTOR x its duration, SPAN_MIN_S) of it, and at least PROBE_MIN
# of the probes nearest to it
SPAN_FACTOR = 2.0
SPAN_MIN_S = 0.05
PROBE_MIN = 3


def _probe_work():
    """Integer, complex and Fraction arithmetic like the program's own."""
    s, z, f = 0, 0j, Fraction(1, 3)
    for i in range(1500):
        s += i * i % 7
        z = z * 0.5 + cmath.exp(complex(0, i * 0.001))
    for i in range(40):
        f = f * Fraction(i + 1, i + 2) + 1
    return s, z, f


def time_probe():
    """Wall time of one probe, with the collector off so that the
    program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(probes):
    """Factor from wall time to time at reference speed."""
    return REF_PROBE_S / statistics.median(probes)


@dataclass(frozen=True)
class Job:
    """One operation: a job kind and the plain data it is built from.

    ``data`` holds only JSON-like values made at set-up.  A job builds its
    program objects from it on every run, as a user's process would, so no
    cache keyed on a program object can carry from one repeat to the next.
    """

    kind: str
    data: object


def interleave(groups):
    """Fixed round-robin over kinds by fractional position.

    ``groups`` is a list of (kind, [jobs]).  Job i of a kind with n jobs sits
    at (i + 0.5) / n, ties broken by the order of the groups, so every kind
    is spread evenly over the pass and a slow stretch of the machine hits
    all kinds alike.
    """
    keyed = []
    for order, (_, jobs) in enumerate(groups):
        n = len(jobs)
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / n, order, i, job))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


@dataclass
class PassResult:
    wall_s: float
    starts: list        # start of each job, from the start of the pass
    times: list         # wall time of each job
    probes: list        # wall time of the probe run right after each job
    outputs: list       # the job's output, or the exception it raised

    def scaled_times(self):
        """Each job's wall time at reference speed."""
        mids = [s + t + p / 2
                for s, t, p in zip(self.starts, self.times, self.probes)]
        least = min(PROBE_MIN, len(mids))
        out = []
        for i, (s, t) in enumerate(zip(self.starts, self.times)):
            span = max(SPAN_FACTOR * t, SPAN_MIN_S)
            lo = bisect.bisect_left(mids, s - span)
            hi = bisect.bisect_right(mids, s + t + span)
            w = 1
            while hi - lo < least:
                lo, hi = max(0, i - w), min(len(mids), i + w + 1)
                w += 1
            out.append(t * speed_scale(self.probes[lo:hi]))
        return out


def run_pass(run, jobs):
    """Run every job once in order with ``run``; time each job, a probe
    after it, and the pass."""
    gc.collect()
    perf = time.perf_counter
    starts, times, probes, outputs = [], [], [], []
    start = perf()
    for job in jobs:
        t0 = perf()
        try:
            out = run(job)
        except Exception as exc:  # counted as a failed operation
            out = exc
        times.append(perf() - t0)
        starts.append(t0 - start)
        outputs.append(out)
        probes.append(time_probe())
    return PassResult(perf() - start, starts, times, probes, outputs)


def run_passes(workload, jobs, seconds):
    """Whole passes, while the next is expected to end within ``seconds``."""
    passes = [run_pass(workload.run, jobs)]
    elapsed = passes[0].wall_s
    while elapsed + passes[-1].wall_s <= seconds:
        passes.append(run_pass(workload.run, jobs))
        elapsed += passes[-1].wall_s
    return passes


def check_passes(workload, jobs, passes, refs):
    """(attempted, failed, correct) over the passes.

    A job that raised counts as failed; ``correct`` covers the jobs that did
    not fail, each checked against the references.
    """
    attempted = failed = 0
    correct = True
    for p in passes:
        for job, out in zip(jobs, p.outputs):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                print(f"FAILED {job.kind}: {type(out).__name__}: {out}",
                      file=sys.stderr)
                continue
            errors = workload.check(job, out, refs)
            if errors:
                correct = False
                for e in errors:
                    print(f"WRONG {job.kind}: {e}", file=sys.stderr)
    return attempted, failed, correct


def job_stats(passes):
    """Throughput and per-job percentiles over all passes of a run, from
    the job times at reference speed."""
    times = [t for p in passes for t in p.scaled_times()]
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
    }
