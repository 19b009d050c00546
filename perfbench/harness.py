"""Closed-loop job execution: one client, one job at a time.

Each job's inputs are prepared before its timer starts and its output is
checked after the timer stops, so the timed interval holds only the
program's work. Between jobs, outside the timed interval, the loop times
the workload's reference kernel; a job's normalized time is its wall time
scaled by the kernel's nominal time over its median time within REF_NEAR
of the job.
"""

import array
import bisect
import collections
import statistics
import time

import reference
from spans import Tracer
from workloads import FAILURES, CliExitError

REF_EVERY = 0.005     # one reference sample per this much job time
REF_NEAR = 0.020      # a job's host speed comes from samples this close
REF_MIN = 3           # and from at least this many samples


class Loop:
    """Per-job records of one measured loop, with host speed samples.

    Records are kept in arrays so that the harness's own memory grows by
    a few bytes per job, not by a few Python objects: a faster program runs
    more jobs and must not show a higher peak RSS for it.
    """

    def __init__(self, parts):
        self.parts = parts                  # the reference kernel's parts
        self.starts = array.array("d")
        self.seconds = array.array("d")     # wall time of every job
        self.ok = array.array("b")          # 1 if it raised no typed error
        self.failures = collections.Counter()
        self.ref_at = array.array("d")      # when each kernel sample started
        self.ref_seconds = array.array("d")  # and how long it took
        self._owed = 0.0

    @property
    def attempted(self):
        return len(self.ok)

    @property
    def failed(self):
        return self.ok.count(0)

    def sample_host(self, count=1):
        for _ in range(count):
            self.ref_at.append(time.perf_counter())
            self.ref_seconds.append(reference.sample(self.parts))

    def record(self, start, end, ok):
        self.starts.append(start)
        self.seconds.append(end - start)
        self.ok.append(ok)
        self._owed += end - start
        while self._owed > 0:
            self.sample_host()
            self._owed -= REF_EVERY

    def speed_factor(self, start, end):
        """The kernel's nominal time over its median around [start, end]."""
        lo = bisect.bisect_left(self.ref_at, start - REF_NEAR)
        hi = bisect.bisect_right(self.ref_at, end + REF_NEAR)
        while hi - lo < REF_MIN and (lo > 0 or hi < len(self.ref_at)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.ref_at))
        return reference.nominal(self.parts) / statistics.median(
            self.ref_seconds[lo:hi])

    def normalized(self):
        """Every job's wall time at the reference host speed."""
        return [s * self.speed_factor(t, t + s)
                for t, s in zip(self.starts, self.seconds)]


def run_job(wl, state, job, loop, tracer=None, job_id=None):
    """One closed-loop job: prepare its inputs, time it, then check it."""
    arg = wl.prepare(state, job)
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        out = wl.run(state, job, arg)
    except FAILURES as err:
        end = time.perf_counter()
        name = (f"cli exit {err.code}" if isinstance(err, CliExitError)
                else type(err).__name__)
        loop.failures[name] += 1
        ok = False
    else:
        end = time.perf_counter()
        ok = True
    if tracer is not None:
        tracer.job = None
    loop.record(start, end, ok)
    if ok:
        wl.check(state, job, out)


def set_up(wl, seed, workdir):
    """Build the workload's inputs and warm it up. Returns the state and
    the wall and normalized seconds this took."""
    loop = Loop(wl.REFERENCE)
    loop.sample_host(REF_MIN)
    start = time.perf_counter()
    state = wl.setup(seed, workdir)
    for job in state["jobs"][:wl.WARMUP]:
        run_job(wl, state, job, loop)
    end = time.perf_counter()
    loop.sample_host(REF_MIN)
    return state, end - start, (end - start) * loop.speed_factor(start, end)


def measure(wl, state, seconds, loop):
    """Jobs in a closed loop for the given seconds, recorded in loop."""
    jobs = state["jobs"]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_job(wl, state, jobs[i % len(jobs)], loop)
        i += 1


def measure_traced(wl, state, seconds, spans_path, loop):
    """Untraced passes over the first TRACE_JOBS jobs for half the budget,
    then one traced pass over the same jobs, all recorded in loop. Returns
    the per-layer metrics and notes for the report."""
    jobs = state["jobs"][:wl.TRACE_JOBS]
    bounds = [0]
    deadline = time.perf_counter() + seconds / 2
    while len(bounds) == 1 or time.perf_counter() < deadline:
        for job in jobs:
            run_job(wl, state, job, loop)
        bounds.append(loop.attempted)
    tracer = Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            run_job(wl, state, job, loop, tracer, i)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    norm = loop.normalized()
    untraced = statistics.median(sum(norm[a:b])
                                 for a, b in zip(bounds, bounds[1:]))
    traced = sum(norm[bounds[-1]:])
    traced_wall = sum(loop.seconds[bounds[-1]:])
    metrics = tracer.layer_metrics(len(jobs), traced_wall,
                                   traced / traced_wall)
    metrics["trace.overhead_ratio"] = untraced / traced
    # Timed divisions never fail (see EvalL256._tenant); the scheme's
    # refusals are those of the set-up's divisor encryptions.
    refused, tried = state.get("division_tries", (0, 0))
    metrics["evaluate.he_div.failed_ratio"] = refused / tried if tried else 0.0
    notes = [f"{len(jobs)} traced jobs, {len(tracer.spans)} spans in "
             f"{spans_path}; untraced pass median of {len(bounds) - 1}"]
    if tracer.missing:
        notes.append(f"not in the program: {', '.join(tracer.missing)}")
    return metrics, notes
