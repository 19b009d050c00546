"""Benchmark of matfhe as its users drive it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
checkout that holds this file; without it the run fails with exit code 2.

``--trace 0`` runs one workload in a closed loop with one client for S
seconds and reports its end-to-end metrics. ``--trace 1`` reports per-layer
metrics instead: an untraced and a traced pass over the same fixed jobs,
with spans recorded by rebinding matfhe's public functions from outside.
Every job's output is checked against a plaintext oracle outside the timed
interval; a wrong answer ends the run with ``"correct": false`` and exit
code 1. ``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the host, Python version, git sha and seed, and each metric with its
unit and sample counts.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
NAMES = ("eval_l256", "protocol_l16", "cli_dim8", "kpa_1155")

SETUP_REPS = 5        # setup_s is the median of this many full set-ups
WINDOWS = 10          # jobs_per_s is the median rate of this many job windows
# The tail is the highest of these percentiles with TAIL_BEYOND samples
# beyond it. The ladder stops at p90: on a shared host the slowest 1% of
# jobs are those the neighbours interrupted, and p99 moved by 29% between
# runs of identical kpa_1155 jobs. When every window of the run reaches
# p90, the tail is the median of the windows' p90s, so that a burst of
# interference from neighbours in one window does not set it.
TAIL_LADDER = (90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import matfhe from this checkout's src/ and return the seconds the
    import took. Raises ImportError when src/ does not hold the package."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    pkg = importlib.import_module("matfhe")
    importlib.import_module("matfhe.cli")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"matfhe was imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return elapsed


def host_meta(seed):
    cpu = "unknown"
    nproc = 0
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("processor"):
                nproc += 1
            elif line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
    return {"cpu": cpu, "nproc": nproc,
            "python": platform.python_version(), "git_sha": git_sha(),
            "seed": seed}


def git_sha():
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(sorted_values):
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        rank = math.ceil(n * p / 100)
        if n - rank >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return p, sorted_values[max(rank, 1) - 1], n - rank


def end_to_end(loop, imported, setups, peak_mb):
    """The end-to-end metrics with a note each, and failed_ratio with its
    note. Times are at the reference host speed; imported and setups hold
    (wall, normalized) seconds."""
    norm = loop.normalized()
    ok = sorted(t for t, good in zip(norm, loop.ok) if good)
    ok_wall = sorted(t for t, good in zip(loop.seconds, loop.ok) if good)
    n = loop.attempted
    bounds = [n * w // WINDOWS for w in range(WINDOWS + 1)]
    windows = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    rates = [loop.ok[lo:hi].count(1) / sum(norm[lo:hi]) for lo, hi in windows]
    pct, tail_s, beyond = tail(ok)
    tail_note = f"p{pct:g} of n={len(ok)}, {beyond} samples beyond"
    per_window = [tail(sorted(t for t, good in zip(norm[lo:hi], loop.ok[lo:hi])
                              if good)) for lo, hi in windows]
    if all(p == TAIL_LADDER[0] for p, _, _ in per_window):
        tail_s = statistics.median(v for _, v, _ in per_window)
        tail_note = (f"median of {len(per_window)} windows' p{pct:g}, each "
                     f"with at least {min(b for _, _, b in per_window)} "
                     f"samples beyond")
    busy = sum(loop.seconds)
    setup_wall = imported[0] + statistics.median(w for w, _ in setups)
    fail_note = ", ".join(f"{k}={v}" for k, v in sorted(loop.failures.items()))
    values = {
        "jobs_per_s": (statistics.median(rates),
                       f"median of {len(rates)} windows; wall: {len(ok)} jobs "
                       f"in {busy:.3f} s busy, {len(ok) / busy:.5g}/s"),
        "job_p50_ms": (statistics.median(ok) * 1e3,
                       f"p50 of n={len(ok)}; wall "
                       f"{statistics.median(ok_wall) * 1e3:.5g} ms"),
        "job_tail_ms": (tail_s * 1e3,
                        f"{tail_note}; wall p{pct:g} of the run "
                        f"{tail(ok_wall)[1] * 1e3:.5g} ms"),
        "ok_ratio": (len(ok) / n, f"{len(ok)}/{n} attempted"),
        "setup_s": (imported[1] + statistics.median(t for _, t in setups),
                    f"import + median of {len(setups)} set-ups; wall "
                    f"{setup_wall:.5g} s"),
        "peak_rss_mb": (peak_mb, "ru_maxrss of the workload process at the "
                                 "end of the timed loop"),
    }
    failed = (loop.failed / n, f"{loop.failed}/{n} failed"
              + (f": {fail_note}" if fail_note else ""))
    return values, failed


def print_result(correct, loop, metrics):
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def run_one(args):
    try:
        import_s = load_program()
    except ImportError as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    import harness
    import reference
    import workloads
    from spans import per_layer_units

    wl = workloads.WORKLOADS[args.workload]
    host = harness.Loop(wl.REFERENCE)
    host.sample_host(harness.REF_MIN)
    imported = (import_s, import_s * reference.nominal(wl.REFERENCE)
                / statistics.median(host.ref_seconds))
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("meta " + json.dumps(host_meta(args.seed)))
    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    loop = harness.Loop(wl.REFERENCE)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPS):
            # Drop the previous set-up's state so that only one is alive.
            state = None
            gc.collect()
            state, *seconds = harness.set_up(wl, args.seed, workdir)
            setups.append(seconds)
        if args.trace:
            spans_path = os.path.join(
                RUNS, f"spans-{wl.name}-seed{args.seed}.jsonl")
            values, notes = harness.measure_traced(
                wl, state, args.seconds, os.path.relpath(spans_path), loop)
            units = per_layer_units()
            for note in notes:
                print(note)
            for name, unit in units.items():
                if values[name] or not name.endswith((".calls", ".self_us")):
                    print(f"{name:<42} {values[name]:>14.6g} {unit}")
            metrics = {name: (values[name], unit)
                       for name, unit in units.items()}
        else:
            harness.measure(wl, state, args.seconds, loop)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values, failed = end_to_end(loop, imported, setups, peak_mb)
            for name, (value, note) in values.items():
                unit = END_TO_END_UNITS[name]
                print(f"{name:<14} {value:>14.6g} {unit:<7} {note}")
            print(f"{'failed_ratio':<14} {failed[0]:>14.6g} {'1':<7} "
                  f"{failed[1]}")
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, (value, _) in values.items()}
        stats = {}
        wl.finish(state, stats)
        for key, text in stats.items():
            print(f"{key}: {text}")
    except workloads.WrongResultError as err:
        print(f"error: wrong result: {err}", file=sys.stderr)
        print_result(False, loop, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_result(True, loop, metrics)
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    worst = 0
    for name in NAMES:
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
        worst = worst or code
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
