"""Benchmark of squeezesim: three workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's operations in whole rounds for
``--seconds`` seconds and prints its end-to-end metrics, with every time
scaled to a reference machine speed (see ``speed.py``).  ``--trace 1`` runs
the traced layer profile once instead (see ``layers.py``) and prints the
per-layer metrics.  There is nothing to build: squeezesim is pure Python and is
imported from ``src`` of the checkout this file sits in.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed, even when a check failed (``correct`` is then false); 2 means
the checkout is unusable and nothing was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from workloads import Analytic, CliCold, Oracle, Tally, child_env

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 5


def run_rounds(seconds: float, one_round, tally: Tally) -> list[float]:
    """Whole rounds, at least one, until ``seconds`` of wall time have passed.

    Returns each round's summed operation times, which leave out the speed
    kernel and the output checks.
    """
    end = time.perf_counter() + seconds
    rounds = []
    while True:
        first = len(tally.op_seconds)
        one_round()
        rounds.append(sum(tally.op_seconds[first:]))
        if time.perf_counter() >= end:
            return rounds


def setup_s(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of start-up to the first timed operation.

    Each sample is scaled by the speed kernel run just before it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        scale = speed.REFERENCE_S / speed.kernel_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(seed)],
            cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, check=True,
        )
        samples.append((float(proc.stdout.split()[-1]) - t0) * scale)
    return statistics.median(samples)


def peak_rss_mb(workload: str) -> float:
    """Largest resident set of the processes that run the workload (MB).

    ``cli-cold`` runs its commands in children, so only they count there;
    the other workloads run in this process, and their set-up probes in
    children.  Linux folds a parent's resident set at spawn time into the
    child's peak, so the benchmark process keeps its own inputs small
    (see ``inputs.write_trace_csv``).
    """
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload != "cli-cold":
        kib = max(kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib * 1024 / 1e6


# every end-to-end metric: unit and the better direction, in the order printed
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
FAMILIES = {
    "cli-cold": lambda seed, work: CliCold(ROOT, seed, work),
    "oracle": lambda seed, work: Oracle(ROOT, seed),
    "analytic": lambda seed, work: Analytic(ROOT, seed),
}


def measure(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """The workload's end-to-end metrics over ``seconds`` of whole rounds."""
    setup = setup_s(workload, seed)
    family = FAMILIES[workload](seed, work)  # cli-cold writes its trace here, after set-up
    rounds = run_rounds(seconds, lambda: family.round(tally), tally)
    values = {
        "setup_s": setup,
        "round_s": statistics.median(rounds),
        "op_p50_s": statistics.median(tally.op_seconds),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


def checkout_problem() -> str | None:
    for rel in ("src/squeezesim/__init__.py", workloads.REFERENCE_CFG):
        if not (ROOT / rel).is_file():
            return f"{ROOT / rel} is missing: run from a full checkout of the repository"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(FAMILIES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally(scaled=not args.trace)  # the traced run reports plain wall times
    try:
        if args.trace:
            import layers

            metrics = layers.profile(ROOT, work, args.seed, args.workload, tally,
                                     OUT / f"spans-{args.workload}.json")
        else:
            metrics = measure(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print("CHECK FAILED:", problem)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if tally.kernel_seconds:
        kernel = statistics.median(tally.kernel_seconds)
        print(f"speed kernel: median {kernel * 1e3:.2f} ms over {len(tally.kernel_seconds)} runs; "
              f"times are scaled by {speed.REFERENCE_S * 1e3:g} ms over the kernel's")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
