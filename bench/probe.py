"""Fresh-interpreter probes started by the benchmark.

    python3 bench/probe.py setup WORKLOAD SEED
        runs the workload's set-up (import squeezesim, load the config or
        build the models) and prints ``time.perf_counter()`` when it is
        done; the clock is system-wide, so the parent subtracts its own
        reading taken just before it started this process.
    python3 bench/probe.py import
        prints the seconds ``import squeezesim.cli`` takes.

Both expect ``src`` on PYTHONPATH and the repository root as working
directory.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path.cwd()
    if argv[:1] == ["setup"] and len(argv) == 3:
        import workloads

        workloads.SETUPS[argv[1]](root, int(argv[2]))
        print(repr(time.perf_counter()))
        return 0
    if argv == ["import"]:
        t0 = time.perf_counter()
        import squeezesim.cli  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
