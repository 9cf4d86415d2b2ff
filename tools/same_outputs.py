"""Whether the checkout writes the same command outputs as a git revision.

    python tools/same_outputs.py [REF]        # REF defaults to HEAD

``REF`` is extracted into a temporary directory with ``git archive``.
Both trees then run the same commands on the same inputs, each tree's
``src`` on its own ``PYTHONPATH``:

- ``threshold``, ``spectrum``, ``sweep`` and ``phase-scan`` on
  ``configs/reference.cfg``;
- ``validate --dump-series`` on ``tests/data/validate_fast.cfg``;
- ``fit`` on the trace that ``tests/test_reference_outputs.write_fit_trace``
  writes and on the benchmark's comb, ``bench/inputs.comb_trace(911)``;
- ``stats`` on both ``fits.json`` files;
- criterion 3's stochastic cross-check as the benchmark's ``oracle``
  workload plans it (``bench/workloads.Oracle``: pumps x = 0, 0.5 and
  0.9, five frequencies from 0.01 to 3 kappa, three angles, 400
  segments) at seeds 1, 2 and 3, with every field of every ``BinCheck``
  written by ``repr`` to ``oracle/bin_checks.txt``.  ``validate_report.json``
  keeps only maxima over its bins, so a bin whose bits move without
  moving a maximum shows only here.

Each tree then runs every command a second time into the same output
directories, the path a rerun into one ``--out`` takes, and the files of
both runs are compared: ``first/NAME`` and ``second/NAME``.

Inputs are written once, from the checkout, and every path a command is
given is relative and the same in both trees, so an output that records
its source still compares.  One JSON line on stdout counts the files of
both runs and names every output file that differs or exists in one tree
only, and every command that failed; the exit status is 1 if there is
any.  Nothing is written into the checkout.  It runs 36 commands in
fresh interpreters, so it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # the imports below read the checkout only

ROOT = Path(__file__).resolve().parent.parent
COMB_SEED = 911

# (output directory, command line); paths are relative to a tree's run directory
INPUTS = "../../inputs"
COMMANDS = [
    *((name, [name, "--config", f"{INPUTS}/reference.cfg"])
      for name in ("threshold", "spectrum", "sweep", "phase-scan")),
    ("validate", ["validate", "--config", f"{INPUTS}/validate_fast.cfg", "--dump-series"]),
    ("fit", ["fit", f"{INPUTS}/trace.csv"]),
    ("fit-comb", ["fit", f"{INPUTS}/comb.csv"]),
    ("stats", ["stats", "fit/fits.json", "fit-comb/fits.json"]),
]

# run as ``python -c BIN_CHECKS TREE FILE``: the oracle plan's bins at seeds 1-3
BIN_CHECKS = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "bench")!r})
import workloads
tree, out = Path(sys.argv[1]), Path(sys.argv[2])
out.parent.mkdir(exist_ok=True)
out.write_text("".join(
    repr(check) + "\\n" for seed in (1, 2, 3)
    for cv in workloads.Oracle(tree, seed).plan(workloads.Tally()) for check in cv.checks
))
"""


def write_inputs(directory: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import inputs
    from test_reference_outputs import write_fit_trace

    shutil.copy(ROOT / "configs" / "reference.cfg", directory)
    shutil.copy(ROOT / "tests" / "data" / "validate_fast.cfg", directory)
    write_fit_trace(directory)
    inputs.write_trace_csv(inputs.comb_trace(COMB_SEED), directory / "comb.csv")


def extract(ref: str, directory: Path) -> None:
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", ref],
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        sys.exit(f"cannot extract {ref} with git archive")


def run_commands(tree: Path, run: Path) -> list[str]:
    """Run every command with ``tree``'s sources; the names of those that failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmds = [(out, ["-m", "squeezesim", *argv, "--out", out]) for out, argv in COMMANDS]
    cmds.append(("oracle", ["-c", BIN_CHECKS, str(tree), "oracle/bin_checks.txt"]))
    failed = []
    for out, args in cmds:
        done = subprocess.run([sys.executable, *args], cwd=run, env=env, stdout=subprocess.DEVNULL)
        if done.returncode:
            failed.append(out)
    return failed


def files(run: Path) -> set[str]:
    return {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        (tmp / "ref").mkdir()
        extract(args.ref, tmp / "ref")
        write_inputs(tmp / "inputs")
        runs = {name: tmp / "runs" / name for name in ("ref", "checkout")}
        kept = {name: tmp / "kept" / name for name in runs}
        failed = []
        for name, tree in (("ref", tmp / "ref"), ("checkout", ROOT)):
            runs[name].mkdir(parents=True)
            for which in ("first", "second"):
                failed += [f"{name} {which}: {out}" for out in run_commands(tree, runs[name])]
                shutil.copytree(runs[name], kept[name] / which)
        names = files(kept["ref"]) | files(kept["checkout"])
        differ = sorted(
            name for name in names
            if not all((run / name).is_file() for run in kept.values())
            or not filecmp.cmp(kept["ref"] / name, kept["checkout"] / name, shallow=False)
        )
    print(json.dumps({"ref": args.ref, "files": len(names), "differ": differ, "failed": failed}))
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
