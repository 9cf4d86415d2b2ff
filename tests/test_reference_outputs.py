"""The commands reproduce their saved reference outputs.

``tests/data/reference/`` holds what ``spectrum``, ``sweep``, ``threshold``
and ``phase-scan`` wrote for ``configs/reference.cfg``, what ``fit``
wrote for the trace that :func:`write_fit_trace` synthesizes, and the
``validate_report.json`` and ``series.bin`` that ``validate --dump-series``
wrote for ``tests/data/validate_fast.cfg``.  Each command is rerun here
and every output cell is compared with the saved one:

- non-numeric cells (text, ``nan``, config lines) must match exactly;
- numeric cells must agree to 1e-12 relative;
- dB cells (column or key names ending in ``_db``) must agree to
  4.35e-12 dB absolute, which is 1e-12 relative in the variance;
- every sample of ``series.bin`` must agree to 1e-12 relative.

A change that is meant to alter these outputs regenerates the files from
the repository root with

    for c in spectrum sweep threshold phase-scan; do
        PYTHONPATH=src python -m squeezesim $c --config configs/reference.cfg \\
            --out tests/data/reference
    done
    (cd "$(mktemp -d)" && PYTHONPATH="$OLDPWD/src:$OLDPWD/tests" python -c \\
        "import test_reference_outputs as t; t.write_fit_trace('.')" &&
        PYTHONPATH="$OLDPWD/src" python -m squeezesim fit trace.csv \\
            --out "$OLDPWD/tests/data/reference")
    (out="$(mktemp -d)" && PYTHONPATH=src python -m squeezesim validate \\
        --config tests/data/validate_fast.cfg --out "$out" --dump-series &&
        cp "$out/validate_report.json" "$out/series.bin" tests/data/reference)

and says in its change notes why the numbers moved.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from squeezesim.cli import EXIT_OK, _jsonify, main
from squeezesim.config import load_config
from squeezesim.langevin import load_series
from squeezesim.params import C_LIGHT
from squeezesim.validation import validation_report

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "tests" / "data" / "reference"
REFERENCE_CFG = ROOT / "configs" / "reference.cfg"
VALIDATE_CFG = ROOT / "tests" / "data" / "validate_fast.cfg"

COMMANDS = {
    "spectrum": ("spectrum.csv", "spectrum_summary.json", "effective_config.cfg"),
    "sweep": ("sweep.csv", "effective_config.cfg"),
    "threshold": ("threshold.json", "effective_config.cfg"),
    "phase-scan": ("phase_scan.csv", "effective_config.cfg"),
}

FIT_OUTPUTS = ("fits.json", "fit_stats.json")

REL_TOL = 1e-12
DB_TOL = 4.35e-12


def _cells(path: Path):
    """``(name, text)`` for every cell of a CSV, JSON or config file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(text.splitlines()))
        yield "header", ",".join(header)
        for row in rows:
            yield "row length", str(len(row))
            for name, cell in zip(header, row):
                yield name, cell
    elif path.suffix == ".json":
        yield from _json_leaves("", json.loads(text))
    else:
        yield from (("line", line) for line in text.splitlines())


def _json_leaves(prefix: str, value):
    if isinstance(value, dict):
        yield "keys " + prefix, ",".join(sorted(value))
        for key, item in sorted(value.items()):
            yield from _json_leaves(key, item)
    elif isinstance(value, list):
        yield "length " + prefix, str(len(value))
        for item in value:
            yield from _json_leaves(prefix, item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield prefix, repr(value)
    else:
        yield prefix, json.dumps(value)


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare_file(expected: Path, actual: Path) -> tuple[list[str], float, float]:
    """Mismatches, largest relative and largest dB deviation of one file."""
    problems, worst_rel, worst_db = [], 0.0, 0.0
    want, got = list(_cells(expected)), list(_cells(actual))
    if len(want) != len(got):
        return [f"{len(got)} cells, expected {len(want)}"], math.inf, math.inf
    for (name, a), (name_b, b) in zip(want, got):
        if name != name_b:
            problems.append(f"cell {name_b!r} where {name!r} was expected")
            continue
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            problems.append(f"{name}: {b!r}, expected {a!r}")
        elif name.endswith("_db"):
            worst_db = max(worst_db, abs(y - x))
            if abs(y - x) > DB_TOL:
                problems.append(f"{name}: {b} dB, expected {a} dB")
        else:
            rel = abs(y - x) / max(abs(x), abs(y))
            worst_rel = max(worst_rel, rel)
            if rel > REL_TOL:
                problems.append(f"{name}: {b}, expected {a} (relative {rel:.3g})")
    return problems, worst_rel, worst_db


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_reference_outputs_reproduce(command, tmp_path):
    argv = [command, "--config", str(REFERENCE_CFG), "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    for name in COMMANDS[command]:
        problems, _, _ = compare_file(REFERENCE_DIR / name, tmp_path / name)
        assert not problems, f"{name}: " + "; ".join(problems[:5])


def write_fit_trace(directory) -> None:
    """``trace.csv``: 20,000 samples over four overcoupled dips, fringes and noise.

    The dips are the all-pass Lorentzian written out here, not through
    ``squeezesim.traces``, so the input cannot move with the code under test.
    """
    lam = np.linspace(1559.6, 1560.4, 20000)
    kappa = 1.4547818715700133e9  # loaded Q of 0.83e6 at 1560 nm
    tr = 0.97 + 0.03 * np.cos(2.0 * math.pi * (lam - lam[0]) / 0.9)
    for center in (1559.7, 1559.9, 1560.1, 1560.3):
        delta = 2.0 * math.pi * C_LIGHT * (lam - center) * 1e-9 / (center * 1e-9) ** 2
        tr = tr * (1.0 - (1.0 - 0.69830017) / (1.0 + (2.0 * delta / kappa) ** 2))
    tr = tr + np.random.default_rng(3).normal(0.0, 0.002, lam.size)
    rows = (f"{w!r},{t!r}" for w, t in zip(lam.tolist(), tr.tolist()))
    (Path(directory) / "trace.csv").write_text(
        "wavelength_nm,transmission\n" + "\n".join(rows) + "\n"
    )


def test_fit_reference_outputs_reproduce(tmp_path, monkeypatch):
    # a relative trace path from a fixed directory keeps "source" stable
    write_fit_trace(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "trace.csv", "--out", "out"]) == EXIT_OK
    for name in FIT_OUTPUTS:
        problems, _, _ = compare_file(REFERENCE_DIR / name, tmp_path / "out" / name)
        assert not problems, f"{name}: " + "; ".join(problems[:5])


def test_validate_reference_outputs_reproduce(tmp_path):
    argv = ["validate", "--config", str(VALIDATE_CFG), "--out", str(tmp_path), "--dump-series"]
    assert main(argv) == EXIT_OK
    name = "validate_report.json"
    problems, _, _ = compare_file(REFERENCE_DIR / name, tmp_path / name)
    assert not problems, f"{name}: " + "; ".join(problems[:5])
    want, want_dt = load_series(REFERENCE_DIR / "series.bin")
    got, got_dt = load_series(tmp_path / "series.bin")
    assert got_dt == want_dt
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=0.0)
    # the library call alone builds the report the command wrote
    written = json.loads((tmp_path / name).read_text())
    assert _jsonify(validation_report(load_config(VALIDATE_CFG))) == written


def test_reference_comparison_has_teeth(tmp_path):
    # one last-digit change in a variance is within tolerance, a 1e-11
    # relative change in rho is not, and neither is a changed text cell
    source = (REFERENCE_DIR / "sweep.csv").read_text().splitlines()
    row = source[-1].split(",")
    cases = {
        "s_min_db": (1, float(row[1]) + 1e-12, True),
        "rho": (3, float(row[3]) * (1.0 + 1e-11), False),
        "threshold_flag": (4, "1", False),
    }
    for column, (index, value, ok) in cases.items():
        edited = list(row)
        edited[index] = repr(value) if isinstance(value, float) else value
        path = tmp_path / f"{column}.csv"
        path.write_text("\n".join(source[:-1] + [",".join(edited)]) + "\n")
        problems, _, _ = compare_file(REFERENCE_DIR / "sweep.csv", path)
        assert (not problems) == ok, (column, problems)
