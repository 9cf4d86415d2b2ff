"""Tests of the benchmark itself (not of squeezesim).

    python3 -m pytest bench/test_bench.py

They show that the printed metrics match BENCHMARK.json and that every
check of every workload can fail.  Most run in seconds; the oracle gate
test runs the real plan twice (about 20 s), since the gate's power is a
property of its segment count.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import layers
import run
import workloads
from tracing import Tracer
from workloads import Analytic, CliCold, Oracle, Tally

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.FAMILIES)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    bounds = {}
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert len(names) == len(set(names))
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_metric_tables_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert declared == [(n, u, b) for n, (u, b) in run.END_TO_END.items()]
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(n, u, b) for n, (u, b) in layers.PER_LAYER.items()]


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    outer_row = summary["outer"]
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - summary["inner"]["total_s"])
    assert 0.009 <= outer_row["self_s"] < 0.03
    assert tracer.parents == [-1, 0, 0]


def test_times_scale_by_the_speed_kernel(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "kernel_seconds", lambda: speed.REFERENCE_S / 2.0)
    plain, scaled = Tally(), Tally(scaled=True)
    for tally in (plain, scaled):
        tally.calibrate()
        tally.attempt(time.sleep, 0.02)
    assert plain.kernel_seconds == [] and scaled.kernel_seconds == [speed.REFERENCE_S / 2.0]
    assert scaled.op_seconds[0] == pytest.approx(2.0 * plain.op_seconds[0], rel=0.25)


def test_bisection_reference():
    assert inputs.bisection_roots(0.0, 2.0) == pytest.approx([1.0])  # u + u^3 = 2
    alpha = 3.0  # bistable: three roots inside the window
    lo, hi = inputs.beta_span(alpha)
    roots = inputs.bisection_roots(alpha, 0.5 * (lo / 0.5 + hi / 1.5))
    assert len(roots) == 3


# ---- cli-cold: outputs through cli.main in this process, then broken copies


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    family = CliCold(ROOT, 5, work)
    tally = Tally()
    family.warm_round(tally)
    assert tally.failed == 0 and tally.problems == []
    return family


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    k = header.index(column)
    rows = [line.split(",") for line in lines[1:]]
    edit(rows, k)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _bump(rows, k, i, delta):
    rows[i][k] = repr(float(rows[i][k]) + delta)


CLI_BREAKS = {
    "threshold fraction": lambda w: _edit_json(
        w / "threshold" / "threshold.json", lambda d: d["at_power"].update(rho=d["at_power"]["rho"] * 1.001)),
    "zero-power row": lambda w: _edit_csv(w / "sweep" / "sweep.csv", "s_min_db", lambda r, k: _bump(r, k, 0, -1e-6)),
    "threshold flag": lambda w: _edit_csv(w / "sweep" / "sweep.csv", "threshold_flag",
                                          lambda r, k: r[3].__setitem__(k, "1")),
    "uncertainty product": lambda w: _edit_csv(w / "sweep" / "sweep.csv", "s_max_db", lambda r, k: _bump(r, k, 5, -5.0)),
    "spectrum vs sweep": lambda w: _edit_json(
        w / "spectrum" / "spectrum_summary.json", lambda d: d.update(squeezing_db=d["squeezing_db"] + 1e-6)),
    "phase-scan extremes": lambda w: _edit_csv(w / "phase-scan" / "phase_scan.csv", "true_db",
                                               lambda r, k: [_bump(r, k, i, 1e-6) for i in range(len(r))]),
    "fit rejected": lambda w: _edit_json(w / "fit" / "fit_stats.json", lambda d: d["traces"][0].update(n_rejected=1)),
    "fit fsr": lambda w: _edit_json(w / "fit" / "fit_stats.json",
                                    lambda d: d["traces"][0].update(fsr_hz=d["traces"][0]["fsr_hz"] * 1.002)),
}


@pytest.mark.parametrize("name", sorted(CLI_BREAKS))
def test_cli_checks_can_fail(cli_outputs, tmp_path, name):
    family = cli_outputs
    work = tmp_path / "copy"
    shutil.copytree(family.work, work)
    family_copy = CliCold.__new__(CliCold)
    family_copy.__dict__.update(family.__dict__, work=work)
    CLI_BREAKS[name](work)
    tally = Tally()
    family_copy.check(tally)
    assert tally.problems, name


def test_fit_check_rejects_another_linewidth(tmp_path):
    # a comb 5% wider than the one the check expects
    wide = CliCold(ROOT, 5, tmp_path, kappa_scale=1.05)
    workloads.import_squeezesim(ROOT)
    from squeezesim import cli

    assert cli.main(wide.argv("fit")) == 0
    tally = Tally()
    workloads.check_fit(tmp_path / "fit", wide.trace, tally)
    assert tally.problems == []
    tally = Tally()
    workloads.check_fit(tmp_path / "fit", inputs.comb_trace(5), tally)
    assert any("linewidth" in p for p in tally.problems)


# ---- analytic: one round, then broken copies of its outputs


@pytest.fixture(scope="module")
def analytic_round():
    family = Analytic(ROOT, 5)
    out = family.operations(Tally())
    tally = Tally()
    family.check(out, tally)
    assert tally.problems == []
    return family, out


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


ANALYTIC_BREAKS = {
    "sweep vacuum": lambda o, f: o.update(sweep=dataclasses.replace(
        o["sweep"], var_min=_with(o["sweep"].var_min, 0, 1.0 - 1e-9))),
    "sweep loss floor": lambda o, f: o.update(sweep=dataclasses.replace(
        o["sweep"], var_min=_with(o["sweep"].var_min, 7, 1.0 - f.eta - 1e-6))),
    "grid period mean": lambda o, f: o.update(grid=dataclasses.replace(
        o["grid"], var_max=_with(o["grid"].var_max, 4, o["grid"].var_max[4] * (1 + 1e-8)))),
    # 20 % more pair correlation than the state allows: still positive
    # definite, but its smallest symplectic eigenvalue falls below 1
    "grid symplectic": lambda o, f: o.update(grid=dataclasses.replace(
        o["grid"], m_corr=_with(o["grid"].m_corr, 2, o["grid"].m_corr[2] * 1.2))),
    "calibration x_opt": lambda o, f: o["calibrate"].__setitem__(0, dataclasses.replace(
        o["calibrate"][0], x_opt=o["calibrate"][0].x_opt + 2e-7)),
    "calibration level": lambda o, f: o["calibrate"].__setitem__(1, dataclasses.replace(
        o["calibrate"][1], var_max=o["calibrate"][1].var_max * (1 + 1e-8))),
    "steady root": lambda o, f: o["solve"].__setitem__(1, dataclasses.replace(
        o["solve"][1], rho=o["solve"][1].rho * (1 + 1e-7))),
}


@pytest.mark.parametrize("name", sorted(ANALYTIC_BREAKS))
def test_analytic_checks_can_fail(analytic_round, name):
    family, out = analytic_round
    broken = dict(out, calibrate=list(out["calibrate"]), solve=list(out["solve"]))
    ANALYTIC_BREAKS[name](broken, family)
    tally = Tally()
    family.check(broken, tally)
    assert tally.problems, name


# ---- oracle


def test_oracle_gate_passes_and_rejects_a_wrong_efficiency():
    """At eta = 0.602, expected bins computed for eta = 0.5 must fail the gate."""
    family = Oracle(ROOT, 1)
    tally = Tally()
    right = family.plan(tally)
    wrong = family.plan(tally, expected_eta_total=0.5)
    assert tally.failed == 0
    assert workloads.oracle_gate(right, inputs.ORACLE_PUMPS) == []
    problems = workloads.oracle_gate(wrong, inputs.ORACLE_PUMPS)
    assert any("score" in p for p in problems), problems
    # the perturbation alone stays under the per-bin bound: only the
    # aggregate catches it
    assert all("score" in p for p in problems)


def test_oracle_zero_pump_check_can_fail():
    workloads.import_squeezesim(ROOT)
    from squeezesim.langevin import BinCheck, CrossValidation

    check = BinCheck(omega=1.0, theta=0.0, measured=1.0, expected=1.0 + 1e-9, sigma=0.05,
                     z=0.0, delta_db=0.0, passed=True)
    cv = CrossValidation(checks=(check,), pass_fraction=1.0, passed=True, n_sigma=3.0,
                         max_db_err=0.1, min_pass_fraction=0.95, n_segments=400, runtime_s=0.0)
    assert any("zero-pump" in p for p in workloads.oracle_gate([cv], (0.0,)))
