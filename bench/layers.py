"""Traced layer profile: every per-layer metric in one run.

The profile is the same whichever workload is named, so every traced run
reports every layer:

1. two fresh interpreters time ``import squeezesim.cli``, one of them under
   ``-X importtime`` for the cumulative cost of the scipy sub-packages;
2. untraced, one round of each family: the five commands cold (one
   fresh interpreter each), the same commands through ``cli.main`` with
   imports warm, one oracle plan and one analytic round.  These give the
   single-round figures of each operation (``cli-cold.*``, ``oracle.*``,
   ``analytic.*``);
3. the public functions of ``params``, ``config``, ``steady_state``,
   ``spectra``, ``langevin`` and ``traces`` are swapped for timing
   wrappers, the generator's ``standard_normal`` and ``numpy.fft.rfft``
   too, and the three in-process rounds run again, traced;
4. the spans are summarised and written to ``bench/out/spans-<workload>.json``.

Pairs of untraced and traced in-process rounds of the named workload give
the tracing overhead (see ``overhead_pct``).  All outputs are checked as in
the untraced runs.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import workloads
from tracing import Tracer
from workloads import CliCold, Oracle, Analytic, Tally, child_env

TRACED = {
    "squeezesim.params": ("wavelength_to_omega", "kappa_from_q", "escape_efficiency",
                          "photon_flux", "detection_chain_total"),
    "squeezesim.config": ("load_config",),
    "squeezesim.steady_state": ("solve_steady_state", "steady_state_on_branch",
                                "steady_state_roots", "cubic_roots_scaled",
                                "threshold_intracavity", "threshold_power"),
    "squeezesim.spectra": ("pair_scattering", "output_covariance", "homodyne_variance",
                           "optimal_quadratures_from_cov", "symplectic_eigenvalues",
                           "spectrum_grid", "power_sweep", "calibrate_g0_to_optimum",
                           "phase_scan_trace"),
    "squeezesim.langevin": ("cross_validate", "simulate_pair", "discretize",
                            "stationary_covariance", "expected_bin_value"),
    "squeezesim.traces": ("load_trace", "normalize_trace", "detect_resonances",
                          "fit_resonance", "analyze_trace", "estimate_fsr", "q_statistics"),
}

# every per-layer metric: unit and the better direction, in the order printed
PER_LAYER = {
    "cli-cold.threshold_s": ("s", "lower"),
    "cli-cold.spectrum_s": ("s", "lower"),
    "cli-cold.sweep_s": ("s", "lower"),
    "cli-cold.phase_scan_s": ("s", "lower"),
    "cli-cold.fit_s": ("s", "lower"),
    "oracle.crossval_s": ("s", "lower"),
    "analytic.sweep_points_per_s": ("points/s", "higher"),
    "analytic.grid_cells_per_s": ("cells/s", "higher"),
    "analytic.calibrations_per_s": ("calibrations/s", "higher"),
    "analytic.solves_per_s": ("solves/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.import.scipy_signal_s": ("s", "lower"),
    "cli.import.scipy_optimize_s": ("s", "lower"),
    "cli.import.scipy_ndimage_s": ("s", "lower"),
    "cli.main.threshold_s": ("s", "lower"),
    "cli.main.spectrum_s": ("s", "lower"),
    "cli.main.sweep_s": ("s", "lower"),
    "cli.main.phase_scan_s": ("s", "lower"),
    "cli.main.fit_s": ("s", "lower"),
    "config.load_config_ms": ("ms", "lower"),
    "steady_state.solve_steady_state_us": ("us", "lower"),
    "steady_state.cubic_roots_scaled_us": ("us", "lower"),
    "steady_state.solve_steady_state_calls": ("count", "lower"),
    "spectra.pair_scattering_us": ("us", "lower"),
    "spectra.output_covariance_us": ("us", "lower"),
    "spectra.homodyne_variance_us": ("us", "lower"),
    "spectra.optimal_quadratures_from_cov_us": ("us", "lower"),
    "spectra.spectrum_grid_ms": ("ms", "lower"),
    "spectra.power_sweep_ms": ("ms", "lower"),
    "spectra.calibrate_g0_to_optimum_ms": ("ms", "lower"),
    "spectra.phase_scan_trace_ms": ("ms", "lower"),
    "spectra.pair_scattering_calls": ("count", "lower"),
    "langevin.simulate_pair.w0_s": ("s", "lower"),
    "langevin.simulate_pair.w1_s": ("s", "lower"),
    "langevin.simulate_pair.w2_s": ("s", "lower"),
    "langevin.simulate_pair.w3_s": ("s", "lower"),
    "langevin.simulate_pair.w4_s": ("s", "lower"),
    "langevin.segment_steps": ("count", "lower"),
    "langevin.ns_per_segment_step": ("ns", "lower"),
    "langevin.normals_s": ("s", "lower"),
    "langevin.rfft_s": ("s", "lower"),
    "langevin.propagate_s": ("s", "lower"),
    "langevin.discretize_ms": ("ms", "lower"),
    "langevin.expected_bin_value_ms": ("ms", "lower"),
    "langevin.criterion3_est_s": ("s", "lower"),
    "traces.load_trace_s": ("s", "lower"),
    "traces.normalize_trace_s": ("s", "lower"),
    "traces.detect_resonances_ms": ("ms", "lower"),
    "traces.fit_resonance_ms": ("ms", "lower"),
    "traces.fits": ("count", "higher"),
    "traces.rejected": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

CRITERION3_SEGMENTS = 17000
OVERHEAD_SECONDS = 5.0
IMPORTTIME_PACKAGES = ("scipy.signal", "scipy.optimize", "scipy.ndimage")
_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def cold_imports(root: Path) -> dict[str, float]:
    """Seconds of a fresh ``import squeezesim.cli``, and of the scipy parts in it."""
    env = child_env(root)
    probe = subprocess.run(
        [sys.executable, str(root / "bench" / "probe.py"), "import"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    out = {"cli.import_s": float(probe.stdout.split()[-1])}
    timed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import squeezesim.cli"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    cumulative = {}
    for line in timed.stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            cumulative[match.group(3).strip()] = int(match.group(2)) * 1e-6
    for package in IMPORTTIME_PACKAGES:
        # a package that is no longer imported costs nothing
        out[f"cli.import.{package.replace('.', '_')}_s"] = cumulative.get(package, 0.0)
    return out


def install(tracer: Tracer) -> None:
    for name, functions in TRACED.items():
        module = importlib.import_module(name)
        for fn in functions:
            tracer.patch(module, fn)
    tracer.patch_numpy()


def overhead_pct(one_round, traced: float) -> float:
    """Median extra time of a traced round over an untraced one, in percent.

    The first pair is the profile's traced round and an untraced round run
    right after it, so neither pays for first calls.  More pairs, traced
    with a tracer whose spans are dropped, follow while the pairs have
    taken less than ``OVERHEAD_SECONDS``.
    """
    start = time.perf_counter()
    one_round()
    ratios = [traced / (time.perf_counter() - start)]
    while time.perf_counter() - start < OVERHEAD_SECONDS:
        t0 = time.perf_counter()
        one_round()
        plain = time.perf_counter() - t0
        extra = Tracer()
        install(extra)
        try:
            t0 = time.perf_counter()
            one_round(extra.span)
            ratios.append((time.perf_counter() - t0) / plain)
        finally:
            extra.restore()
    return (statistics.median(ratios) - 1.0) * 100.0


def profile(root: Path, work: Path, seed: int, workload: str, tally: Tally,
            spans_path: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); spans go to ``spans_path``."""
    metrics = cold_imports(root)

    cli_family = CliCold(root, seed, work)
    oracle = Oracle(root, seed)
    analytic = Analytic(root, seed)
    from squeezesim.langevin import segment_plan

    # untraced: the commands cold, then one in-process round of each family
    first = len(tally.op_seconds)
    cli_family.round(tally)
    for command, seconds in zip(workloads.CLI_COMMANDS, tally.op_seconds[first:]):
        metrics[f"cli-cold.{command.replace('-', '_')}_s"] = seconds
    families = {
        "cli-cold": lambda span=None: cli_family.warm_round(tally, span),
        "oracle": lambda span=None: oracle.round(tally),
        "analytic": lambda span=None: analytic.round(tally),
    }
    for name, one_round in families.items():
        first = len(tally.op_seconds)
        t0 = time.perf_counter()
        one_round()
        ops = tally.op_seconds[first:]
        if name == "oracle":
            metrics["oracle.crossval_s"] = time.perf_counter() - t0
        elif name == "analytic":
            n_cal = len(analytic.calibrations)
            metrics["analytic.sweep_points_per_s"] = analytic.powers.size / ops[0]
            metrics["analytic.grid_cells_per_s"] = analytic.grid_omegas.size * analytic.thetas.size / ops[1]
            metrics["analytic.calibrations_per_s"] = n_cal / sum(ops[2:2 + n_cal])
            metrics["analytic.solves_per_s"] = (len(ops) - 2 - n_cal) / sum(ops[2 + n_cal:])

    tracer = Tracer()
    install(tracer)
    try:
        for name, one_round in families.items():
            with tracer.span(f"bench.{name}"):
                one_round(tracer.span)
    finally:
        tracer.restore()
    metrics["trace.overhead_pct"] = overhead_pct(families[workload], tracer.durations(f"bench.{workload}")[0])
    tracer.dump(spans_path)
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def mean(name, scale):
        row = summary.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    for command in workloads.CLI_COMMANDS:
        metrics[f"cli.main.{command.replace('-', '_')}_s"] = mean(f"cli.main.{command}", 1.0)
    metrics["config.load_config_ms"] = mean("config.load_config", 1e3)

    metrics["steady_state.solve_steady_state_us"] = mean("steady_state.solve_steady_state", 1e6)
    metrics["steady_state.cubic_roots_scaled_us"] = mean("steady_state.cubic_roots_scaled", 1e6)
    metrics["steady_state.solve_steady_state_calls"] = calls("steady_state.solve_steady_state")

    for fn in ("pair_scattering", "output_covariance", "homodyne_variance",
               "optimal_quadratures_from_cov"):
        metrics[f"spectra.{fn}_us"] = mean(f"spectra.{fn}", 1e6)
    for fn in ("spectrum_grid", "power_sweep", "calibrate_g0_to_optimum", "phase_scan_trace"):
        metrics[f"spectra.{fn}_ms"] = mean(f"spectra.{fn}", 1e3)
    metrics["spectra.pair_scattering_calls"] = calls("spectra.pair_scattering")

    sim = tracer.durations("langevin.simulate_pair")
    n_freq = len(oracle.omegas)
    for i in range(n_freq):
        per_level = sim[i::n_freq]
        metrics[f"langevin.simulate_pair.w{i}_s"] = sum(per_level) / len(per_level)
    steps = len(oracle.steadies) * inputs.ORACLE_SEGMENTS * sum(
        segment_plan(oracle.model.kappa, float(w))[1] for w in oracle.omegas
    )
    sim_total = sum(sim)
    metrics["langevin.segment_steps"] = steps
    metrics["langevin.ns_per_segment_step"] = sim_total / steps * 1e9
    metrics["langevin.normals_s"] = tracer.children_of("langevin.simulate_pair", "numpy.standard_normal")
    metrics["langevin.rfft_s"] = tracer.children_of("langevin.simulate_pair", "numpy.rfft")
    metrics["langevin.propagate_s"] = summary["langevin.simulate_pair"]["self_s"]
    metrics["langevin.discretize_ms"] = mean("langevin.discretize", 1e3)
    metrics["langevin.expected_bin_value_ms"] = mean("langevin.expected_bin_value", 1e3)
    # criterion 3 runs the same plan at 17000 segments: scale the simulation,
    # keep the rest of cross_validate (expected bins, bookkeeping) as measured
    rest = summary["langevin.cross_validate"]["total_s"] - sim_total
    metrics["langevin.criterion3_est_s"] = sim_total * CRITERION3_SEGMENTS / inputs.ORACLE_SEGMENTS + rest

    metrics["traces.load_trace_s"] = mean("traces.load_trace", 1.0)
    metrics["traces.normalize_trace_s"] = mean("traces.normalize_trace", 1.0)
    metrics["traces.detect_resonances_ms"] = mean("traces.detect_resonances", 1e3)
    metrics["traces.fit_resonance_ms"] = mean("traces.fit_resonance", 1e3)
    stats = json.loads((work / "fit" / "fit_stats.json").read_text())
    (per_trace,) = stats["traces"]
    metrics["traces.fits"] = per_trace["n_detected"] - per_trace["n_rejected"]
    metrics["traces.rejected"] = per_trace["n_rejected"]

    return {name: (metrics[name], unit) for name, (unit, _) in PER_LAYER.items()}
