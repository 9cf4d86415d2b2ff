"""The benchmark's workloads: set-up, timed operations and output checks.

``cli-cold`` runs the commands a user types, each in a fresh interpreter;
``oracle`` runs the stochastic cross-validation of criterion 3 in process;
``analytic`` runs the array-producing library calls in process, warm.
Every check compares against a closed form, a physical property or the
generation parameters of the input, never against a saved output.

squeezesim is imported inside the set-up functions, not at module level,
so that the set-up probes time the import.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import speed

REFERENCE_CFG = "configs/reference.cfg"


@dataclass
class Tally:
    """Operations attempted, failed and their times; what the checks found wrong.

    With ``scaled`` set, :meth:`calibrate` runs the speed kernel and every
    later operation time is scaled by ``speed.REFERENCE_S`` over its time
    (see ``speed.py``); otherwise times are plain wall times.
    """

    scaled: bool = False
    attempted: int = 0
    failed: int = 0
    op_seconds: list[float] = field(default_factory=list)
    kernel_seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    _scale: float = 1.0

    def check(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def calibrate(self) -> None:
        if self.scaled:
            self.kernel_seconds.append(speed.kernel_seconds())
            self._scale = speed.REFERENCE_S / self.kernel_seconds[-1]

    def attempt(self, fn, *args, **kwargs):
        """Run and time one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # one operation's failure must not end the run
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.op_seconds.append((time.perf_counter() - t0) * self._scale)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SQUEEZESIM_LOG", None)
    return env


def import_squeezesim(root: Path):
    """Import the package from the checkout's ``src``, never an installed copy."""
    src = str(root / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    import squeezesim

    where = Path(squeezesim.__file__).resolve()
    if not where.is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"squeezesim imported from {where}, not from {root / 'src'}")
    return squeezesim


def config_values(path: Path) -> dict[str, str]:
    """Flat ``key = value`` pairs of a config file, comments dropped."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if "=" in line:
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


# --------------------------------------------------------------- cli-cold

CLI_COMMANDS = ("threshold", "spectrum", "sweep", "phase-scan", "fit")
KAPPA_MAX_REL = 0.08  # one dip, about 8 standard deviations of a single fit
KAPPA_MEAN_REL = 0.005  # the mean over ~207 dips, about 7 standard errors


class CliCold:
    """Five commands, one after another, each in a fresh interpreter."""

    def __init__(self, root: Path, seed: int, work: Path, *, kappa_scale: float = 1.0):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.trace = inputs.comb_trace(seed, kappa_scale=kappa_scale)
        self.trace_path = work / "trace.csv"
        inputs.write_trace_csv(self.trace, self.trace_path)
        cfg = config_values(root / REFERENCE_CFG)
        self.threshold_fraction = float(cfg["calibration.threshold_fraction"])
        self.power_mw = float(cfg["drive.power_mw"])
        self.eta = float(np.prod([float(cfg[k]) for k in (
            "detection.eta_couple", "detection.eta_prop", "detection.eta_pd")])
            * float(cfg["detection.visibility"]) ** 2)

    def argv(self, command: str) -> list[str]:
        if command == "fit":
            args = ["fit", str(self.trace_path)]
        else:
            args = [command, "--config", REFERENCE_CFG]
        return args + ["--out", str(self.work / command)]

    def round(self, tally: Tally) -> None:
        for command in CLI_COMMANDS:
            cmd = [sys.executable, "-m", "squeezesim", *self.argv(command)]
            tally.calibrate()
            proc = tally.attempt(subprocess.run, cmd, cwd=self.root, env=self.env,
                                 stdout=subprocess.DEVNULL, check=True)
            if proc is None:  # the command failed; its outputs are incomplete
                return
        self.check(tally)

    def warm_round(self, tally: Tally, span=None) -> None:
        """The same commands through ``cli.main`` in this process, imports warm.

        ``span(name)`` is entered around each call when given.
        """
        import_squeezesim(self.root)
        from squeezesim import cli

        for command in CLI_COMMANDS:
            tally.calibrate()
            with span(f"cli.main.{command}") if span else contextlib.nullcontext():
                code = tally.attempt(cli.main, self.argv(command))
            if code is None:
                return
            if code != 0:
                tally.failed += 1
                return
        self.check(tally)

    def check(self, tally: Tally) -> None:
        try:
            self._check_analytic_commands(tally)
            check_fit(self.work / "fit", self.trace, tally)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            tally.check(False, f"cli-cold: unreadable output: {exc!r}")

    def _check_analytic_commands(self, tally: Tally) -> None:
        w = self.work
        thr = json.loads((w / "threshold" / "threshold.json").read_text())
        ratio = thr["at_power"]["rho"] / thr["threshold_intracavity_photons"]
        tally.check(
            math.isclose(ratio, self.threshold_fraction, rel_tol=1e-9),
            f"threshold: rho/rho_th = {ratio!r}, config fraction {self.threshold_fraction!r}",
        )
        tally.check(thr["at_power"]["below_threshold"] is True, "threshold: not below threshold")

        with open(w / "sweep" / "sweep.csv", newline="") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        tally.check(all(r["threshold_flag"] == 0 for r in rows), "sweep: a point is flagged")
        zero = [r for r in rows if r["power_mw"] == 0.0]
        tally.check(
            len(zero) == 1 and abs(zero[0]["s_min_db"]) <= 1e-12 and abs(zero[0]["s_max_db"]) <= 1e-12,
            "sweep: the 0 mW row is not 0 dB",
        )
        for r in rows:
            # var_min*var_max >= 1, and var_min >= 1 - eta (the loss floor)
            tally.check(r["s_min_db"] + r["s_max_db"] >= -1e-9,
                        f"sweep: var_min*var_max < 1 at {r['power_mw']} mW")
            tally.check(10.0 ** (r["s_min_db"] / 10.0) >= 1.0 - self.eta - 1e-9,
                        f"sweep: var_min below 1 - eta at {r['power_mw']} mW")
        at_power = [r for r in rows if r["power_mw"] == self.power_mw]
        tally.check(len(at_power) == 1, f"sweep: no {self.power_mw} mW row")
        row = at_power[0]

        summary = json.loads((w / "spectrum" / "spectrum_summary.json").read_text())
        tally.check(abs(summary["squeezing_db"] + row["s_min_db"]) <= 1e-9,
                    "spectrum and sweep disagree on squeezing")
        tally.check(abs(summary["anti_squeezing_db"] - row["s_max_db"]) <= 1e-9,
                    "spectrum and sweep disagree on anti-squeezing")

        with open(w / "phase-scan" / "phase_scan.csv", newline="") as fh:
            true_db = [float(r["true_db"]) for r in csv.DictReader(fh)]
        tally.check(abs(min(true_db) + summary["squeezing_db"]) <= 1e-9,
                    "phase-scan minimum disagrees with the spectrum summary")
        tally.check(abs(max(true_db) - summary["anti_squeezing_db"]) <= 1e-9,
                    "phase-scan maximum disagrees with the spectrum summary")


def check_fit(out: Path, trace: inputs.CombTrace, tally: Tally) -> None:
    """Every generated dip is found once, none rejected, with its linewidth."""
    stats = json.loads((out / "fit_stats.json").read_text())
    fits = json.loads((out / "fits.json").read_text())
    n = trace.centers_nm.size
    (per_trace,) = stats["traces"]
    tally.check(per_trace["n_detected"] == n and per_trace["n_rejected"] == 0 and len(fits) == n,
                f"fit: {per_trace['n_detected']} detected, {per_trace['n_rejected']} rejected, "
                f"{len(fits)} fitted of {n} generated")
    centers = np.array([f["center_nm"] for f in fits])
    kappa = np.array([f["kappa"] for f in fits])
    match = np.searchsorted(trace.centers_nm, centers)
    match = np.clip(match, 1, n - 1)
    left_closer = np.abs(centers - trace.centers_nm[match - 1]) < np.abs(centers - trace.centers_nm[match])
    match = match - left_closer
    tally.check(np.unique(match).size == len(fits), "fit: two fits share one generated dip")
    tally.check(np.all(np.abs(centers - trace.centers_nm[match]) <= 1e-3),
                "fit: a center is more than 1 pm from its generated dip")
    rel = kappa / trace.kappa[match] - 1.0
    tally.check(np.all(np.abs(rel) <= KAPPA_MAX_REL),
                f"fit: largest linewidth error {np.max(np.abs(rel)):.4f} > {KAPPA_MAX_REL}")
    tally.check(abs(float(np.mean(rel))) <= KAPPA_MEAN_REL,
                f"fit: mean linewidth error {np.mean(rel):.5f} beyond {KAPPA_MEAN_REL}")
    fsr = per_trace["fsr_hz"]
    tally.check(fsr is not None and abs(fsr / inputs.TRACE_FSR_HZ - 1.0) <= 1e-3,
                f"fit: FSR {fsr!r} Hz vs {inputs.TRACE_FSR_HZ!r}")


def setup_cli(root: Path, seed: int):
    import_squeezesim(root)
    from squeezesim import cli  # noqa: F401  (what every command imports)
    from squeezesim.config import load_config

    return load_config(root / REFERENCE_CFG)


# ----------------------------------------------------------------- oracle

PER_BIN_Z = 6.0
SCORE_Z = 4.5


class Oracle:
    """``cross_validate`` at criterion 3's model, pump levels, frequencies and angles."""

    def __init__(self, root: Path, seed: int):
        import_squeezesim(root)
        from squeezesim import langevin
        from squeezesim.params import HBAR, PumpDrive, ResonatorModel
        from squeezesim.steady_state import steady_state_on_branch, steady_state_roots

        self._langevin = langevin  # looked up per call, so a traced run sees its wrappers
        eta_esc = inputs.ORACLE_ETA_ESC
        hk = 1.0
        self.model = ResonatorModel(
            omega0=1.2074690e15, kappa_i=(1.0 - eta_esc) * 2.0 * hk,
            kappa_e=eta_esc * 2.0 * hk, delta=2.0 * hk, d2=0.0, g0=1.0,
        )
        self.steadies = []
        for x in inputs.ORACLE_PUMPS:
            rho = x * hk / self.model.g0
            flux = rho * (hk * hk + (self.model.delta - x * hk) ** 2) / self.model.kappa_e
            pump = PumpDrive(power_on_chip=flux * HBAR * self.model.omega0, flux=flux,
                             a_in=math.sqrt(flux))
            roots = steady_state_roots(self.model, pump)
            index = int(np.argmin(np.abs(np.asarray(roots) - rho)))
            self.steadies.append(steady_state_on_branch(self.model, pump, index))
        self.omegas = np.geomspace(0.01 * self.model.kappa, 3.0 * self.model.kappa, 5)
        self.seeds = inputs.oracle_seeds(seed)
        self.first = None

    def plan(self, tally: Tally, *, expected_eta_total=None) -> list:
        """One ``cross_validate`` per pump level; None where one failed."""
        cvs = []
        for steady, s in zip(self.steadies, self.seeds):
            tally.calibrate()
            cvs.append(tally.attempt(
                self._langevin.cross_validate, self.model, steady, self.omegas,
                eta_total=inputs.ORACLE_ETA, n_segments=inputs.ORACLE_SEGMENTS, seed=s,
                expected_eta_total=expected_eta_total,
            ))
        return cvs

    def round(self, tally: Tally) -> None:
        """One plan; the first is gated, later ones must repeat it bit for bit."""
        cvs = self.plan(tally)
        bins = [None if cv is None else [(c.measured, c.sigma) for c in cv.checks] for cv in cvs]
        if self.first is None:
            self.first = bins
            for problem in oracle_gate(cvs, inputs.ORACLE_PUMPS):
                tally.check(False, "oracle: " + problem)
        else:
            tally.check(bins == self.first, "oracle: a plan differs from the first at the same seed")


def oracle_gate(cvs: list, pumps) -> list[str]:
    """Problems found in one plan's bins; empty when the plan passes.

    A Hann periodogram bin of a Gaussian record is exponential, so the
    mean ``m`` of N segments has mean ``e`` (the expected bin) and
    standard deviation ``e/sqrt(N)``, and ``N*m/e`` is Gamma(N, 1).  The
    gate has three parts (false-alarm rates in the README):

    - at zero pump every expected bin is exactly shot noise;
    - every bin has ``|z| <= PER_BIN_Z`` with ``z = (m - e)*sqrt(N)/e``;
    - a score test for the detection efficiency.  An error in eta moves
      every bin by a multiple of ``e - 1`` (bins are linear in eta), so
      ``T = sum (e - 1)(m - e) / (e^2/N)`` has mean 0 when the
      expectation is right.  The three angles of one frequency share one
      record; their correlation is bounded by 1 (Cauchy-Schwarz within
      each frequency), while frequencies and pump levels are independent.
      ``|T| / sd_bound <= SCORE_Z``.
    """
    if any(cv is None for cv in cvs):
        return ["a cross-validation did not run"]
    problems = []
    for x, cv in zip(pumps, cvs):
        if x == 0.0:
            worst = max(abs(c.expected - 1.0) for c in cv.checks)
            if worst > 1e-12:
                problems.append(f"zero-pump expected bins differ from 1 by {worst:.3e}")
        root_n = math.sqrt(cv.n_segments)
        for c in cv.checks:
            z = (c.measured - c.expected) * root_n / c.expected
            if not abs(z) <= PER_BIN_Z:
                problems.append(f"x={x}: |z| = {abs(z):.2f} at omega={c.omega:.4g}, theta={c.theta:.3f}")
    t = score_statistic(cvs)
    if not abs(t) <= SCORE_Z:
        problems.append(f"detection-efficiency score |t| = {abs(t):.2f} > {SCORE_Z}")
    return problems


def score_statistic(cvs: list) -> float:
    """T / sd_bound of :func:`oracle_gate`; 0 when no bin depends on eta."""
    score, var_bound = 0.0, 0.0
    for cv in cvs:
        n = cv.n_segments
        groups: dict[float, float] = {}
        for c in cv.checks:
            weight = (c.expected - 1.0) * n / (c.expected * c.expected)
            score += weight * (c.measured - c.expected)
            groups[c.omega] = groups.get(c.omega, 0.0) + abs(weight) * c.expected / math.sqrt(n)
        var_bound += sum(v * v for v in groups.values())
    return score / math.sqrt(var_bound) if var_bound > 0.0 else 0.0


# --------------------------------------------------------------- analytic


class Analytic:
    """Warm library throughput on the reference model: no import, no Langevin."""

    def __init__(self, root: Path, seed: int):
        import_squeezesim(root)
        from squeezesim import spectra, steady_state
        from squeezesim.config import load_config
        from squeezesim.params import HBAR, PumpDrive, ResonatorModel

        self._spectra = spectra  # looked up per call, so a traced run sees its wrappers
        self._steady_state = steady_state
        cfg = load_config(root / REFERENCE_CFG)
        model = self.model = cfg.model
        self.eta, self.omega, self.l = cfg.eta_total, cfg.omega, cfg.mode_index
        self.policy = cfg.branch_policy
        draws = inputs.analytic_draws(seed)
        p_cap = 0.98 * steady_state.threshold_power(model, self.l)
        self.powers = p_cap * draws.power_fractions
        pump = PumpDrive.from_power(cfg.require_power(), model.omega0)
        self.steady = steady_state.solve_steady_state(model, pump, self.policy)
        self.vacuum = steady_state.solve_steady_state(model, PumpDrive.from_power(0.0, model.omega0), self.policy)
        self.grid_omegas = 2.0 * math.pi * draws.grid_omegas_hz
        self.thetas = np.linspace(0.0, math.pi, inputs.GRID_THETAS)

        kappa, hk = model.kappa, 0.5 * model.kappa
        self.calibrations = [
            (ResonatorModel(omega0=model.omega0, kappa_i=(1.0 - esc) * kappa,
                            kappa_e=esc * kappa, delta=0.0, d2=0.0, g0=1.0), w, esc, eta)
            for w, esc, eta in draws.calibrations
        ]
        self.cal_pump = PumpDrive.from_power(50e-3, model.omega0)

        self.cells = []  # (model, pump, alpha, beta)
        for alpha, fractions in zip(draws.alphas, draws.beta_fractions):
            detuned = ResonatorModel(omega0=model.omega0, kappa_i=model.kappa_i,
                                     kappa_e=model.kappa_e, delta=alpha * hk, d2=model.d2,
                                     g0=model.g0)
            lo, hi = inputs.beta_span(float(alpha))
            for f in fractions:
                beta = lo + float(f) * (hi - lo)
                flux = beta * hk ** 3 / (detuned.g0 * detuned.kappa_e)
                drive = PumpDrive(power_on_chip=flux * HBAR * model.omega0, flux=flux,
                                  a_in=math.sqrt(flux))
                self.cells.append((detuned, drive, float(alpha), beta))
        self.first = None

    def operations(self, tally: Tally) -> dict:
        """One pass over the four kinds of operation; returns their outputs."""
        sp = self._spectra
        tally.calibrate()
        out = {}
        out["sweep"] = tally.attempt(sp.power_sweep, self.model, self.powers, omega=self.omega,
                                     l=self.l, eta_total=self.eta, branch_policy=self.policy)
        out["grid"] = tally.attempt(sp.spectrum_grid, self.model, self.steady, self.grid_omegas,
                                    self.thetas, l=self.l, eta_total=self.eta)
        hk = 0.5 * self.model.kappa
        out["calibrate"] = [
            tally.attempt(sp.calibrate_g0_to_optimum, m, self.cal_pump, omega=w * hk, eta_total=eta)
            for m, w, _, eta in self.calibrations
        ]
        out["solve"] = [
            tally.attempt(self._steady_state.solve_steady_state, m, pump, policy)
            for m, pump, _, _ in self.cells
            for policy in ("lowest", "highest")
        ]
        return out

    def round(self, tally: Tally) -> None:
        """The operations; the first round is checked, later ones must repeat it."""
        out = self.operations(tally)
        if self.first is None:
            self.first = _fingerprint(out)
            self.check(out, tally)
        else:
            tally.check(_fingerprint(out) == self.first, "analytic: a round differs from the first")

    def check(self, out: dict, tally: Tally) -> None:
        if any(v is None for v in (out["sweep"], out["grid"], *out["calibrate"], *out["solve"])):
            tally.check(False, "analytic: an operation did not run")
            return
        eta, floor = self.eta, 1.0 - self.eta - 1e-9
        sw = out["sweep"]
        tally.check(not np.any(sw.above_threshold), "sweep: a point below 0.98 P_th is flagged")
        tally.check(self.powers[0] == 0.0 and sw.var_min[0] == 1.0 and sw.var_max[0] == 1.0,
                    "sweep: zero pump is not vacuum")
        # the sweep reports the matched (sum-mode) quadratures only; their
        # symplectic eigenvalue is sqrt(var_min*var_max)
        tally.check(np.all(np.sqrt(sw.var_min * sw.var_max) >= 1.0 - 1e-9),
                    "sweep: sum-mode symplectic eigenvalue below 1")
        tally.check(np.all(sw.var_min >= floor), "sweep: var_min below 1 - eta")

        grid = out["grid"]
        nu = [inputs.min_symplectic_eigenvalue(inputs.pair_covariance(n, m, c, eta))
              for n, m, c in zip(grid.n_signal, grid.n_idler, grid.m_corr)]
        tally.check(min(nu) >= 1.0 - 1e-9, f"grid: symplectic eigenvalue {min(nu)!r} < 1")
        tally.check(np.all(grid.var_min >= floor), "grid: var_min below 1 - eta")
        period_mean = grid.variance[:, :-1].mean(axis=1)  # thetas[:-1] tile [0, pi) evenly
        tally.check(np.allclose(period_mean, 0.5 * (grid.var_min + grid.var_max), rtol=1e-9, atol=0.0),
                    "grid: row mean over a theta period is not (var_min + var_max)/2")
        vac = self._spectra.spectrum_grid(self.model, self.vacuum, self.grid_omegas, self.thetas,
                                          l=self.l, eta_total=eta)
        tally.check(np.max(np.abs(vac.variance - 1.0)) <= 1e-12, "grid: zero pump is not vacuum")

        for (_, w, esc, e), cal in zip(self.calibrations, out["calibrate"]):
            x_ref = math.sqrt((1.0 + w * w) / 3.0)
            tally.check(abs(cal.x_opt - x_ref) <= 1e-7,
                        f"calibrate: x_opt {cal.x_opt!r} vs sqrt((1 + w^2)/3) = {x_ref!r}")
            tally.check(math.isclose(cal.var_min, 1.0 - (2.0 / 3.0) * esc * e, rel_tol=1e-9),
                        f"calibrate: var_min {cal.var_min!r} at eta_esc={esc}, eta={e}")
            tally.check(math.isclose(cal.var_max, 1.0 + 2.0 * esc * e, rel_tol=1e-9),
                        f"calibrate: var_max {cal.var_max!r} at eta_esc={esc}, eta={e}")

        hk = 0.5 * self.model.kappa
        solves = iter(out["solve"])
        for m, _, alpha, beta in self.cells:
            low, high = next(solves), next(solves)
            ref = [u * hk / m.g0 for u in inputs.bisection_roots(alpha, beta)]
            ok = (len(low.all_rho) == len(ref)
                  and math.isclose(low.rho, ref[0], rel_tol=1e-8)
                  and math.isclose(high.rho, ref[-1], rel_tol=1e-8))
            tally.check(ok, f"solve: alpha={alpha!r} beta={beta!r}: {low.all_rho} vs bisection {ref}")


def _fingerprint(out: dict):
    if any(v is None for v in (out["sweep"], out["grid"], *out["calibrate"], *out["solve"])):
        return None
    return (
        out["sweep"].var_min.tobytes(), out["sweep"].var_max.tobytes(),
        out["grid"].variance.tobytes(),
        tuple(c.g0 for c in out["calibrate"]),
        tuple(s.rho for s in out["solve"]),
    )


SETUPS = {"cli-cold": setup_cli, "oracle": Oracle, "analytic": Analytic}
