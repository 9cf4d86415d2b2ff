"""Mutation score of the tier-1 suite.

Each mutant is one (file, exact source snippet, replacement) row.  The
checkout is copied once, before anything runs; for each mutant that copy
is cloned to a temporary directory, the snippet is replaced there (it
must occur exactly once), and the tier-1 command runs with ``-x``.  An
edit to the checkout during a run therefore reaches no mutant.  A mutant
is killed when the suite fails; the first failing test and the seconds
it took are recorded.  One pytest process runs at a time, and the
checkout this reads is never written.  The summary is one JSON object on
stdout:

    python tools/mutate.py                    # every mutant
    python tools/mutate.py --only bool-is-real --tests tests/test_params.py

A full pass takes several minutes, so this is not part of tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file, snippet, replacement)
MUTANTS = {
    "eta-total-twice": (
        "src/squeezesim/spectra.py",
        "    eta = float(eta_total)\n",
        "    eta = float(eta_total) ** 2\n",
    ),
    "detected-vacuum-off-diagonal": (
        "src/squeezesim/spectra.py",
        "on, off = (1.0 - eta) * 1.0, (1.0 - eta) * 0.0",
        "on, off = (1.0 - eta) * 1.0, (1.0 - eta) * 1.0",
    ),
    "threshold-intracavity-divides-by-zero-kerr": (
        "src/squeezesim/steady_state.py",
        "    if model.g0 == 0.0:\n"
        "        return math.inf\n"
        "    return threshold_gain(model, l) / model.g0\n",
        "    return threshold_gain(model, l) / model.g0\n",
    ),
    "visibility-enters-once": (
        "src/squeezesim/params.py",
        "eta_couple * eta_prop * visibility ** 2 * eta_pd",
        "eta_couple * eta_prop * visibility * eta_pd",
    ),
    "cross-phase-factor-1": (
        "src/squeezesim/spectra.py",
        "delta_l = zero_pump_offset(model, l) - 2.0 * model.g0 * rho",
        "delta_l = zero_pump_offset(model, l) - 1.0 * model.g0 * rho",
    ),
    "polish-precomputed-1-plus-alpha2": (
        "src/squeezesim/steady_state.py",
        "    for _ in range(3):\n"
        "        fp = u * (3.0 * u - 4.0 * alpha) + 1.0 + alpha * alpha\n"
        "        if abs(fp) < 1e-9 * (1.0 + u * u + alpha * alpha):\n"
        "            return u\n"
        "        step = (u * (u * (u - 2.0 * alpha) + 1.0 + alpha * alpha) - beta) / fp\n",
        "    c = 1.0 + alpha * alpha\n"
        "    for _ in range(3):\n"
        "        fp = u * (3.0 * u - 4.0 * alpha) + c\n"
        "        if abs(fp) < 1e-9 * (1.0 + u * u + alpha * alpha):\n"
        "            return u\n"
        "        step = (u * (u * (u - 2.0 * alpha) + c) - beta) / fp\n",
    ),
    "cross-validation-extra-field": (
        "src/squeezesim/langevin.py",
        "    runtime_s: float\n",
        "    runtime_s: float\n    z_spread: float\n",
    ),
    "no-float-coercion": (
        "src/squeezesim/params.py",
        "            value = _as_float(name, value)\n"
        "            object.__setattr__(obj, name, value)\n",
        "            _as_float(name, value)\n",
    ),
    "bool-is-real": (
        "src/squeezesim/params.py",
        "isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)",
        "isinstance(value, (int, float, np.integer, np.floating))",
    ),
    "threshold-gain-other-root": (
        "src/squeezesim/steady_state.py",
        "return (2.0 * b - math.sqrt(disc)) / 3.0",
        "return (2.0 * b + math.sqrt(disc)) / 3.0",
    ),
    "fixed-point-kappa-for-kappa-e": (
        "src/squeezesim/steady_state.py",
        "return model.kappa_e * flux / (hk * hk + delta_eff * delta_eff)",
        "return model.kappa * flux / (hk * hk + delta_eff * delta_eff)",
    ),
    "zero-pump-offset-full-d2": (
        "src/squeezesim/steady_state.py",
        "return model.delta + 0.5 * model.d2 * l * l",
        "return model.delta + model.d2 * l * l",
    ),
    "escape-efficiency-over-kappa-e": (
        "src/squeezesim/params.py",
        "return self.kappa_e / self.kappa\n",
        "return 1.0 - self.kappa_i / self.kappa_e\n",
    ),
    "hann-lag-sum-one-sided": (
        "src/squeezesim/langevin.py",
        "return float(r0 + 2.0 * np.dot(rows @ y, lag_weight))",
        "return float(r0 + np.dot(rows @ y, lag_weight))",
    ),
    "dip-prominence-halved": (
        "src/squeezesim/traces.py",
        "keep = prom >= prominence",
        "keep = prom >= 0.5 * prominence",
    ),
    "lm-stops-on-any-parameter": (
        "src/squeezesim/traces.py",
        "done = ok & np.all(np.abs(step) <= _LM_STEP_TOL * np.abs(p[:, live]), axis=0)",
        "done = ok & np.any(np.abs(step) <= _LM_STEP_TOL * np.abs(p[:, live]), axis=0)",
    ),
    "margin-over-kappa-e": (
        "src/squeezesim/validation.py",
        '"margin_over_kappa": margin / cfg.model.kappa,',
        '"margin_over_kappa": margin / cfg.model.kappa_e,',
    ),
    "cross-check-at-first-power": (
        "src/squeezesim/validation.py",
        "cv_power = cfg.power_w if cfg.power_w is not None else powers[-1]",
        "cv_power = cfg.power_w if cfg.power_w is not None else powers[0]",
    ),
    "bogoliubov-sigma4-sign": (
        "src/squeezesim/spectra.py",
        "sigma4 = np.diag([1.0, -1.0, 1.0, -1.0])",
        "sigma4 = np.diag([1.0, 1.0, 1.0, -1.0])",
    ),
    "residual-tolerance-1e6": (
        "src/squeezesim/steady_state.py",
        "tol = rtol * max(1.0, drive)",
        "tol = rtol * max(1e6, drive)",
    ),
    "sweep-branch-pick-swapped": (
        "src/squeezesim/steady_state.py",
        "better = np.less if index == 0 else np.greater",
        "better = np.greater if index == 0 else np.less",
    ),
    "sweep-residual-tolerance-1e6": (
        "src/squeezesim/steady_state.py",
        "tol = rtol * np.where(drives > 1.0, drives, 1.0)",
        "tol = rtol * np.where(drives > 1e6, drives, 1e6)",
    ),
    "sweep-smith-division-branch-flipped": (
        "src/squeezesim/steady_state.py",
        "by_re = np.abs(den_re) >= np.abs(den_im)",
        "by_re = np.abs(den_re) < np.abs(den_im)",
    ),
    "sweep-root-clamp-dropped": (
        "src/squeezesim/steady_state.py",
        "    roots = np.where(0.0 > roots, 0.0, roots)  # max(root, 0.0)\n",
        "",
    ),
    "sweep-drive-without-sqrt-kappa-e": (
        "src/squeezesim/steady_state.py",
        "drives = math.sqrt(model.kappa_e) * np.sqrt(fluxes)",
        "drives = np.sqrt(fluxes)",
    ),
    "sweep-power-check-dropped": (
        "src/squeezesim/steady_state.py",
        "    if bad.any():\n"
        "        photon_flux(powers[bad.argmax()].item(), model.omega0)  # raises for that power\n",
        "",
    ),
    "steady-state-fields-swapped": (
        "src/squeezesim/steady_state.py",
        '        fields["rho"] = rho\n'
        '        fields["delta_eff"] = delta_eff\n',
        '        fields["rho"] = delta_eff\n'
        '        fields["delta_eff"] = rho\n',
    ),
    "pump-drive-any-a-in": (
        "src/squeezesim/params.py",
        "if not abs(self.a_in * self.a_in - self.flux) <= 4.0 * 2.0 ** -52 * self.flux:",
        "if False:",
    ),
    "config-int-admits-bool": (
        "src/squeezesim/config.py",
        "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
        "not isinstance(value, numbers.Integral)",
    ),
    "fold-band-2-40": (
        "src/squeezesim/steady_state.py",
        "band = 2.0 ** -52 *",
        "band = 2.0 ** -40 *",
    ),
    "exceptional-point-abs": (
        "src/squeezesim/spectra.py",
        "np.sqrt(np.maximum(excess, 0.0))",
        "np.sqrt(np.abs(excess))",
    ),
    "exceptional-point-abs-scalar": (
        "src/squeezesim/spectra.py",
        "math.sqrt(max(excess, 0.0))",
        "math.sqrt(abs(excess))",
    ),
    "joint-mode-qp-unhalved": (
        "src/squeezesim/spectra.py",
        "r_qp = 0.5 * (v01 + v03 + v21 + v23)",
        "r_qp = v01 + v03 + v21 + v23",
    ),
    "zero-margin-below-threshold": (
        "src/squeezesim/spectra.py",
        "if not margin > 0.0:",
        "if margin < 0.0:",
    ),
    "stats-admits-bool": (
        "src/squeezesim/cli.py",
        "type(value) in (int, float)",
        "isinstance(value, (int, float))",
    ),
    "series-dt-unchecked": (
        "src/squeezesim/langevin.py",
        "        raise DomainError(f\"dt must be a number, got {meta['dt']!r}\") from None\n"
        "    _check_dt(dt)\n",
        "        raise DomainError(f\"dt must be a number, got {meta['dt']!r}\") from None\n",
    ),
    "t-min-admits-zero-kappa-e": (
        "src/squeezesim/traces.py",
        "if not kappa_e > 0.0:",
        "if not kappa_e >= 0.0:",
    ),
    "efficiency-excludes-one": (
        "src/squeezesim/config.py",
        '_EFFICIENCY = ("in (0, 1]", lambda v: 0 < v <= 1)',
        '_EFFICIENCY = ("in (0, 1]", lambda v: 0 < v < 1)',
    ),
    "segment-step-uncapped": (
        "src/squeezesim/langevin.py",
        "dt = min(period, span / _MAX_SEGMENT_STEPS)",
        "dt = span / _MAX_SEGMENT_STEPS",
    ),
    "load-fast-reads-any-file": (
        "src/squeezesim/traces.py",
        "if not regular or name.endswith(_DECOMPRESSED):",
        "if name.endswith(_DECOMPRESSED):",
    ),
    "p95-rank-rounded-up": (
        "src/squeezesim/traces.py",
        "rank = int(float(window) * 95 / 100.0)",
        "rank = math.ceil(float(window) * 95 / 100.0)",
    ),
    "dip-prominence-strict": (
        "src/squeezesim/traces.py",
        "keep = prom >= prominence",
        "keep = prom > prominence",
    ),
    "open-fraction-admits-one": (
        "src/squeezesim/config.py",
        '_OPEN_FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)',
        '_OPEN_FRACTION = ("in (0, 1)", lambda v: 0 < v <= 1)',
    ),
    "homodyne-tones-crossed": (
        "src/squeezesim/spectra.py",
        "c = np.stack([cos, sin, cos, sin], axis=-1)",
        "c = np.stack([cos, sin, sin, cos], axis=-1)",
    ),
    "batch-sized-past-the-run": (
        "src/squeezesim/langevin.py",
        "    batch_size = min(batch_size, n_segments)\n",
        "",
    ),
    "load-fast-decompresses": (
        "src/squeezesim/traces.py",
        "if not regular or name.endswith(_DECOMPRESSED):",
        "if not regular:",
    ),
    "scanner-admits-a-repeated-wavelength": (
        "src/squeezesim/traces.py",
        "if lam and not (w > lam[-1] if rising else w < lam[-1]):",
        "if lam and not (w >= lam[-1] if rising else w <= lam[-1]):",
    ),
    "half-width-edge-moves-outward": (
        "src/squeezesim/traces.py",
        "edge[below] -= side * (height[below] - x[i])",
        "edge[below] += side * (height[below] - x[i])",
    ),
    "dip-distance-one-short": (
        "src/squeezesim/traces.py",
        "lo = np.searchsorted(peaks, peaks - distance + 1)",
        "lo = np.searchsorted(peaks, peaks - distance)",
    ),
    "even-at-least-2": (
        "src/squeezesim/config.py",
        '_EVEN_AT_LEAST_4 = ("even and at least 4", lambda v: v >= 4 and v % 2 == 0)',
        '_EVEN_AT_LEAST_4 = ("even and at least 4", lambda v: v >= 2 and v % 2 == 0)',
    ),
    "fit-q-loaded-is-coupling-q": (
        "src/squeezesim/traces.py",
        "q_loaded=omega0 / kappa,",
        "q_loaded=omega0 / kappa_e,",
    ),
    "config-loaded-q-is-coupling-q": (
        "src/squeezesim/config.py",
        "kappa_e = kappa_from_q(omega0, values[key_e]) - kappa_i",
        "kappa_e = kappa_from_q(omega0, values[key_e])",
    ),
    "group-accepts-partial-alternative": (
        "src/squeezesim/config.py",
        "    if missing:\n"
        "        raise ConfigError(f\"{group}: missing {', '.join(missing)}\")\n",
        "",
    ),
    "group-accepts-two-alternatives": (
        "src/squeezesim/config.py",
        "    if len(chosen) != 1:\n",
        "    if not chosen:\n",
    ),
    "positive-admits-zero": (
        "src/squeezesim/config.py",
        '_POSITIVE = ("positive", lambda v: v > 0)',
        '_POSITIVE = ("positive", lambda v: v >= 0)',
    ),
    "non-negative-refuses-zero": (
        "src/squeezesim/config.py",
        '_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)',
        '_NON_NEGATIVE = ("non-negative", lambda v: v > 0)',
    ),
    "at-least-refuses-its-bound": (
        "src/squeezesim/config.py",
        'return (f"at least {n}", lambda v: v >= n)',
        'return (f"at least {n}", lambda v: v > n)',
    ),
    "bool-cell-as-float": (
        "src/squeezesim/cli.py",
        "    if isinstance(value, (bool, np.bool_)):\n"
        "        return str(int(value))\n"
        "    return repr(float(value))\n",
        "    return repr(float(value))\n",
    ),
    "json-keeps-non-finite": (
        "src/squeezesim/cli.py",
        "return value if math.isfinite(value) else None",
        "return value",
    ),
    "mode-is-first-tallest-bin": (
        "src/squeezesim/traces.py",
        "k = int(tallest[np.argmin(np.abs(centres - np.median(v)))])",
        "k = int(tallest[0])",
    ),
    "fit-admits-negative-depth": (
        "src/squeezesim/traces.py",
        "or not 0.0 < depth <= 1.2",
        "or not -1.0 < depth <= 1.2",
    ),
    "bin-check-next-bin": (
        "src/squeezesim/langevin.py",
        "omega=float(run.omega[0]),",
        "omega=float(run.omega[0]) + 2.0 * math.pi / (n * dt),",
    ),
    "cross-check-reads-next-bin": (
        "src/squeezesim/langevin.py",
        "bins=(k,),",
        "bins=(k + 1,),",
    ),
    "segment-sums-pairwise": (
        "src/squeezesim/langevin.py",
        "acc += np.add.accumulate(pseg, axis=1)[:, -1]",
        "acc += pseg.sum(axis=1)",
    ),
    "config-error-exits-fail": (
        "src/squeezesim/cli.py",
        '        log.error("config error: %s", exc)\n'
        "        return EXIT_CONFIG\n",
        '        log.error("config error: %s", exc)\n'
        "        return EXIT_FAIL\n",
    ),
    "cli-write-keeps-stale-tail": (
        "src/squeezesim/cli.py",
        "                if stat.S_ISREG(os.fstat(fd).st_mode):\n"
        "                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))\n",
        "                pass\n",
    ),
}

# the row check reads the copy, where the applied row's snippet is gone by design
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_cli.py::test_every_mutation_row_applies_exactly_once"]

# seconds one suite run may take; a mutant that hangs counts as killed
TIMEOUT = 900.0

# build, test and run leftovers that are not copied
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def mutated(name: str, root: Path = ROOT) -> tuple[str, str]:
    """(file, its text under ``root`` with mutant ``name`` applied); ValueError unless the snippet occurs once."""
    path, snippet, replacement = MUTANTS[name]
    text = (root / path).read_text(encoding="utf-8")
    count = text.count(snippet)
    if count != 1:
        raise ValueError(f"{name}: {path}: snippet occurs {count} times, expected once")
    return path, text.replace(snippet, replacement)


def first_failure(output: str) -> str | None:
    """The node id of the first FAILED or ERROR line of pytest's short summary."""
    # captured log lines above the summary also start with "ERROR "
    summary = output.partition(" short test summary info ")[2]
    for line in summary.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0].strip()
    return None


def run_suite(tree: Path, tests: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run(TIER1 + tests, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"killed": True, "by": "timeout", "seconds": round(time.perf_counter() - start, 1)}
    seconds = round(time.perf_counter() - start, 1)
    if done.returncode == 0:
        return {"killed": False, "by": None, "seconds": seconds}
    by = first_failure(done.stdout) or f"exit {done.returncode}"
    return {"killed": True, "by": by, "seconds": seconds}


def trial(base: Path, edit: tuple[str, str] | None, tests: list[str]) -> dict:
    """Clone ``base``, write ``edit`` (file, text) into the clone, run the suite."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(base, tree)
        if edit is not None:
            path, text = edit
            (tree / path).write_text(text, encoding="utf-8")
        return run_suite(tree, tests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", choices=sorted(MUTANTS),
                        help="run only this mutant (repeatable)")
    parser.add_argument("--tests", nargs="+", default=[],
                        help="test paths or node ids instead of the configured testpaths")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutate-base-") as tmp:
        base = Path(tmp) / "repo"
        shutil.copytree(ROOT, base, ignore=IGNORED)
        # every row is applied before any suite runs, so a stale one fails at once
        edits = {name: mutated(name, base) for name in args.only or MUTANTS}
        baseline = trial(base, None, args.tests)
        if baseline["killed"]:
            sys.exit(f"the unmutated suite fails ({baseline['by']}); no mutant can be scored")
        results = {}
        for name, edit in edits.items():
            results[name] = trial(base, edit, args.tests)
            print(f"{name}: {results[name]}", file=sys.stderr)
    survivors = [name for name, r in results.items() if not r["killed"]]
    print(json.dumps({
        "tests": args.tests or "testpaths",
        "baseline_seconds": baseline["seconds"],
        "mutants": len(results),
        "killed": len(results) - len(survivors),
        "kill_rate": round((len(results) - len(survivors)) / len(results), 3),
        "survivors": survivors,
        "results": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
