"""Command-line front end.

Every command reads one flat config file, writes its results plus an
``effective_config.cfg`` echo into the output directory, and exits 0
only when it ran cleanly and every embedded check passed.  Outputs are
byte-reproducible for a fixed (config, seed) pair: floats are printed
with ``repr``, JSON keys are sorted, and no timestamps or host details
are embedded.  Exit codes: 0 success, 1 failed run or failed checks,
2 unusable configuration or command line.

Set ``SQUEEZESIM_LOG=debug|info|warning|error`` to control stderr
logging; logs never go into output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import stat
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    format_config,
    load_config,
    load_fit_options,
)
from .params import DomainError
from .spectra import (
    phase_scan_trace,
    spectrum_grid,
    squeezing_db,
    stability_margin,
    variance_db,
)
from .steady_state import (
    bistable_flux_window,
    is_bistable,
    threshold_intracavity,
    threshold_power,
)
from .params import HBAR

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

log = logging.getLogger("squeezesim")


def _setup_logging() -> None:
    if log.handlers or logging.getLogger().handlers:
        return
    name = os.environ.get("SQUEEZESIM_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _jsonify(obj):
    """Plain JSON types only; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _write(out_dir: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``out_dir/name`` in place, then cut the file there.

    The file is opened without truncation, so a rerun writes over blocks
    the file already has: truncating on open makes the file system free
    them, which can cost tens of milliseconds per file where it discards
    freed blocks.  After this returns or raises, no byte of the previous
    content remains past the bytes just written.  A shorter rewrite still
    frees its tail blocks, the slow path as before.  Symlinks, directories
    and unwritable files behave as with ``open(path, "w")``, raising the
    same ``OSError`` where it would.  A failure after the open, such as a
    full disk, raises an ``OSError`` whose message names the write and
    the path: ``cannot write out/threshold.json: [Errno 28] ...``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            try:
                fh.write(text)
                fh.flush()
            finally:
                # cut at what reached the file; a FIFO or device has no tail
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    log.info("wrote %s", path)
    return path


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return repr(float(value))


def _write_table(out_dir: Path, stem: str, header, rows, fmt: str) -> Path:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        return _write(out_dir, stem + ".csv", "\n".join(lines) + "\n")
    records = [dict(zip(header, row)) for row in rows]
    return _write(out_dir, stem + ".json", _json_text(records))


def cmd_spectrum(cfg: RunConfig, args, out: Path) -> int:
    power_w = cfg.require_power()
    steady = cfg.solve(power_w)
    thetas = np.linspace(0.0, math.pi, cfg.n_theta)
    grid = spectrum_grid(
        cfg.model,
        steady,
        cfg.omega_grid,
        thetas,
        l=cfg.mode_index,
        eta_total=cfg.eta_total,
    )
    # omega-major rows: every angle at the first frequency, then the next
    f_hz = np.repeat(grid.omegas / (2.0 * math.pi), thetas.size)
    rows = zip(f_hz, np.tile(thetas, grid.omegas.size), variance_db(grid.variance).ravel())
    _write_table(out, "spectrum", ("omega_hz", "theta_rad", "variance_db"), rows, args.format)

    # the summary needs only the closed-form extrema, no angle grid
    point = spectrum_grid(
        cfg.model, steady, cfg.omega, (), l=cfg.mode_index, eta_total=cfg.eta_total
    )
    p_th = threshold_power(cfg.model, cfg.mode_index)
    summary = {
        "power_mw": power_w * 1e3,
        "omega_hz": cfg.omega / (2.0 * math.pi),
        "squeezing_db": float(squeezing_db(point.var_min[0])),
        "anti_squeezing_db": float(variance_db(point.var_max[0])),
        "theta_opt_rad": float(point.theta_opt[0]),
        "rho": steady.rho,
        "branch": steady.branch,
        "delta_eff_rad_s": steady.delta_eff,
        "threshold_margin_rad_s": stability_margin(cfg.model, steady, cfg.mode_index),
        "threshold_power_mw": p_th * 1e3,
        "g0_rad_s": cfg.model.g0,
        "eta_escape": cfg.model.eta_escape,
        "eta_chain": cfg.eta_total,
        "eta_end_to_end": cfg.eta_end_to_end,
        "n_omega": int(grid.omegas.size),
        "n_theta": int(thetas.size),
    }
    if cfg.calibration is not None:
        summary["calibration"] = {
            "g0_rad_s": cfg.calibration.g0,
            "x_opt": cfg.calibration.x_opt,
            "rho": cfg.calibration.rho,
            "branch": cfg.calibration.branch,
        }
    _write(out, "spectrum_summary.json", _json_text(summary))
    log.info(
        "squeezing %.3f dB, anti-squeezing %.3f dB at %.4g Hz",
        summary["squeezing_db"],
        summary["anti_squeezing_db"],
        summary["omega_hz"],
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args, out: Path) -> int:
    sweep = cfg.sweep(cfg.powers_w)
    rows = zip(
        sweep.powers * 1e3,
        variance_db(sweep.var_min),
        variance_db(sweep.var_max),
        sweep.rho,
        sweep.above_threshold,
    )
    header = ("power_mw", "s_min_db", "s_max_db", "rho", "threshold_flag")
    _write_table(out, "sweep", header, rows, args.format)
    n_above = int(np.sum(sweep.above_threshold))
    log.info("%d sweep points, %d above threshold", sweep.powers.size, n_above)
    return EXIT_OK


def cmd_phase_scan(cfg: RunConfig, args, out: Path) -> int:
    power_w = cfg.require_power()
    steady = cfg.solve(power_w)
    trace = phase_scan_trace(
        cfg.model,
        steady,
        cfg.omega,
        l=cfg.mode_index,
        eta_total=cfg.eta_total,
        periods=cfg.values["analysis.periods"],
        samples_per_period=cfg.values["analysis.samples_per_period"],
        scan_time=cfg.values["analysis.scan_time_s"],
        rbw=cfg.values["analysis.rbw_hz"],
        vbw=cfg.values["analysis.vbw_hz"],
        seed=cfg.seed,
    )
    rows = list(
        zip(trace.time_s, trace.theta, trace.measured_db, trace.shot_db, trace.true_db)
    )
    header = ("time_s", "theta_rad", "measured_db", "shot_db", "true_db")
    _write_table(out, "phase_scan", header, rows, args.format)
    return EXIT_OK


def cmd_threshold(cfg: RunConfig, args, out: Path) -> int:
    l = cfg.mode_index
    rho_th = threshold_intracavity(cfg.model, l)
    p_th = threshold_power(cfg.model, l)
    report = {
        "threshold_power_mw": p_th * 1e3,
        "threshold_intracavity_photons": rho_th,
        "g0_rad_s": cfg.model.g0,
        "kappa_rad_s": cfg.model.kappa,
        "detuning_rad_s": cfg.model.delta,
        "d2_rad_s": cfg.model.d2,
        "mode_index": l,
        "bistable": is_bistable(cfg.model),
        "bistable_window_mw": None,
    }
    if report["bistable"]:
        lo, hi = bistable_flux_window(cfg.model)
        scale = HBAR * cfg.model.omega0 * 1e3
        report["bistable_window_mw"] = [lo * scale, hi * scale]
    if cfg.power_w is not None:
        steady = cfg.solve(cfg.power_w)
        margin = stability_margin(cfg.model, steady, cfg.mode_index)
        report["at_power"] = {
            "power_mw": cfg.power_w * 1e3,
            "rho": steady.rho,
            "branch": steady.branch,
            "stability_margin_rad_s": margin,
            "below_threshold": margin > 0.0,
        }
    _write(out, "threshold.json", _json_text(report))
    return EXIT_OK


# the fit-record fields that stats bins
_FIT_FIELDS = ("q_intrinsic", "q_loaded", "q_coupling", "eta")


def cmd_fit(opts: dict, args, out: Path) -> int:
    # imported here, so the other commands do not pay for it, and called
    # through the module, so a wrapper set on one of its functions is seen
    from . import traces

    regime = opts["fit.regime"]
    prior = None if regime == "ambiguous" else regime
    records = []
    fits = []
    per_trace = []
    for path in args.traces:
        report = traces.analyze_trace(
            traces.load_trace(path),
            detrend=opts["fit.detrend"],
            min_prominence=opts["fit.min_prominence"],
            min_spacing_nm=opts["fit.min_spacing_nm"],
            regime=prior,
            min_samples_per_fwhm=opts["fit.min_samples_per_fwhm"],
        )
        for fit in report.resonances:
            record = dataclasses.asdict(fit)
            record["source"] = str(path)
            records.append(record)
            fits.append(fit)
        per_trace.append(
            {
                "source": str(path),
                "n_detected": report.n_detected,
                "n_rejected": report.n_rejected,
                "fsr_hz": report.fsr_hz,
            }
        )
        log.info(
            "%s: %d resonances fitted, %d rejected",
            path,
            report.n_detected - report.n_rejected,
            report.n_rejected,
        )
    _write(out, "fits.json", _json_text(records))
    stats_report = {"traces": per_trace, "n_traces": len(per_trace)}
    if fits:
        stats_report.update(dataclasses.asdict(traces.q_statistics(fits)))
    else:
        stats_report["n_fits"] = 0
    _write(out, "fit_stats.json", _json_text(stats_report))
    if not fits:
        log.error("no resonances could be fitted in %d trace(s)", len(per_trace))
        return EXIT_FAIL
    return EXIT_OK


def _fit_number(where: str, rec: dict, field: str) -> float:
    """``rec[field]`` as a float; it must be a finite JSON number, not a bool."""
    if field not in rec:
        raise DomainError(f"{where}: missing field {field!r}")
    value = rec[field]
    if value is None and field == "q_intrinsic":
        return math.inf  # fit writes null for the lossless limit
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise DomainError(f"{where}: {field} must be a number, got {json.dumps(value)}")


def cmd_stats(opts: dict, args, out: Path) -> int:
    fits = []
    for path in args.fits:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise DomainError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(loaded, list):
            raise DomainError(f"{path}: expected a JSON list of fit records")
        for i, rec in enumerate(loaded):
            if not isinstance(rec, dict):
                raise DomainError(f"{path}: fit record {i} is not a JSON object")
            where = f"{path}: fit record {i}"
            fits.append(SimpleNamespace(**{f: _fit_number(where, rec, f) for f in _FIT_FIELDS}))
    if not fits:
        log.error("no fit records found")
        return EXIT_FAIL
    from . import traces

    _write(out, "fit_stats.json", _json_text(dataclasses.asdict(traces.q_statistics(fits))))
    return EXIT_OK


def cmd_validate(cfg: RunConfig, args, out: Path) -> int:
    # imported here: the oracle loads scipy.linalg, which no other command needs
    from .validation import validation_report

    report = validation_report(cfg, out / "series.bin" if args.dump_series else None)
    _write(out, "validate_report.json", _json_text(report))
    for check in report["checks"]:
        if not check["passed"]:
            log.error("check failed: %s", check["name"])
    return EXIT_OK if report["passed"] else EXIT_FAIL


# name -> (handler, whether it needs --config, help), in the order --help lists them
_COMMANDS = {
    "spectrum": (cmd_spectrum, True, "noise spectra over the frequency/angle grid at one power"),
    "sweep": (cmd_sweep, True, "squeezing extrema versus power"),
    "phase-scan": (
        cmd_phase_scan, True, "synthetic spectrum-analyzer trace of a homodyne phase ramp"
    ),
    "fit": (cmd_fit, False, "fit resonances in transmission traces"),
    "stats": (cmd_stats, False, "aggregate statistics over saved fit records"),
    "threshold": (cmd_threshold, True, "pair oscillation threshold summary"),
    "validate": (cmd_validate, True, "run the invariant suite and the stochastic cross-check"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration file")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument(
        "--seed", metavar="U64", type=int, default=None, help="override config seed"
    )
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="tabular output format"
    )
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Simulate and analyze below-threshold Kerr pair generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, parents=[common], help=text)
        for name, (_, _, text) in _COMMANDS.items()
    }
    commands["fit"].add_argument("traces", nargs="+", metavar="TRACE", help="trace CSV files")
    commands["stats"].add_argument("fits", nargs="+", metavar="FITS_JSON", help="fits.json files")
    commands["validate"].add_argument(
        "--dump-series",
        action="store_true",
        help="also dump a short raw homodyne record (series.bin)",
    )
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out)
        handler, needs_config, _ = _COMMANDS[args.command]
        if needs_config:
            if args.config is None:
                raise ConfigError(f"--config is required for '{args.command}'")
            cfg = load_config(args.config, seed_override=args.seed)
            _write(out, "effective_config.cfg", format_config(cfg.values))
        else:  # fit and stats: the fit.* keys alone
            cfg = load_fit_options(args.config)
            if args.config is not None:
                _write(out, "effective_config.cfg", format_config(cfg))
        return handler(cfg, args, out)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        # the OS names the file it could not open (missing, unreadable or
        # not a regular file); _write's message names its own step and file
        log.error("cannot open file: %s" if exc.filename is not None else "%s", exc)
        return EXIT_FAIL
    except (DomainError, RuntimeError) as exc:
        # TraceParseError is a DomainError; SingularSystemError a RuntimeError
        log.error("%s", exc)
        return EXIT_FAIL

