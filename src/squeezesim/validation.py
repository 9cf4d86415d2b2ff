"""The checks behind ``validate``, as one report; loads ``scipy.linalg``."""

from __future__ import annotations

import logging
import math

import numpy as np

from .config import ConfigError, RunConfig, format_config, parse_config_text
from .langevin import (
    CROSS_CHECK_THETAS, cross_validate, dump_series, exact_bin_deviation_db, segment_plan,
    simulate_pair,
)
from .params import DomainError
from .spectra import (
    bogoliubov_defect,
    optimal_quadratures_from_cov,
    output_covariance,
    pair_moments,
    pair_scattering,
    stability_margin,
    symplectic_eigenvalues,
)
from .steady_state import operating_points, threshold_power

log = logging.getLogger(__name__)


def _physicality_check(cfg: RunConfig) -> dict:
    model = cfg.model
    n_random = cfg.values["validate.n_random"]
    p_th = threshold_power(model, cfg.mode_index)
    if math.isfinite(p_th):
        p_cap = 0.98 * p_th
    else:
        stated = [*cfg.powers_w] + ([cfg.power_w] if cfg.power_w else [])
        p_cap = 2.0 * max(stated) if stated and max(stated) > 0 else 0.05
    # each draw: a power below the cap and a sideband from 1e-3 to 3 kappa
    rng = np.random.default_rng(cfg.seed)
    draws = rng.uniform([0.0, -3.0], [p_cap, math.log10(3.0)], size=(n_random, 2))
    rho, a0 = operating_points(model, draws[:, 0], cfg.branch_policy, cfg.residual_rtol)
    pair = pair_moments(model, rho, a0, model.kappa * 10.0 ** draws[:, 1], cfg.mode_index)
    usable = pair.margin > 0.0
    cov = output_covariance(pair, cfg.eta_total)[usable]
    ext = optimal_quadratures_from_cov(cov)
    min_nu = float(np.min(symplectic_eigenvalues(cov)[..., 0], initial=math.inf))
    min_prod = float(np.min(ext.var_min * ext.var_max, initial=math.inf))
    min_slack = float(np.min(ext.var_min - (1.0 - cfg.eta_total), initial=math.inf))
    used = int(np.count_nonzero(usable))
    vac = cfg.sweep(0.0)
    worst_vacuum = max(abs(vac.var_min[0] - 1.0), abs(vac.var_max[0] - 1.0))
    passed = (
        used >= n_random // 2
        and min_nu >= 1.0 - 1e-9
        and min_prod >= 1.0 - 1e-9
        and min_slack >= -1e-9
        and worst_vacuum <= 1e-12
    )
    return {
        "name": "physicality_random",
        "passed": passed,
        "n_draws": n_random,
        "n_usable": used,
        "min_symplectic_eigenvalue": min_nu,
        "min_variance_product": min_prod,
        "min_loss_floor_slack": min_slack,
        "vacuum_deviation": worst_vacuum,
    }


def _crossval_check(cfg: RunConfig, steady, power_w: float) -> dict:
    kappa = cfg.model.kappa
    omegas = [0.05 * kappa, 0.5 * kappa, 2.0 * kappa]
    cv = cross_validate(
        cfg.model, steady, omegas, CROSS_CHECK_THETAS, eta_total=cfg.eta_total,
        l=cfg.mode_index, n_segments=cfg.values["validate.n_segments"],
        seed=cfg.seed,
        batch_size=cfg.values["validate.batch_size"],
        n_sigma=cfg.values["validate.n_sigma"],
        max_db_err=cfg.values["validate.max_db_err"],
        min_pass_fraction=cfg.values["validate.min_pass_fraction"],
    )
    return {
        "name": "stochastic_crossval",
        "passed": bool(cv.passed),
        "pass_fraction": cv.pass_fraction,
        "n_bins": len(cv.checks),
        "n_segments": cv.n_segments,
        "power_mw": power_w * 1e3,
        "max_abs_z": max(abs(c.z) for c in cv.checks),
        "max_abs_delta_db": max(abs(c.delta_db) for c in cv.checks),
        # report only: z with sigma = expected/sqrt(N), whose tails are
        # Gamma-exact, the spectra route against the step-law route of the
        # same bins, and how far the scattering matrix at the analysis
        # frequency is from preserving commutators; none enters the pass rule
        "max_abs_z_gamma": max(
            abs(c.measured - c.expected) * math.sqrt(cv.n_segments) / c.expected
            for c in cv.checks
        ),
        "max_exact_bin_dev_db": exact_bin_deviation_db(
            cfg.model, steady, omegas, CROSS_CHECK_THETAS, eta_total=cfg.eta_total,
            l=cfg.mode_index,
        ),
        "bogoliubov_defect": bogoliubov_defect(
            pair_scattering(cfg.model, steady, cfg.omega, cfg.mode_index)
        ),
    }


def validation_report(cfg: RunConfig, series_path=None) -> dict:
    """Every ``validate`` check on ``cfg``, as ``validate_report.json`` holds it.

    The checks: the config echo parses back to the same keys, the
    stability margin at every stated power, the physicality of random
    below-threshold states, and the Langevin oracle against the closed
    forms at the cross-check power (``drive.power_mw``, else the last of
    ``drive.powers_mw``).  With ``series_path``, one segment of the raw
    homodyne record at that power is dumped there, if it is below threshold;
    an ``analysis.omega_hz`` that cannot be planned for it raises
    ConfigError before anything is simulated.
    """
    if series_path is not None:
        try:
            series_plan = segment_plan(cfg.model.kappa, cfg.omega)
        except DomainError as exc:
            raise ConfigError(f"analysis.omega_hz: cannot plan the series dump: {exc}") from exc
    echoed = parse_config_text(format_config(cfg.values))
    checks = [{"name": "config_roundtrip", "passed": echoed == dict(cfg.values)}]

    powers = list(cfg.powers_w) or ([cfg.power_w] if cfg.power_w is not None else [0.0])
    cv_power = cfg.power_w if cfg.power_w is not None else powers[-1]
    points = {}  # power -> (steady state, stability margin), one solve each
    for power in (*powers, cv_power):
        if power not in points:
            steady = cfg.solve(power)
            points[power] = steady, stability_margin(cfg.model, steady, cfg.mode_index)
    for power in powers:
        steady, margin = points[power]
        checks.append({
            "name": "below_threshold",
            "power_mw": power * 1e3,
            "passed": margin > 0.0,
            "margin_rad_s": margin,
            "margin_over_kappa": margin / cfg.model.kappa,
            "branch": steady.branch,
        })

    checks.append(_physicality_check(cfg))

    steady, margin = points[cv_power]
    if margin <= 0.0:
        checks.append({
            "name": "stochastic_crossval",
            "passed": False,
            "detail": "configured power is at or above threshold",
        })
    else:
        checks.append(_crossval_check(cfg, steady, cv_power))
        if series_path is not None:
            dt, n = series_plan
            run = simulate_pair(
                cfg.model, steady, dt=dt, n_samples=n, n_segments=8, seed=cfg.seed,
                thetas=CROSS_CHECK_THETAS, eta_total=cfg.eta_total, l=cfg.mode_index, bins=(),
            )
            dump_series(series_path, run)
            log.info("wrote %s", series_path)

    passed = all(c["passed"] for c in checks)
    return {
        "passed": passed,
        "n_checks": len(checks),
        "n_failed": sum(not c["passed"] for c in checks),
        "checks": checks,
    }
