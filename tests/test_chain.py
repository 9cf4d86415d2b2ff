"""The paper's chain as one oracle: trace -> fitted Q's -> model -> detected squeezing.

The reference device's comb is synthesized at ``configs/reference.cfg``'s
quality factors, fitted by ``analyze_trace``, and the fitted pump-mode
Q_i and Q_L replace the reference config's.  Every other key stays, so the
``calibration.threshold_fraction`` route re-derives g0 from the fitted
linewidth.  The detected squeezing and anti-squeezing at the configured
point must then agree with the reference config's to within what the
fit's own error in Q can move them.  A slip on the border between the
two halves (Q_L read as the coupling Q, the regimes swapped, nm taken for
rad/s) moves them by far more.
"""

import json
import math
from pathlib import Path

import numpy as np

from squeezesim.cli import EXIT_OK, main
from squeezesim.config import format_config, parse_config_text, resolve_config
from squeezesim.params import C_LIGHT, kappa_from_q, wavelength_to_omega
from squeezesim.spectra import squeezing_db, variance_db
from squeezesim.traces import (
    TransmissionTrace,
    analyze_trace,
    fwhm_pm,
    resonance_t_min,
    save_trace,
    synthesize_trace,
)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = parse_config_text((ROOT / "configs" / "reference.cfg").read_text())
LAMBDA0_NM = REFERENCE["resonator.wavelength_nm"]
Q_I = REFERENCE["resonator.q_intrinsic"]
Q_L = REFERENCE["resonator.q_loaded"]
Q_KEYS = ("resonator.q_intrinsic", "resonator.q_loaded")

# criterion 7's recovery bound for a noise-free dip, relative in Q
CLEAN_Q_RTOL = 1e-6
# standard errors allowed at a fixed noise seed: a Gaussian estimate lands
# beyond 4 of them with probability 6e-5, and the sums over Q_i and Q_L
# below bound the combined error for any correlation between the two
K_SIGMA = 4.0


def reference_comb(noise_rms=0.0, seed=None):
    """Seven teeth around the pump, each at the reference Q's, 40 samples per FWHM."""
    nu0 = C_LIGHT / (LAMBDA0_NM * 1e-9)
    centers = [C_LIGHT / (nu0 + k * REFERENCE["resonator.fsr_hz"]) * 1e9 for k in range(-3, 4)]
    dips = []
    for center in centers:
        omega = wavelength_to_omega(center * 1e-9)
        kappa, kappa_i = kappa_from_q(omega, Q_L), kappa_from_q(omega, Q_I)
        dips.append((center, kappa, resonance_t_min(kappa - kappa_i, kappa_i)))
    step = fwhm_pm(kappa_from_q(wavelength_to_omega(LAMBDA0_NM * 1e-9), Q_L), LAMBDA0_NM)
    step *= 1e-3 / 40.0
    lo, hi = min(centers) - 0.2, max(centers) + 0.2
    lam = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    tr = synthesize_trace(lam, dips, noise_rms=noise_rms, seed=seed)
    return TransmissionTrace(wavelength_nm=lam, transmission=tr)


def pump_fit(trace, **kwargs):
    """The fit of the tooth at the pump wavelength, after every tooth was found."""
    report = analyze_trace(trace, **kwargs)
    assert len(report.resonances) == 7 and report.n_rejected == 0
    return min(report.resonances, key=lambda f: abs(f.center_nm - LAMBDA0_NM))


def detected_db(q_i=Q_I, q_l=Q_L):
    """(squeezing, anti-squeezing) in dB at the reference point, with these Q's."""
    cfg = resolve_config({**REFERENCE, "resonator.q_intrinsic": q_i, "resonator.q_loaded": q_l})
    point = cfg.sweep([cfg.power_w])
    return np.array([squeezing_db(point.var_min[0]), variance_db(point.var_max[0])])


def db_per_ln_q():
    """Columns d(dB)/d(ln Q_i) and d(dB)/d(ln Q_L), by central differences.

    The step 1e-4 leaves an O(1e-8) relative error, far below every bound
    built from these slopes.
    """
    h = 1e-4
    up_i, down_i = detected_db(q_i=Q_I * math.exp(h)), detected_db(q_i=Q_I * math.exp(-h))
    up_l, down_l = detected_db(q_l=Q_L * math.exp(h)), detected_db(q_l=Q_L * math.exp(-h))
    return np.column_stack([(up_i - down_i) / (2 * h), (up_l - down_l) / (2 * h)])


def assert_rates_carry_over(fit):
    """The config built from the fitted Q's resolves to the fit's own rates.

    Both sides read Q as omega/kappa, the fit at its fitted center and the
    config at ``resonator.wavelength_nm``, so the rates differ only by the
    relative center offset, plus rounding.
    """
    cfg = resolve_config({**REFERENCE, "resonator.q_intrinsic": fit.q_intrinsic,
                          "resonator.q_loaded": fit.q_loaded})
    bound = abs(fit.center_nm / LAMBDA0_NM - 1.0) + 1e-14
    assert abs(cfg.model.kappa_i / fit.kappa_i - 1.0) <= bound
    assert abs(cfg.model.kappa_e / fit.kappa_e - 1.0) <= bound


def test_noise_free_comb_gives_the_reference_squeezing():
    fit = pump_fit(reference_comb(), detrend=False)
    errors = np.array([fit.q_intrinsic / Q_I - 1.0, fit.q_loaded / Q_L - 1.0])
    assert np.all(np.abs(errors) <= CLEAN_Q_RTOL), errors
    assert fit.regime == "overcoupled"
    assert_rates_carry_over(fit)
    # a Q error within the recovery bound moves each level by at most this
    bound = np.abs(db_per_ln_q()).sum(axis=1) * CLEAN_Q_RTOL
    shift = detected_db(fit.q_intrinsic, fit.q_loaded) - detected_db()
    assert np.all(np.abs(shift) <= bound), (shift, bound)


def test_noisy_comb_gives_the_reference_squeezing_within_its_standard_errors():
    fit = pump_fit(reference_comb(noise_rms=0.002, seed=1), detrend=False)
    _, kappa_err, depth_err, _ = fit.stderr
    # Q_L = omega/kappa; overcoupled, kappa_i = kappa*(1 - sqrt(t))/2 with
    # t = 1 - depth, so d(ln kappa_i)/d(depth) = 1/(2 sqrt(t) (1 - sqrt(t)))
    split = math.sqrt(fit.t_floor)
    sigma_ln_ql = kappa_err / fit.kappa
    sigma_ln_qi = sigma_ln_ql + depth_err / (2.0 * split * (1.0 - split))
    errors = np.array([math.log(fit.q_intrinsic / Q_I), math.log(fit.q_loaded / Q_L)])
    sigmas = np.array([sigma_ln_qi, sigma_ln_ql])
    assert np.all(np.abs(errors) <= K_SIGMA * sigmas), (errors, sigmas)
    assert_rates_carry_over(fit)
    bound = K_SIGMA * np.abs(db_per_ln_q()) @ sigmas
    shift = detected_db(fit.q_intrinsic, fit.q_loaded) - detected_db()
    assert np.all(np.abs(shift) <= bound), (shift, bound)


def test_fit_then_spectrum_on_the_cli_gives_the_reference_squeezing(tmp_path):
    save_trace(reference_comb(), tmp_path / "comb.csv")
    assert main(["fit", str(tmp_path / "comb.csv"), "--out", str(tmp_path / "fit")]) == EXIT_OK
    stats = json.loads((tmp_path / "fit" / "fit_stats.json").read_text())
    assert stats["n_fits"] == 7
    fitted = {key: stats[key.split(".")[1]]["mode"] for key in Q_KEYS}
    errors = np.array([fitted[Q_KEYS[0]] / Q_I - 1.0, fitted[Q_KEYS[1]] / Q_L - 1.0])
    assert np.all(np.abs(errors) <= CLEAN_Q_RTOL), errors
    (tmp_path / "run.cfg").write_text(format_config({**REFERENCE, **fitted}))
    out = tmp_path / "spectrum"
    assert main(["spectrum", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "spectrum_summary.json").read_text())
    reference = json.loads((ROOT / "tests" / "data" / "reference" / "spectrum_summary.json")
                           .read_text())
    bound = np.abs(db_per_ln_q()).sum(axis=1) * CLEAN_Q_RTOL
    for k, key in enumerate(("squeezing_db", "anti_squeezing_db")):
        assert abs(summary[key] - reference[key]) <= bound[k], key
