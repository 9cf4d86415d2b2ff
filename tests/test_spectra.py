import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from squeezesim.langevin import _step_law, stationary_covariance
from squeezesim.params import HBAR, DomainError, PumpDrive, ResonatorModel
from squeezesim.spectra import (
    PhaseScanTrace,
    QuadratureExtrema,
    SingularSystemError,
    _offset_and_margin,
    _pair_extrema,
    bogoliubov_defect,
    calibrate_g0_to_optimum,
    homodyne_variance,
    optimal_quadratures_from_cov,
    output_covariance,
    pair_moments,
    pair_scattering,
    phase_scan_trace,
    power_sweep,
    spectrum_grid,
    squeezing_db,
    stability_margin,
    symplectic_eigenvalues,
    variance_db,
)
from squeezesim.steady_state import (
    SteadyState,
    bistable_flux_window,
    operating_points,
    solve_steady_state,
    steady_state_at_gain,
    steady_state_roots,
    threshold_gain,
    threshold_power,
)


# ----------------------------------------------------------------------
# Independent homodyne-spectrum oracle.
#
# The implementation goes through output moments and a 4x4 covariance.
# This reference instead writes the measured field component at analysis
# frequency +omega as an explicit sum over all eight vacuum inputs of the
# two coupled sideband pairs (annihilation part at +omega, creation part
# folded from -omega), and applies the white-noise rule
# PSD = 1/2 sum(|f_k|^2 + |g_k|^2).  Self-normalized by its own vacuum
# value, it shares no code path with the covariance route.
# ----------------------------------------------------------------------

def raw_scattering(kappa_i, kappa_e, delta_l, g, omega):
    hk = 0.5 * (kappa_i + kappa_e)
    l_mat = np.array(
        [
            [hk + 1j * (delta_l - omega), -1j * g],
            [1j * np.conj(g), hk - 1j * (delta_l + omega)],
        ]
    )
    inv = np.linalg.solve(l_mat, np.eye(2, dtype=complex))
    return np.hstack([kappa_e * inv - np.eye(2), math.sqrt(kappa_e * kappa_i) * inv])


def reference_variance(kappa_i, kappa_e, delta_l, g, omega, theta_s, theta_i, eta):
    s = raw_scattering(kappa_i, kappa_e, delta_l, g, omega)
    # tone at +omega rides pair (a_s(w), a_i^dag(w)); the frequency-mirrored
    # pair (a_i(w), a_s^dag(w)) sees the same matrix with independent inputs
    coef_a = np.exp(-1j * theta_s) * s[0] + np.exp(1j * theta_i) * s[1]
    coef_b = np.exp(-1j * theta_i) * s[0] + np.exp(1j * theta_s) * s[1]
    psd = 0.5 * (np.sum(np.abs(coef_a) ** 2) + np.sum(np.abs(coef_b) ** 2))
    vac = raw_scattering(kappa_i, kappa_e, delta_l, 0.0, omega)
    coef_va = np.exp(-1j * theta_s) * vac[0] + np.exp(1j * theta_i) * vac[1]
    coef_vb = np.exp(-1j * theta_i) * vac[0] + np.exp(1j * theta_s) * vac[1]
    psd_vac = 0.5 * (np.sum(np.abs(coef_va) ** 2) + np.sum(np.abs(coef_vb) ** 2))
    return eta * psd / psd_vac + (1.0 - eta)


def make_model(delta_units, *, eta_esc=0.9178217822, g0=1.0, hk=1.0, d2=0.0):
    kappa = 2.0 * hk
    return ResonatorModel(
        omega0=1.2074690e15,
        kappa_i=(1.0 - eta_esc) * kappa,
        kappa_e=eta_esc * kappa,
        delta=delta_units * hk,
        d2=d2,
        g0=g0,
    )


def steady_at_x(model, x, branch="nearest"):
    """Steady state with g0*rho = x*kappa/2, built through the pump solver."""
    hk = 0.5 * model.kappa
    rho = x * hk / model.g0
    delta_eff = model.delta - x * hk
    flux = rho * (hk * hk + delta_eff ** 2) / model.kappa_e
    pump = PumpDrive(
        power_on_chip=flux * HBAR * model.omega0, flux=flux, a_in=math.sqrt(flux)
    )
    roots = steady_state_roots(model, pump)
    idx = int(np.argmin(np.abs(np.asarray(roots) - rho)))
    from squeezesim.steady_state import steady_state_on_branch

    st = steady_state_on_branch(model, pump, idx)
    assert abs(st.rho - rho) <= 1e-8 * rho
    return st, pump


def idler_flux(s):
    """Output photon flux density of the idler, read off the rows of ``s``."""
    return abs(s[1, 0]) ** 2 + abs(s[1, 2]) ** 2


# pure-state benchmark: lossless cavity, pair on resonance, line center
def pure_point(x):
    model = make_model(2.0 * x, eta_esc=1.0, g0=1.0)
    st, _ = steady_at_x(model, x)
    assert abs(_offset_and_margin(model, st.rho, 1)[0]) < 1e-9
    return model, st


def test_pure_state_anchor_one_ninth():
    # x = 1/2 on resonance: var_min = (1-x)^2/(1+x)^2 = 1/9, var_max = 9
    model, st = pure_point(0.5)
    pair = pair_moments(model, st.rho, st.a0, 0.0)
    cov = output_covariance(pair, 1.0)
    ext = optimal_quadratures_from_cov(cov)
    assert ext.var_min == pytest.approx(1.0 / 9.0, rel=1e-10)
    assert ext.var_max == pytest.approx(9.0, rel=1e-10)
    assert ext.theta_min == pytest.approx(0.5 * math.pi, abs=1e-9)
    # minimum-uncertainty: product stays at 1
    assert ext.var_min * ext.var_max == pytest.approx(1.0, rel=1e-10)
    # frozen output moments: N = 16/9, |M| = 20/9
    assert pair.n_signal == pytest.approx(16.0 / 9.0, rel=1e-10)
    assert idler_flux(pair_scattering(model, st, 0.0)) == pytest.approx(16.0 / 9.0, rel=1e-10)
    assert abs(pair.m_corr) == pytest.approx(20.0 / 9.0, rel=1e-10)


def test_pure_state_family():
    for x in (0.1, 0.3, 0.7):
        model, st = pure_point(x)
        ext = optimal_quadratures_from_cov(
            output_covariance(pair_moments(model, st.rho, st.a0, 0.0), 1.0)
        )
        assert ext.var_min == pytest.approx((1 - x) ** 2 / (1 + x) ** 2, rel=1e-9)
        assert ext.var_max == pytest.approx((1 + x) ** 2 / (1 - x) ** 2, rel=1e-9)


def test_zero_detuning_peak_operating_point():
    # at delta = 0, line center, the flux density peaks at x = 1/sqrt(3)
    # with N = eta_esc/3; lossless that gives var_min = 1/3 exactly
    model = make_model(0.0, eta_esc=1.0)
    st, _ = steady_at_x(model, 1.0 / math.sqrt(3.0))
    pair = pair_moments(model, st.rho, st.a0, 0.0)
    assert pair.n_signal == pytest.approx(1.0 / 3.0, rel=1e-10)
    ext = optimal_quadratures_from_cov(output_covariance(pair, 1.0))
    assert ext.var_min == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert ext.var_max == pytest.approx(3.0, rel=1e-10)
    # nearby drive levels do worse, confirming an interior optimum
    for x in (1.0 / math.sqrt(3.0) - 0.05, 1.0 / math.sqrt(3.0) + 0.05):
        st2, _ = steady_at_x(model, x)
        pair2 = pair_moments(model, st2.rho, st2.a0, 0.0)
        assert pair2.n_signal < pair.n_signal


def test_correlation_is_real_positive_on_resonance():
    model, st = pure_point(0.5)
    pair = pair_moments(model, st.rho, st.a0, 0.0)
    assert pair.m_corr.imag == pytest.approx(0.0, abs=1e-12 * abs(pair.m_corr))
    assert pair.m_corr.real > 0
    cov = output_covariance(pair, 1.0)
    # two-mode signature: q-q correlated, p-p anticorrelated
    assert cov[0, 2] > 0
    assert cov[1, 3] < 0
    assert cov[0, 1] == cov[2, 3] == 0.0


def test_moment_identity_and_symmetry():
    # |M|^2 = N^2 + eta_esc * N at every operating point and frequency
    rng = np.random.default_rng(7)
    for _ in range(50):
        eta_esc = rng.uniform(0.05, 1.0)
        model = make_model(rng.uniform(-2.0, 2.5), eta_esc=eta_esc)
        st, _ = steady_at_x(model, rng.uniform(0.01, 1.5))
        if stability_margin(model, st) <= 0.0:
            continue
        omega = rng.uniform(-4.0, 4.0)
        pair = pair_moments(model, st.rho, st.a0, omega)
        n = pair.n_signal
        assert idler_flux(pair_scattering(model, st, omega)) == pytest.approx(n, rel=1e-12)
        assert abs(pair.m_corr) ** 2 == pytest.approx(
            n * n + eta_esc * n, rel=1e-9, abs=1e-12
        )


def test_bogoliubov_commutator_preserved():
    rng = np.random.default_rng(11)
    for _ in range(40):
        model = make_model(rng.uniform(-2.0, 2.5), eta_esc=rng.uniform(0.05, 1.0))
        st, _ = steady_at_x(model, rng.uniform(0.01, 1.2))
        if stability_margin(model, st) <= 0.0:
            continue
        s = pair_scattering(model, st, rng.uniform(-3.0, 3.0))
        norm = max(1.0, np.linalg.norm(s) ** 2)
        assert bogoliubov_defect(s) <= 1e-10 * norm


def test_matches_double_pair_psd_oracle():
    # load-bearing equivalence: covariance route vs explicit two-pair PSD
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 60:
        eta_esc = rng.uniform(0.05, 1.0)
        hk = rng.uniform(0.3, 2.0)
        model = make_model(
            rng.uniform(-2.0, 2.5), eta_esc=eta_esc, hk=hk, g0=rng.uniform(0.5, 3.0)
        )
        x = rng.uniform(0.01, 1.6)
        st, _ = steady_at_x(model, x)
        if stability_margin(model, st) <= 1e-6 * model.kappa:
            continue
        omega = rng.uniform(-3.0, 3.0) * model.kappa
        theta = rng.uniform(0.0, math.pi)
        eta = rng.uniform(0.0, 1.0)
        pair = pair_moments(model, st.rho, st.a0, omega)
        var = homodyne_variance(output_covariance(pair, eta), theta)
        # the matched two-tone homodyne: both tones at one angle
        expected = reference_variance(
            model.kappa_i,
            model.kappa_e,
            float(_offset_and_margin(model, st.rho, 1)[0]),
            model.g0 * st.a0 ** 2,
            omega,
            theta + pair.phi_ref,
            theta + pair.phi_ref,
            eta,
        )
        assert var == pytest.approx(expected, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked == 60


def test_vacuum_gives_shot_noise_at_every_angle():
    model = make_model(0.7)
    pump = PumpDrive.from_power(0.0, model.omega0)
    st = solve_steady_state(model, pump)
    pair = pair_moments(model, st.rho, st.a0, 0.3)
    cov = output_covariance(pair, 0.61)
    th = np.linspace(0, math.pi, 17)
    assert np.allclose(homodyne_variance(cov, th), 1.0, atol=1e-12)
    ext = optimal_quadratures_from_cov(cov)
    assert ext.var_min == ext.var_max == pytest.approx(1.0, rel=1e-12)
    assert ext.theta_min == 0.0
    # the array routes give exact vacuum at zero pump, at any efficiency
    for eta in (0.37, 0.602, 1.0):
        sweep = power_sweep(model, [0.0, 0.0], omega=0.3, eta_total=eta)
        grid = spectrum_grid(model, st, [0.0, 0.3, 5.0], eta_total=eta)
        for var in (sweep.var_min, sweep.var_max, grid.var_min, grid.var_max, grid.variance):
            assert np.all(var == 1.0), (eta, var)


def test_homodyne_variance_scalar_and_array():
    model, st = pure_point(0.5)
    cov = output_covariance(pair_moments(model, st.rho, st.a0, 0.0), 1.0)
    v = homodyne_variance(cov, 0.25)
    assert isinstance(v, float)
    arr = homodyne_variance(cov, np.array([0.0, 0.25, 0.5 * math.pi]))
    assert arr.shape == (3,)
    assert arr[0] == pytest.approx(9.0, rel=1e-10)
    assert arr[2] == pytest.approx(1.0 / 9.0, rel=1e-10)
    # pi-periodic
    assert homodyne_variance(cov, 0.3 + math.pi) == pytest.approx(
        homodyne_variance(cov, 0.3), rel=1e-12
    )


def test_loss_map_interpolates_to_vacuum():
    model, st = pure_point(0.5)
    pair = pair_moments(model, st.rho, st.a0, 0.0)
    v_full = output_covariance(pair, 1.0)
    v_none = output_covariance(pair, 0.0)
    assert np.allclose(v_none, np.eye(4), atol=1e-15)
    eta = 0.37
    assert np.allclose(
        output_covariance(pair, eta), eta * v_full + (1 - eta) * np.eye(4), atol=1e-14
    )
    with pytest.raises(DomainError):
        output_covariance(pair, 1.2)


def test_lossy_extrema_product_exceeds_unity():
    model = make_model(0.0, eta_esc=0.9178217822)
    st, _ = steady_at_x(model, 0.5)
    pair = pair_moments(model, st.rho, st.a0, 0.0)
    for eta in (1.0, 0.8, 0.6021708):
        ext = optimal_quadratures_from_cov(output_covariance(pair, eta))
        assert ext.var_min * ext.var_max >= 1.0 - 1e-12
        assert ext.var_min < 1.0 < ext.var_max


def test_symplectic_eigenvalues_of_a_stack():
    model, st = pure_point(0.5)
    pair = pair_moments(model, st.rho, st.a0, np.array([0.0, 0.7, 3.0]))
    covs = output_covariance(pair, 0.6)
    stacked = symplectic_eigenvalues(covs)
    assert stacked.shape == (3, 2)
    for cov, row in zip(covs, stacked):
        assert np.array_equal(symplectic_eigenvalues(cov), row)
    for bad in (np.eye(3), np.ones(4), np.ones((2, 4, 2))):
        with pytest.raises(DomainError):
            symplectic_eigenvalues(bad)


def test_phase_scan_fit_recovers_extrema():
    model, st = pure_point(0.5)
    cov = output_covariance(pair_moments(model, st.rho, st.a0, 0.4), 0.83)
    ref = optimal_quadratures_from_cov(cov)
    # the variance is exactly a + b cos(2 theta) + c sin(2 theta), so a
    # least-squares fit of that form to six angles recovers the extrema
    th = np.linspace(0.1, 0.1 + math.pi, 6, endpoint=False)
    design = np.column_stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)])
    assert np.linalg.matrix_rank(design, tol=1e-10) == 3
    mean, d, off = np.linalg.lstsq(design, homodyne_variance(cov, th), rcond=None)[0]
    amp = math.hypot(d, off)
    assert mean - amp == pytest.approx(ref.var_min, rel=1e-10)
    assert mean + amp == pytest.approx(ref.var_max, rel=1e-10)
    theta_min = 0.5 * (math.atan2(off, d) + math.pi) % math.pi
    assert theta_min == pytest.approx(ref.theta_min, abs=1e-9)


def test_spectrum_grid_shapes_and_frequency_symmetry():
    model = make_model(0.0)
    st, _ = steady_at_x(model, 0.5)
    omegas = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * model.kappa
    grid = spectrum_grid(model, st, omegas, np.linspace(0, math.pi, 13))
    assert grid.variance.shape == (5, 13)
    assert np.allclose(grid.var_min[[0, 1]], grid.var_min[[4, 3]], rtol=1e-12)
    assert np.allclose(grid.var_max[[0, 1]], grid.var_max[[4, 3]], rtol=1e-12)
    # grid minimum can never beat the closed-form minimum
    assert np.all(grid.variance.min(axis=1) >= grid.var_min - 1e-12)
    assert np.all(grid.variance.max(axis=1) <= grid.var_max + 1e-12)


def test_spectrum_rolls_off_to_shot_noise():
    model = make_model(0.0)
    st, _ = steady_at_x(model, 0.5)
    grid = spectrum_grid(model, st, np.array([200.0 * model.kappa]))
    assert grid.var_min[0] == pytest.approx(1.0, abs=1e-3)
    assert grid.var_max[0] == pytest.approx(1.0, abs=1e-3)


def test_singular_above_threshold():
    model = make_model(2.0)
    st = SteadyState(
        a0=cmath.rect(1.0, -0.3), rho=1.0, delta_eff=1.0,
        branch="synthetic", all_rho=(1.0,), residual=0.0,
    )
    # x = 1 at alpha = 2 sits exactly at threshold: margin 0
    assert stability_margin(model, st) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SingularSystemError):
        pair_scattering(model, st, 0.0)


def test_power_sweep_flags_above_threshold():
    # with zero dispersion the pair instability window coincides exactly
    # with the (never selected) middle pump branch, so use dispersion to
    # raise the pair offset while the pump stays monostable at delta = 0
    model = make_model(0.0, g0=2.0, d2=5.0)
    p_th = threshold_power(model, l=1)
    assert math.isfinite(p_th)
    powers = np.linspace(0.2, 1.6, 8) * p_th
    sweep = power_sweep(model, powers)
    assert sweep.above_threshold.any() and not sweep.above_threshold.all()
    assert np.all(np.isnan(sweep.var_min[sweep.above_threshold]))
    ok = ~sweep.above_threshold
    assert np.all(np.isfinite(sweep.var_min[ok]))
    assert np.all(sweep.margin[ok] > 0)
    # photon number grows with drive along a fixed policy
    assert np.all(np.diff(sweep.rho) > 0)


def test_power_sweep_zero_detuning_never_flags():
    model = make_model(0.0, g0=2.0)
    powers = np.linspace(1e-5, 0.05, 6)
    sweep = power_sweep(model, powers, eta_total=0.6021708)
    assert not sweep.above_threshold.any()
    assert np.all(sweep.var_min < 1.0)
    assert np.all(sweep.var_max > 1.0)


def sweep_bytes(result):
    return tuple(
        getattr(result, name).tobytes()
        for name in ("rho", "var_min", "var_max", "theta_opt", "margin", "above_threshold")
    )


def per_point_sweep(model, powers, policy, omega, l, eta_total):
    """The sweep's columns through one full solve per power."""
    steadies = [
        solve_steady_state(model, PumpDrive.from_power(p, model.omega0), policy)
        for p in powers
    ]
    rho = np.array([s.rho for s in steadies], dtype=float)
    a0 = np.array([s.a0 for s in steadies], dtype=complex)
    pair = pair_moments(model, rho, a0, omega, l)
    ext = optimal_quadratures_from_cov(output_covariance(pair, eta_total))
    return (
        rho.tobytes(), ext.var_min.tobytes(), ext.var_max.tobytes(),
        ext.theta_min.tobytes(), pair.margin.tobytes(), (pair.margin <= 0.0).tobytes(),
    )


@pytest.mark.parametrize("policy", ["lowest", "highest", "adiabatic_upsweep"])
def test_power_sweep_matches_per_point_solves_bit_for_bit(policy):
    bistable = make_model(3.0, d2=0.4)
    lo, hi = bistable_flux_window(bistable)
    to_power = HBAR * bistable.omega0
    # zero, below, inside (three roots) and above the bistable window
    powers = [0.0, *(to_power * hi * f for f in np.linspace(0.05, 1.6, 40)), to_power * lo]
    assert any(
        len(steady_state_roots(bistable, PumpDrive.from_power(p, bistable.omega0))) == 3
        for p in powers
    )
    cases = [
        (bistable, powers, 0.3, 1, 0.6021708),
        (make_model(0.7, g0=0.0), powers, 0.0, 1, 1.0),
        (make_model(0.0, g0=2.0), [0.0, 0.0], 0.0, 2, 0.8),
        # numpy-scalar powers reach the per-point route as they are
        (bistable, [np.float32(0.0), np.float64(2 * lo * to_power), np.int64(0)], 0.1, 1, 0.9),
    ]
    for model, ps, omega, l, eta in cases:
        sweep = power_sweep(model, ps, omega=omega, l=l, eta_total=eta, branch_policy=policy)
        assert sweep_bytes(sweep) == per_point_sweep(model, ps, policy, omega, l, eta)


def test_power_sweep_refuses_policy_and_rtol_before_any_solve():
    model = make_model(3.0)
    with mock.patch("squeezesim.steady_state._photon_numbers", side_effect=AssertionError("solved")):
        for powers in ([1e-20], []):
            with pytest.raises(DomainError, match=r"^unknown branch policy 'upper'"):
                power_sweep(model, powers, branch_policy="upper")
            for rtol in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match=r"^rtol must be finite and positive"):
                    power_sweep(model, powers, rtol=rtol)


def test_power_sweep_names_a_bad_power():
    model = make_model(3.0)
    for bad in (math.nan, math.inf, -math.inf, -1e-20):
        message = f"^power must be finite and non-negative, got {bad}$"
        with pytest.raises(DomainError, match=message):
            power_sweep(model, [0.0, bad])
        with pytest.raises(DomainError, match=message):
            PumpDrive.from_power(bad, model.omega0)
    with pytest.raises(DomainError, match=r"^powers must be one-dimensional"):
        power_sweep(model, [[0.0, 1e-20]])


def test_power_sweep_names_the_first_bad_power_before_any_solve():
    model = make_model(3.0)
    with mock.patch("squeezesim.steady_state._photon_numbers", side_effect=AssertionError("solved")):
        for bad in (math.nan, -1.0, math.inf):
            message = f"^power must be finite and non-negative, got {bad}$"
            with pytest.raises(DomainError, match=message):
                power_sweep(model, np.array([0.0, 1e-20, bad, 2e-20]))
            # a later bad power is not the one named
            with pytest.raises(DomainError, match=message):
                power_sweep(model, [1e-20, bad, 3e-20, -2.0, math.nan])


def test_operating_points_of_no_power_are_empty():
    rho, a0 = operating_points(make_model(3.0), [])
    assert rho.shape == a0.shape == (0,)
    assert rho.dtype == np.float64 and a0.dtype == np.complex128


def test_output_covariance_of_a_scalar_point_is_its_written_out_matrix():
    # the layout of output_covariance's docstring, built entry by entry:
    # eta*V + (1 - eta)*I with V from n_signal and m_corr
    model = make_model(0.7, d2=0.2)
    for x, omega in ((0.0, 0.0), (0.3, -0.4), (0.55, 1.3)):
        st, _ = steady_at_x(model, x)
        pair = pair_moments(model, st.rho, st.a0, omega)
        n, m = pair.n_signal, pair.m_corr
        d, r, s, minus_r = 1.0 + 2.0 * n, 2.0 * m.real, 2.0 * m.imag, -2.0 * m.real
        for eta in (0.0, 0.6021708, 1.0):
            def on(v):
                return eta * v + (1.0 - eta) * 1.0

            def off(v):
                return eta * v + (1.0 - eta) * 0.0

            expected = np.array(
                [
                    [on(d), off(0.0), off(r), off(s)],
                    [off(0.0), on(d), off(s), off(minus_r)],
                    [off(r), off(s), on(d), off(0.0)],
                    [off(s), off(minus_r), off(0.0), on(d)],
                ]
            )
            cov = output_covariance(pair, eta)
            assert cov.shape == (4, 4) and cov.dtype == np.float64
            assert cov.tobytes() == expected.tobytes()


ETAS = (0.0, 0.37, 0.6021708, 1.0)


def random_model(rng):
    """A pair model with kappa/2 in [0.5, 2], any coupling, detuning and dispersion."""
    hk = rng.uniform(0.5, 2.0)
    return make_model(rng.uniform(-2.0, 2.0), eta_esc=rng.uniform(0.1, 1.0),
                      g0=rng.uniform(0.1, 10.0), hk=hk, d2=hk * rng.uniform(-1.0, 1.0))


def extrema_bytes(ext):
    """The bytes of each extremum: NaN positions and the sign of a zero show."""
    return tuple(np.asarray(getattr(ext, name), dtype=float).tobytes()
                 for name in ("var_min", "var_max", "theta_min"))


def covariance_route(pair, eta):
    return optimal_quadratures_from_cov(output_covariance(pair, eta))


def test_pair_extrema_are_the_covariance_route_bit_for_bit():
    rng = np.random.default_rng(20261019)
    nan_points = zero_thetas = 0
    for _ in range(40):
        model = random_model(rng)
        hk = 0.5 * model.kappa
        # drive strengths up to 1.5: some points lie above threshold
        rho = np.append(hk * rng.uniform(0.0, 1.5, 49) / model.g0, 0.0)
        a0 = np.append(np.sqrt(rho[:-1]) * np.exp(1j * rng.uniform(-np.pi, np.pi, 49)), 0j)
        omegas = model.kappa * rng.normal(size=50)
        points = [(rho, a0, omegas), (rho, a0, float(omegas[0])), (0.0, complex(-0.0, -0.0), 0.0)]
        points += [(r, a, w) for r, a, w in zip(rho[:5].tolist(), a0[:5].tolist(), omegas.tolist())]
        for r, a, w in points:
            pair = pair_moments(model, r, a, w)
            for eta in ETAS:
                ext = _pair_extrema(pair, eta)
                assert extrema_bytes(ext) == extrema_bytes(covariance_route(pair, eta))
                if np.ndim(w) == 0 and np.ndim(r) == 0:
                    assert {type(v) for v in (ext.var_min, ext.var_max, ext.theta_min)} == {float}
                nan_points += np.count_nonzero(np.isnan(ext.var_min))
                zero_thetas += np.count_nonzero(np.asarray(ext.theta_min) == 0.0)
    assert nan_points > 0 and zero_thetas > 0


def test_power_sweep_is_the_covariance_route_bit_for_bit():
    rng = np.random.default_rng(20261020)
    flagged = 0
    for k in range(20):
        model = random_model(rng)
        p_th = threshold_power(model)
        powers = np.sort(rng.uniform(0.0, 1.3, 50)) * (p_th if math.isfinite(p_th) else 1e-18)
        omega = model.kappa * rng.normal()
        eta = ETAS[k % len(ETAS)]
        sweep = power_sweep(model, powers, omega=omega, eta_total=eta)
        rho, a0 = operating_points(model, powers)
        expected = covariance_route(pair_moments(model, rho, a0, omega), eta)
        got = QuadratureExtrema(sweep.var_min, sweep.var_max, sweep.theta_opt)
        assert extrema_bytes(got) == extrema_bytes(expected)
        flagged += np.count_nonzero(sweep.above_threshold)
    assert flagged > 0


def test_calibration_extrema_are_the_covariance_route_bit_for_bit():
    rng = np.random.default_rng(20261021)
    calibrated = 0
    for k in range(60):
        model = random_model(rng)
        if k % 3 == 0:
            model = dataclasses.replace(model, delta=0.0, d2=0.0)  # b = 0: the closed form
        pump = PumpDrive.from_power(rng.uniform(1e-3, 0.1), model.omega0)
        omega = 0.5 * model.kappa * rng.uniform(-1.0, 1.0)
        eta = ETAS[k % len(ETAS)]
        try:
            cal = calibrate_g0_to_optimum(model, pump, omega=omega, eta_total=eta)
        except DomainError:
            continue  # no interior optimum
        calibrated += 1
        again = dataclasses.replace(model, g0=cal.g0)
        steady = steady_state_at_gain(again, pump, cal.x_opt * 0.5 * model.kappa)
        expected = covariance_route(pair_moments(again, steady.rho, steady.a0, omega), eta)
        got = QuadratureExtrema(cal.var_min, cal.var_max, cal.theta_opt)
        assert extrema_bytes(got) == extrema_bytes(expected)
    assert calibrated >= 30


@pytest.mark.parametrize("route", ["calibrate_g0_to_optimum", "power_sweep"])
def test_routes_without_the_covariance_refuse_its_eta(route):
    model = make_model(0.0, d2=0.0)
    pump = PumpDrive.from_power(0.050, model.omega0)
    pair = pair_moments(model, 0.1, 0.3 + 0.1j, 0.0)
    call = {
        "calibrate_g0_to_optimum": lambda eta: calibrate_g0_to_optimum(model, pump, eta_total=eta),
        "power_sweep": lambda eta: power_sweep(model, [0.0, 1e-20], eta_total=eta),
    }[route]
    for bad in (-1e-12, -1.0, 1.0 + 1e-12, 2.0, math.nan):
        with pytest.raises(DomainError) as refused:
            output_covariance(pair, bad)
        with pytest.raises(DomainError) as got:
            call(bad)
        assert str(got.value) == str(refused.value) == f"eta_total must lie in [0, 1], got {bad}"


@pytest.mark.parametrize("a0", [0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
                         ids=["0", "-0-0j", "+0-0j", "-0+0j"])
def test_a_zero_pump_field_has_frame_phase_plus_zero_on_both_routes(a0):
    model = make_model(0.7, d2=0.2)
    for rho in (0.0, 0.1):  # g0*rho below |delta_l|: the margin is clipped at kappa/2
        scalar = pair_moments(model, rho, a0, 0.3)
        array = pair_moments(model, np.array([rho]), np.array([a0], dtype=complex), [0.3])
        for phi_ref in (scalar.phi_ref, array.phi_ref[0]):
            assert phi_ref == 0.0 and math.copysign(1.0, phi_ref) == 1.0
        assert_scalar_point_is_its_array_point(scalar, array)


def assert_scalar_point_is_its_array_point(scalar, array):
    """Equal bits in every field but m_corr, which is equal to 1e-15 relative.

    The array route's complex products may run through numpy's fused loop;
    the scalar route's do not (see README, per-machine outputs).
    """
    for name in ("delta_l", "g", "phi_ref", "margin", "n_signal"):
        value = getattr(scalar, name)
        assert type(value) in (float, complex), name
        assert np.asarray(value).tobytes() == np.asarray(getattr(array, name)).tobytes(), name
    m_array = complex(array.m_corr[0])
    assert abs(scalar.m_corr - m_array) <= 1e-15 * abs(m_array)


def test_a_scalar_point_is_its_one_element_array_point():
    rng = np.random.default_rng(20261022)
    for _ in range(300):
        model = random_model(rng)
        x = rng.uniform(0.0, 1.5)  # above threshold too: NaN moments
        rho = x * 0.5 * model.kappa / model.g0
        a0 = math.sqrt(rho) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        omega = model.kappa * rng.normal()
        scalar = pair_moments(model, rho, a0, omega)
        array = pair_moments(model, np.array([rho]), np.array([a0]), np.array([omega]))
        if math.isnan(scalar.n_signal):
            assert np.isnan(array.m_corr).all() and math.isnan(abs(scalar.m_corr))
            scalar = dataclasses.replace(scalar, m_corr=0j)
            array = dataclasses.replace(array, m_corr=np.zeros(1, dtype=complex))
        assert_scalar_point_is_its_array_point(scalar, array)


def test_an_underflowing_determinant_gives_the_array_routes_moments():
    # |det|^2 underflows to 0 at rates near 1e-170 rad/s: numpy's 1/0 is
    # inf, and the scalar route must not raise ZeroDivisionError instead
    model = ResonatorModel(omega0=1.2e15, kappa_i=1e-170, kappa_e=1e-170, delta=1e-170)
    scalar = pair_moments(model, 0.0, 0j, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        array = pair_moments(model, np.array([0.0]), np.array([0j]), [0.0])
    for name in ("margin", "n_signal", "m_corr"):
        assert np.asarray(getattr(scalar, name)).tobytes() == getattr(array, name).tobytes()


def test_calibration_places_optimum_at_target_power():
    model = make_model(0.0, g0=0.0)  # g0 ignored by calibration
    omega0 = model.omega0
    pump = PumpDrive.from_power(0.050, omega0)
    cal = calibrate_g0_to_optimum(model, pump, eta_total=0.6021708)
    # at zero detuning the optimum drive strength is exactly 1/sqrt(3)
    assert cal.x_opt == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-7)
    hk = 0.5 * model.kappa
    rho_expected = model.kappa_e * pump.flux / (hk * hk + (cal.x_opt * hk) ** 2)
    assert cal.rho == pytest.approx(rho_expected, rel=1e-9)
    assert cal.g0 == pytest.approx(cal.x_opt * hk / rho_expected, rel=1e-9)
    assert cal.branch == "single"
    # the calibrated model really is optimal at the target power
    import dataclasses

    calibrated = dataclasses.replace(model, g0=cal.g0)
    best = power_sweep(
        calibrated, np.array([0.040, 0.050, 0.060]), eta_total=0.6021708
    )
    assert best.var_min[1] == pytest.approx(cal.var_min, rel=1e-9)
    assert best.var_min[1] < best.var_min[0]
    assert best.var_min[1] < best.var_min[2]


def test_calibration_rejects_threshold_chasing():
    # above the bistability knee squeezing improves monotonically toward
    # threshold, so no interior optimum exists
    model = make_model(2.0)
    pump = PumpDrive.from_power(0.050, model.omega0)
    with pytest.raises(DomainError):
        calibrate_g0_to_optimum(model, pump)


def test_calibration_names_non_finite_omega():
    pump = PumpDrive.from_power(0.050, make_model(0.0).omega0)
    # b = delta + d2*l^2/2 = 0 takes the closed form, b = -1/2 the quartic
    for model in (make_model(0.0), make_model(-0.5)):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="omega"):
                calibrate_g0_to_optimum(model, pump, omega=bad)


def calibration_objective(model, x, omega, l, eta_total):
    """Optimal-quadrature variance at drive strength x = g0*rho/(kappa/2), elementwise."""
    hk = 0.5 * model.kappa
    gain = np.asarray(x, dtype=float) * hk
    rho = gain / model.g0
    a0 = np.sqrt(rho) * np.exp(-1j * np.arctan2(model.delta - gain, hk))
    pair = pair_moments(model, rho, a0, omega, l)
    return optimal_quadratures_from_cov(output_covariance(pair, eta_total)).var_min


@settings(max_examples=40, deadline=None)
@given(
    w=hst.floats(0.0, 1.5),
    eta_esc=hst.floats(0.05, 1.0),
    eta=hst.floats(0.05, 1.0),
    l=hst.sampled_from([1, 2, 3]),
    d2=hst.just(0.0) | hst.floats(0.1, 2.0) | hst.floats(-2.0, -0.1),
)
def test_calibration_closed_form_where_pair_offset_vanishes(w, eta_esc, eta, l, d2):
    from scipy.optimize import minimize_scalar

    # kappa/2 = 1; delta = -d2*l^2/2 cancels the dispersion walk-off
    # exactly, so b == 0
    model = make_model(-(0.5 * d2 * l * l), eta_esc=eta_esc, d2=d2)
    omega = w
    pump = PumpDrive.from_power(0.050, model.omega0)
    with mock.patch("scipy.optimize.minimize_scalar", wraps=minimize_scalar) as search:
        cal = calibrate_g0_to_optimum(model, pump, omega=omega, l=l, eta_total=eta)
        assert search.call_count == 0
        x_ref = math.sqrt((1.0 + w * w) / 3.0)
        assert cal.x_opt == pytest.approx(x_ref, rel=1e-15, abs=0.0)
        for side in (1.0 - 1e-4, 1.0 + 1e-4):
            assert cal.var_min <= calibration_objective(model, cal.x_opt * side, omega, l, eta)
        assert cal.var_min == pytest.approx(1.0 - (2.0 / 3.0) * eta_esc * eta, abs=1e-12)
        assert cal.var_max == pytest.approx(1.0 + 2.0 * eta_esc * eta, abs=1e-12)

        # a pair offset of 1e-9*kappa/2 takes the quartic's roots, which
        # meet the closed form where the two branches join
        near = dataclasses.replace(model, delta=model.delta + 1e-9)
        offset = calibrate_g0_to_optimum(near, pump, omega=omega, l=l, eta_total=eta)
        assert search.call_count == 0
    assert abs(offset.x_opt - x_ref) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    b=hst.floats(-3.0, 3.0),
    w=hst.floats(0.0, 2.0),
    eta_esc=hst.floats(0.05, 1.0),
    eta=hst.floats(0.05, 1.0),
)
def test_calibration_finds_the_dense_grid_minimum(b, w, eta_esc, eta):
    # kappa/2 = 1, so delta = b; the grid spans calibration's own (0, x_hi]
    model = make_model(b, eta_esc=eta_esc)
    pump = PumpDrive.from_power(0.050, model.omega0)
    x_th = threshold_gain(model)
    x_hi = min(3.0, x_th * (1.0 - 1e-9))
    grid = np.linspace(0.0, x_hi, 20001)[1:]
    values = calibration_objective(model, grid, w, 1, eta)
    assert np.all(np.isfinite(values))
    best = int(np.argmin(values))
    edge = x_hi - 1e-3 * (x_hi - 1e-9)
    # the grid cannot tell which side of the band edge a minimum this close lies on
    assume(abs(grid[best] - edge) > 2.0 * grid[0])
    if grid[best] > edge:
        with pytest.raises(DomainError, match="interior"):
            calibrate_g0_to_optimum(model, pump, omega=w, eta_total=eta)
    else:
        cal = calibrate_g0_to_optimum(model, pump, omega=w, eta_total=eta)
        assert calibration_objective(model, cal.x_opt, w, 1, eta) <= values[best] + 1e-13


_CALIBRATION_PROBE = """
import json, sys
from squeezesim.params import PumpDrive, ResonatorModel
from squeezesim.spectra import calibrate_g0_to_optimum
rates = dict(omega0=1.2074690e15, kappa_i=0.2, kappa_e=1.8, d2=0.0, g0=1.0)
pump = PumpDrive.from_power(0.050, rates["omega0"])
cal = calibrate_g0_to_optimum(ResonatorModel(delta=0.0, **rates), pump, omega=0.3)
offset = calibrate_g0_to_optimum(ResonatorModel(delta=-0.5, **rates), pump, omega=0.3)
print(json.dumps({"x_opt": cal.x_opt, "offset_x_opt": offset.x_opt,
                  "optimize": "scipy.optimize" in sys.modules}))
"""


def test_closed_form_calibration_does_not_import_scipy_optimize():
    # a fresh interpreter, so no earlier test has imported scipy.optimize
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CALIBRATION_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["x_opt"] == pytest.approx(math.sqrt((1.0 + 0.3 * 0.3) / 3.0), rel=1e-15)
    # b = -1/2, w = 0.3: x_opt is a root of the quartic 9x^4 - 12b*x^3 + 4b*c0*x - (c0^2 + 4w^2)
    x, b, w = report["offset_x_opt"], -0.5, 0.3
    c0 = 1.0 + b * b - w * w
    terms = (9.0 * x ** 4, -12.0 * b * x ** 3, 4.0 * b * c0 * x, -(c0 * c0 + 4.0 * w * w))
    assert abs(sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)
    assert report["optimize"] is False


def test_readme_quick_start_runs():
    # the README's library example, verbatim, in a fresh interpreter
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    squeezing, threshold = proc.stdout.splitlines()
    assert squeezing.endswith(" dB below shot noise")
    assert float(squeezing.split()[0]) == pytest.approx(2.7665069188846, rel=1e-9)
    assert threshold.endswith(" mW threshold")
    assert float(threshold.split()[0]) == pytest.approx(83.555881568425, rel=1e-9)


def test_non_finite_inputs_name_their_field():
    model = make_model(0.7)
    st, _ = steady_at_x(model, 0.3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="power"):
            power_sweep(model, [0.0, bad])
        with pytest.raises(DomainError, match="omega"):
            spectrum_grid(model, st, [0.5, bad])
        with pytest.raises(DomainError, match="omega"):
            pair_scattering(model, st, bad)


@hst.composite
def pair_points(draw):
    """(model, steady, omega) with kappa/2 = g0 = 1, edges of the domain included.

    ``rho = x`` and ``a0 = sqrt(x)*exp(i*phase)`` go in directly, so the
    pump phase is free; the cold detuning is chosen for the drawn pair
    offset ``delta_l = delta - 2*x``.
    """
    eta_esc = draw(hst.just(1.0) | hst.floats(0.05, 1.0))  # 1.0: kappa_i = 0
    kind = draw(hst.sampled_from(["generic", "near threshold", "exceptional"]))
    sign = draw(hst.sampled_from([-1.0, 1.0]))
    if kind == "generic":
        x = draw(hst.floats(1e-3, 3.0))
        offset = draw(hst.floats(-4.0, 4.0))
        assume(x * x - offset * offset <= (1.0 - 2e-6) ** 2)  # margin/kappa >= 1e-6
    elif kind == "exceptional":  # |g| = |delta_l|
        x = draw(hst.floats(1e-3, 3.0))
        offset = sign * x
    else:  # margin/kappa = mu: sqrt(x^2 - offset^2) = 1 - 2*mu
        mu = 10.0 ** draw(hst.floats(-6.0, -2.0))
        x = draw(hst.floats(1.0, 3.0))
        offset = sign * math.sqrt(x * x - (1.0 - 2.0 * mu) ** 2)
    model = make_model(offset + 2.0 * x, eta_esc=eta_esc)
    a0 = math.sqrt(x) * cmath.exp(1j * draw(hst.floats(-math.pi, math.pi)))
    steady = SteadyState(
        a0=a0, rho=x, delta_eff=model.delta - x, branch="single",
        all_rho=(x,), residual=0.0,
    )
    omega = draw(hst.just(0.0) | hst.floats(-3.0, 3.0)) * model.kappa
    return model, steady, omega


@settings(max_examples=200, deadline=None)
@given(pair_points())
def test_pair_moments_match_scattering_matrix(point):
    model, steady, omega = point
    core = pair_moments(model, steady.rho, steady.a0, omega)
    assert core.margin >= 0.99e-6 * model.kappa
    s = pair_scattering(model, steady, omega)
    assert isinstance(s, np.ndarray) and s.shape == (2, 4)
    n_ref = abs(s[0, 1]) ** 2 + abs(s[0, 3]) ** 2
    m_ref = s[0, 0] * s[1, 0].conjugate() + s[0, 2] * s[1, 2].conjugate()
    tol = 1e-12 * (1.0 + core.n_signal)
    assert abs(core.n_signal - n_ref) <= tol
    assert abs(core.n_signal - idler_flux(s)) <= tol
    assert abs(core.m_corr - m_ref) <= tol
    # the Langevin oracle's step law takes its operating point from the core
    kappa = model.kappa
    law = _step_law(model, steady, 0.05 * 2.0 * math.pi / kappa, 1)
    assert law.phi_ref == core.phi_ref
    assert np.array_equal(
        law.p0, stationary_covariance(1.0, core.delta_l / kappa, core.g / kappa)
    )


def test_phase_scan_trace_structure_and_determinism():
    model, st = pure_point(0.5)
    kwargs = dict(
        l=1, eta_total=0.9, periods=2, samples_per_period=8,
        scan_time=0.5, rbw=1e5, vbw=1e2, seed=42,
    )
    tr1 = phase_scan_trace(model, st, 0.0, **kwargs)
    tr2 = phase_scan_trace(model, st, 0.0, **kwargs)
    assert isinstance(tr1, PhaseScanTrace)
    for name in ("time_s", "theta", "measured_db", "shot_db", "true_db"):
        assert np.array_equal(getattr(tr1, name), getattr(tr2, name))
    assert tr1.theta.size == 16
    ext = optimal_quadratures_from_cov(
        output_covariance(pair_moments(model, st.rho, st.a0, 0.0), 0.9)
    )
    assert tr1.theta[0] == pytest.approx(ext.theta_min, rel=1e-12)
    # even sampling puts the anti-squeezed angle exactly on the grid
    assert tr1.true_db[0] == pytest.approx(variance_db(ext.var_min), rel=1e-9)
    assert tr1.true_db[4] == pytest.approx(variance_db(ext.var_max), rel=1e-9)
    assert np.max(tr1.true_db) <= variance_db(ext.var_max) + 1e-9
    diff_seed = phase_scan_trace(model, st, 0.0, **{**kwargs, "seed": 43})
    assert not np.array_equal(tr1.measured_db, diff_seed.measured_db)


def test_phase_scan_trace_jitter_scale():
    model, st = pure_point(0.3)
    rbw, vbw = 1e5, 1e3
    tr = phase_scan_trace(
        model, st, 0.0, periods=40, samples_per_period=100,
        scan_time=40.0, rbw=rbw, vbw=vbw, seed=3,
    )
    rel = 10 ** (tr.measured_db / 10) / 10 ** (tr.true_db / 10) - 1.0
    sigma = math.sqrt(vbw / rbw)
    assert 0.5 * sigma < np.std(rel) < 2.0 * sigma
    shot_rel = 10 ** (tr.shot_db / 10) - 1.0
    assert abs(np.mean(shot_rel)) < 5 * sigma / math.sqrt(tr.shot_db.size)
    with pytest.raises(DomainError):
        phase_scan_trace(model, st, 0.0, samples_per_period=7)
    with pytest.raises(DomainError):
        phase_scan_trace(model, st, 0.0, vbw=1e6, rbw=1e5)
    # zero scan time gave NaN dB, a negative one a math domain error, inf a
    # NaN time axis; an infinite rbw silently removed the jitter
    for scan_time in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^scan_time must be finite and positive"):
            phase_scan_trace(model, st, 0.0, scan_time=scan_time)
    for rbw in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^rbw must be finite and positive"):
            phase_scan_trace(model, st, 0.0, rbw=rbw, vbw=0.0)
    with pytest.raises(DomainError, match=r"^periods must be at least 1$"):
        phase_scan_trace(model, st, 0.0, periods=0)


def test_db_helpers_sign_convention():
    assert variance_db(0.5) == pytest.approx(-3.0103, rel=1e-4)
    assert squeezing_db(0.5) == pytest.approx(3.0103, rel=1e-4)
    assert squeezing_db(1.0) == 0.0
    arr = squeezing_db(np.array([0.1, 1.0, 10.0]))
    assert arr[0] == pytest.approx(10.0, rel=1e-12)
    assert arr[2] == pytest.approx(-10.0, rel=1e-12)
