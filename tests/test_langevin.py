import cmath
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst
from scipy.integrate import quad_vec
from scipy.linalg import expm

from squeezesim import langevin
from squeezesim.config import load_config
from squeezesim.langevin import (
    CROSS_CHECK_THETAS,
    _NOISE_CHUNK_VALUES,
    _exact_bin_value,
    _hann_lag_sum,
    _hann_lags,
    _hann_periodograms,
    BinCheck,
    CrossValidation,
    augmented_matrices,
    cross_validate,
    discretize,
    drift_matrix,
    exact_bin_deviation_db,
    dump_series,
    expected_bin_value,
    load_series,
    segment_plan,
    simulate_pair,
    stationary_covariance,
)
from squeezesim.params import DomainError, PumpDrive, ResonatorModel
from squeezesim.spectra import (
    SingularSystemError,
    homodyne_variance,
    output_covariance,
    pair_moments,
    stability_margin,
)
from squeezesim.steady_state import SteadyState, solve_steady_state

from test_spectra import make_model, pure_point, steady_at_x

def test_drift_matrix_layout():
    a = drift_matrix(2.0, 0.7, 0.3 + 0.2j)
    expected = np.array(
        [
            [-1.0, 0.7, -0.2, 0.3],
            [-0.7, -1.0, 0.3, 0.2],
            [-0.2, 0.3, -1.0, 0.7],
            [0.3, 0.2, -0.7, -1.0],
        ]
    )
    assert np.allclose(a, expected, atol=1e-15)


def test_stationary_covariance_vacuum_quarter():
    for delta in (0.0, 1.3, -0.8):
        sig = stationary_covariance(2.0, delta, 0.0)
        assert np.allclose(sig, 0.25 * np.eye(4), atol=1e-12)


def test_stationary_covariance_solves_lyapunov():
    kappa, delta, g = 2.0, 0.5, 0.35 + 0.1j
    a = drift_matrix(kappa, delta, g)
    sig = stationary_covariance(kappa, delta, g)
    res = a @ sig + sig @ a.T + 0.25 * kappa * np.eye(4)
    assert np.max(np.abs(res)) < 1e-12
    # drive above vacuum: photon-number-like diagonal grows
    assert np.trace(sig) > 1.0 - 1e-12


def test_discretize_matches_quadrature():
    at, bt = augmented_matrices(0.3, 0.7, 0.4, 0.2 + 0.1j)
    dt = 0.3
    phi, q = discretize(at, bt, dt)
    assert np.allclose(phi, expm(at * dt), atol=1e-12)
    bbt = bt @ bt.T

    def integrand(s):
        e = expm(at * s)
        return e @ bbt @ e.T

    q_ref, _ = quad_vec(integrand, 0.0, dt, epsabs=1e-13, epsrel=1e-12)
    assert np.allclose(q, q_ref, rtol=1e-9, atol=1e-13)


def test_step_preserves_stationary_state():
    at, bt = augmented_matrices(0.1, 0.9, -0.6, 0.25 - 0.3j)
    phi, q = discretize(at, bt, 0.4)
    sig = stationary_covariance(1.0, -0.6, 0.25 - 0.3j)
    sig_next = phi[:4, :4] @ sig @ phi[:4, :4].T + q[:4, :4]
    assert np.allclose(sig_next, sig, atol=1e-13)


def test_boxcar_output_and_integral_variances_vacuum():
    # undriven cavity: the outgoing field is vacuum, so the boxcar average
    # over T has variance (1/4)/T, and the intracavity quadrature integral
    # has variance T - 2(1 - e^{-T/2}) times 1/... derived from the
    # exponential autocorrelation e^{-tau/2}/4 at kappa = 1
    kappa_e = 0.8
    at, bt = augmented_matrices(1.0 - kappa_e, kappa_e, 0.0, 0.0)
    t_step = 0.3
    phi, q = discretize(at, bt, t_step)
    sig0 = np.zeros((12, 12))
    sig0[:4, :4] = 0.25 * np.eye(4)
    total = phi @ sig0 @ phi.T + q
    c_out = np.zeros(12)
    c_out[4] = math.sqrt(kappa_e)
    c_out[8] = -1.0
    var_out = c_out @ total @ c_out
    assert var_out == pytest.approx(0.25 * t_step, rel=1e-10)
    a_half = 0.5
    var_y = 2 * 0.25 * (t_step / a_half - (1 - math.exp(-a_half * t_step)) / a_half ** 2)
    assert total[4, 4] == pytest.approx(var_y, rel=1e-10)


def test_hann_periodograms_white_noise_density():
    rng = np.random.default_rng(5)
    dt = 0.1
    x = rng.standard_normal((500, 256)) / math.sqrt(dt)
    spec = np.empty((500, 129), dtype=complex)
    p = _hann_periodograms(x.copy(), dt, np.arange(129), spec)
    # a selection squares and scales those columns of the same transform
    picked = _hann_periodograms(x.copy(), dt, np.array([3, 0, 128, 3]), spec)
    assert picked.tobytes() == p[:, [3, 0, 128, 3]].tobytes()
    psd, sigma = p.mean(axis=0), p.std(axis=0, ddof=1) / math.sqrt(x.shape[0])
    # the bins lie on the grid simulate_pair reports as its omega
    omega = 2.0 * math.pi * np.fft.rfftfreq(x.shape[1], d=dt)
    assert p.shape == (500, omega.size)
    assert omega[0] == 0.0
    assert omega[-1] == pytest.approx(math.pi / dt, rel=1e-12)
    core = slice(1, -1)
    assert abs(psd[core].mean() - 1.0) < 0.02
    assert np.all(sigma[core] > 0)
    z = (psd[core] - 1.0) / sigma[core]
    assert np.mean(np.abs(z) <= 3.5) > 0.95


def test_vacuum_run_is_flat_shot_noise():
    model = make_model(0.4)
    steady = solve_steady_state(model, PumpDrive.from_power(0.0, model.omega0))
    run = simulate_pair(
        model, steady, dt=0.05 * 2 * math.pi / model.kappa, n_samples=256,
        n_segments=600, thetas=(0.0, 1.0), eta_total=0.7, seed=12,
    )
    core = run.psd[:, 1:-1]
    assert abs(core.mean() - 1.0) < 0.01
    z = (core - 1.0) / run.psd_sigma[:, 1:-1]
    assert np.mean(np.abs(z) <= 3.5) > 0.95
    assert run.series.shape == (2, 256)
    assert run.psd.shape == (2, 129)


def test_zero_efficiency_run_is_flat_shot_noise_at_a_squeezed_pump():
    # at eta_total = 0 the detector sees only the loss vacuum, whatever the pair does
    model, st = pure_point(0.5)
    dt, n = 0.05 * 2 * math.pi / model.kappa, 256
    run = simulate_pair(
        model, st, dt=dt, n_samples=n, n_segments=600,
        thetas=(0.0, 0.5 * math.pi), eta_total=0.0, seed=12,
    )
    core = run.psd[:, 1:-1]
    assert abs(core.mean() - 1.0) < 0.01
    z = (core - 1.0) / run.psd_sigma[:, 1:-1]
    assert np.mean(np.abs(z) <= 3.5) > 0.95
    for th in run.thetas:
        assert expected_bin_value(model, st, float(th), 20, dt, n, eta_total=0.0) == 1.0


def test_run_next_to_threshold_gives_finite_spectra():
    # x = 0.999: the margin is kappa/2000
    model, st = pure_point(0.999)
    assert 0.0 < stability_margin(model, st) < 1e-3 * model.kappa
    omega_t = 0.3 * model.kappa
    dt, n = segment_plan(model.kappa, omega_t)
    k = int(round(omega_t * n * dt / (2 * math.pi)))
    run = simulate_pair(
        model, st, dt=dt, n_samples=n, n_segments=20,
        thetas=(0.0, 0.5 * math.pi), eta_total=0.8, seed=3,
    )
    assert np.all(np.isfinite(run.psd)) and np.all(np.isfinite(run.psd_sigma))
    assert np.all(run.psd > 0.0)
    anti, squeezed = (
        expected_bin_value(model, st, float(th), k, dt, n, eta_total=0.8) for th in run.thetas
    )
    assert squeezed < 1.0 < anti
    assert run.psd[1, k] < 1.0 < run.psd[0, k]


def test_squeezed_run_matches_analytic_bins():
    model, st = pure_point(0.5)
    omega_t = 0.5 * model.kappa
    dt, n = segment_plan(model.kappa, omega_t)
    k = int(round(omega_t * n * dt / (2 * math.pi)))
    run = simulate_pair(
        model, st, dt=dt, n_samples=n, n_segments=1500,
        thetas=(0.0, 0.8, 0.5 * math.pi), eta_total=0.8, seed=77,
    )
    for i, th in enumerate(run.thetas):
        expected = expected_bin_value(
            model, st, float(th), k, dt, n, eta_total=0.8
        )
        z = (run.psd[i, k] - expected) / run.psd_sigma[i, k]
        assert abs(z) < 4.0, (th, run.psd[i, k], expected, z)
    # squeezing visible well below shot at the optimal angle
    assert run.psd[2, k] < 0.75
    assert run.psd[0, k] > 1.5


def test_simulation_is_bitwise_deterministic():
    model, st = pure_point(0.4)
    kwargs = dict(
        dt=0.05 * 2 * math.pi / model.kappa, n_samples=64, n_segments=40,
        thetas=(0.3,), eta_total=0.9, seed=123,
    )
    r1 = simulate_pair(model, st, **kwargs)
    r2 = simulate_pair(model, st, **kwargs)
    assert np.array_equal(r1.psd, r2.psd)
    assert np.array_equal(r1.series, r2.series)
    assert np.array_equal(r1.psd_sigma, r2.psd_sigma)
    r3 = simulate_pair(model, st, **{**kwargs, "seed": 124})
    assert not np.array_equal(r1.psd, r3.psd)
    # several noise chunks per segment and a partial last batch
    batch = 16
    chunk = _NOISE_CHUNK_VALUES // (8 * batch)
    long_kwargs = {**kwargs, "n_samples": chunk + 37, "n_segments": 2 * batch + 3,
                   "batch_size": batch}
    r4 = simulate_pair(model, st, **long_kwargs)
    r5 = simulate_pair(model, st, **long_kwargs)
    assert r4.series.shape[-1] > chunk and long_kwargs["n_segments"] % batch != 0
    assert np.array_equal(r4.psd, r5.psd)
    assert np.array_equal(r4.psd_sigma, r5.psd_sigma)
    assert np.array_equal(r4.series, r5.series)


def test_a_batch_wider_than_the_run_changes_no_bit_and_allocates_no_more():
    # validate --dump-series: 8 segments of validate_fast.cfg's plan at 40 mW
    cfg = load_config(Path(__file__).resolve().parent / "data" / "validate_fast.cfg")
    steady = cfg.solve(40e-3)
    dt, n = segment_plan(cfg.model.kappa, cfg.omega)

    def run(n_segments, eta_total, batch_size):
        return simulate_pair(
            cfg.model, steady, dt=dt, n_samples=n, n_segments=n_segments,
            thetas=CROSS_CHECK_THETAS, eta_total=eta_total, seed=7, batch_size=batch_size,
        )

    for n_segments in (8, 37):
        for eta_total in (0.602, 1.0):
            runs = [run(n_segments, eta_total, batch) for batch in (n_segments, 128, 5000)]
            for other in runs[1:]:
                for name in ("psd", "psd_sigma", "series"):
                    assert getattr(other, name).tobytes() == getattr(runs[0], name).tobytes()

    def peak(batch_size):
        tracemalloc.start()
        try:
            run(8, 0.602, batch_size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    exact = peak(8)
    # buffers sized for 128 or 4096 segments would peak at about 4x or 40x
    assert peak(128) <= 1.05 * exact
    assert peak(4096) <= 1.05 * exact


def test_selected_bins_are_the_full_runs_columns_bit_for_bit():
    # 40 and 33 segments in batches of 16 end on batches of 8 and of 1
    model, st = pure_point(0.5)
    dt = 0.05 * 2 * math.pi / model.kappa
    for eta_total in (0.8, 1.0):
        for n_segments in (32, 40, 33):
            kwargs = dict(
                dt=dt, n_samples=64, n_segments=n_segments, thetas=CROSS_CHECK_THETAS,
                eta_total=eta_total, seed=9, batch_size=16,
            )
            full = simulate_pair(model, st, **kwargs)
            assert full.psd.shape == (3, 33) and full.omega.shape == (33,)
            for bins in ((4,), (0, 32), (7, 3, 7), np.array([5, 1]), ()):
                run = simulate_pair(model, st, **kwargs, bins=bins)
                cols = list(bins)
                assert run.psd.shape == run.psd_sigma.shape == (3, len(cols))
                for name in ("psd", "psd_sigma"):
                    assert getattr(run, name).tobytes() == getattr(full, name)[:, cols].tobytes()
                assert run.omega.tobytes() == full.omega[cols].tobytes()
                assert run.series.tobytes() == full.series.tobytes()


def test_segment_sums_add_in_segment_order(monkeypatch):
    # the first segment's bin is 2**54 and every later one 2 after the
    # /0.5: a running sum in segment order rounds each 2 away (ties to
    # even), while a pairwise sum collects the 2s first and keeps them
    real = langevin._hann_periodograms

    def periodograms(segments, dt, bins, spec):
        p = real(segments, dt, bins, spec)
        p[...] = 1.0
        p[:, 0] = 2.0 ** 53
        return p

    monkeypatch.setattr(langevin, "_hann_periodograms", periodograms)
    model, st = pure_point(0.5)
    for bins in (None, (4,), (4, 9)):
        run = simulate_pair(
            model, st, dt=0.05 * 2 * math.pi / model.kappa, n_samples=64, n_segments=16,
            thetas=CROSS_CHECK_THETAS, seed=9, batch_size=16, bins=bins,
        )
        assert np.all(run.psd == 2.0 ** 50) and np.all(run.psd_sigma == 2.0 ** 50), bins


def test_simulate_pair_refuses_bins_off_the_grid():
    model, st = pure_point(0.4)
    dt = 0.05 * 2 * math.pi / model.kappa
    # 64 samples: bins 0 to 32
    for bad in ((33,), (4, -1), (2.0,), (True,), ("3",), (np.float64(3.0),), 4, [[1, 2]]):
        with pytest.raises(DomainError, match="^bins must be"):
            simulate_pair(model, st, dt=dt, n_samples=64, n_segments=4, bins=bad)


def test_projected_loss_vacuum_correlates_angles():
    # at vacuum input the record at angle theta is cos(theta) u_q +
    # sin(theta) u_p of one detected field, loss included, so two angles
    # correlate as cos(theta1 - theta2); a loss draw per angle would give
    # eta * cos(theta1 - theta2) = 0.35 instead
    model = make_model(0.4)
    steady = solve_steady_state(model, PumpDrive.from_power(0.0, model.omega0))
    run = simulate_pair(
        model, steady, dt=0.05 * 2 * math.pi / model.kappa, n_samples=4096,
        n_segments=2, thetas=(0.0, math.pi / 3), eta_total=0.7, seed=41,
    )
    rho = np.corrcoef(run.series)[0, 1]
    stderr = (1.0 - 0.5 ** 2) / math.sqrt(run.series.shape[1])
    assert abs(rho - 0.5) < 5.0 * stderr, rho


def test_simulate_input_validation():
    model, st = pure_point(0.4)
    good_dt = 0.05 * 2 * math.pi / model.kappa
    period = 2 * math.pi / model.kappa
    # the step may reach one cavity period, where the exact-bin tests end
    run = simulate_pair(model, st, dt=period, n_samples=64, n_segments=2)
    assert run.dt == period
    for bad_dt in (period * (1 + 1e-9), 3 * period, 0.0, -good_dt, math.nan, math.inf):
        with pytest.raises(DomainError, match="dt"):
            simulate_pair(model, st, dt=bad_dt, n_samples=64, n_segments=10)
    with pytest.raises(DomainError):
        simulate_pair(model, st, dt=good_dt, n_samples=4, n_segments=10)
    with pytest.raises(DomainError):
        simulate_pair(model, st, dt=good_dt, n_samples=64, n_segments=1)
    for batch_size in (0, -3):
        with pytest.raises(DomainError, match="batch_size"):
            simulate_pair(
                model, st, dt=good_dt, n_samples=64, n_segments=10,
                batch_size=batch_size,
            )
    for eta in (math.nan, -0.1, 1.1):
        with pytest.raises(DomainError, match="eta_total"):
            simulate_pair(model, st, dt=good_dt, n_samples=64, n_segments=10, eta_total=eta)
    bad = SteadyState(
        a0=1.0 + 0j, rho=1.0, delta_eff=1.0, branch="synthetic",
        all_rho=(1.0,), residual=0.0,
    )
    with pytest.raises(SingularSystemError):
        simulate_pair(make_model(2.0), bad, dt=good_dt, n_samples=64, n_segments=10)


def _five_percent_plan(kappa, omega):
    """The plan before segments were capped at 500 steps: dt <= 5% of a period."""
    base = 2.0 * math.pi / kappa
    dt = 0.05 * base if omega < kappa else 0.0125 * base
    rel_bw = 0.25 if omega < 0.5 * kappa else 0.125
    return dt, max(32, int(round(2.0 * math.pi / (rel_bw * omega) / dt)))


def test_segment_plan_rules():
    kappa = 2.0
    period = 2 * math.pi / kappa
    for omega_units in (1 / 125, 0.01, 0.042, 0.05, 0.1, 0.2, 0.49, 0.5, 0.99, 1.0, 3.0):
        omega = omega_units * kappa
        dt, n = segment_plan(kappa, omega)
        assert dt <= period * (1 + 1e-12)
        assert 32 <= n <= 500
        k = round(omega * n * dt / (2 * math.pi))
        rel = 0.25 if omega < 0.5 * kappa else 0.125
        assert k == round(1.0 / rel)
        old_dt, old_n = _five_percent_plan(kappa, omega)
        if old_n <= 500:
            assert (dt, n) == (old_dt, old_n)
        else:  # same bin width from 500 coarser steps
            assert n == 500
            assert n * dt == pytest.approx(2 * math.pi / (rel * omega), rel=1e-12)
    # criterion 3's five frequencies: 500 + 500 + 462 + 222 + 213 steps
    omegas = np.geomspace(0.01 * kappa, 3.0 * kappa, 5)
    assert sum(segment_plan(kappa, float(w))[1] for w in omegas) == 1897
    # below kappa/125 the step stays at one period and the segment grows
    dt, n = segment_plan(kappa, 0.004 * kappa)
    assert dt == period and n == 1000
    # the last pair overflowed the step count of a finite span
    for k, bad in ((kappa, 0.0), (kappa, -1.0), (kappa, math.nan), (kappa, math.inf),
                   (kappa, 5e-324), (1.4547819e9, 1e-300)):
        with pytest.raises(DomainError, match="omega"):
            segment_plan(k, bad)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="kappa"):
            segment_plan(bad, 0.5)


def test_expected_bin_matches_exact_bin_on_criterion_3_plan():
    # criterion 3's model, pump levels, frequencies and angles: the spectra
    # route and the step-law route give one bin to rounding
    model = make_model(2.0)
    omegas = np.geomspace(0.01 * model.kappa, 3.0 * model.kappa, 5)
    thetas = (0.0, 0.25 * math.pi, 0.5 * math.pi)
    for fraction in (0.0, 0.5, 0.9):
        steady, _ = steady_at_x(model, fraction)
        worst_db = 0.0
        for omega in omegas:
            dt, n = segment_plan(model.kappa, float(omega))
            k = round(omega * n * dt / (2 * math.pi))
            for theta in thetas:
                args = (model, steady, theta, k, dt, n)
                expected = expected_bin_value(*args, eta_total=0.602)
                exact = _exact_bin_value(*args, eta_total=0.602)
                dev = abs(expected - exact) / exact
                assert dev <= 1e-10, (fraction, omega / model.kappa, theta, dev)
                worst_db = max(worst_db, abs(10 * math.log10(expected / exact)))
        reported = exact_bin_deviation_db(model, steady, omegas, thetas, eta_total=0.602)
        assert reported == worst_db


def test_exact_bin_matches_simulation_where_aliases_matter():
    # one cavity period per step and a bin near Nyquist: the record's
    # aliases lift the squeezed bin, and simulate_pair and both exact bin
    # routes agree, while a three-tap Hann kernel over the spectrum at the
    # bin frequency alone (no aliases) misses by many standard errors
    model = make_model(2.0)
    steady, _ = steady_at_x(model, 0.9)
    dt, n, k, eta = 2 * math.pi / model.kappa, 32, 15, 0.7
    thetas = (0.0, 0.5 * math.pi)
    run = simulate_pair(
        model, steady, dt=dt, n_samples=n, n_segments=8000, thetas=thetas,
        eta_total=eta, seed=3,
    )
    kernel = np.array([1 / 6, 2 / 3, 1 / 6])  # Hann power onto the nearest bins
    taps = 2 * math.pi * (k + np.array([-1, 0, 1])) / (n * dt)
    pair = pair_moments(model, steady.rho, steady.a0, taps)
    no_alias_excess = homodyne_variance(output_covariance(pair), np.array(thetas)) - 1.0
    for i, theta in enumerate(thetas):
        args = (model, steady, theta, k, dt, n)
        exact = _exact_bin_value(*args, eta_total=eta)
        expected = expected_bin_value(*args, eta_total=eta)
        roll = np.sinc(taps * dt / (2 * math.pi)) ** 2
        no_alias = 1 + eta * np.dot(kernel, no_alias_excess[:, i] * roll)
        sigma = run.psd_sigma[i, k]
        assert abs(run.psd[i, k] - exact) <= 4 * sigma, (theta, run.psd[i, k], exact)
        assert abs(expected - exact) <= 1e-10 * exact
        assert abs(no_alias - exact) >= 8 * sigma, (theta, no_alias, exact)


@hst.composite
def exact_bin_points(draw):
    """(model, steady, theta, omega, eta) below threshold, edges included.

    kappa/2 = g0 = 1; ``x = g0 rho / (kappa/2)`` up to 0.999 and any pair
    offset keep the stability margin >= 0.0005 kappa.  ``rho = x`` and
    ``a0 = sqrt(x) exp(i phase)`` go in directly; the cold detuning gives
    the drawn offset, which may sit on the exceptional point |g| = |delta_l|
    to rounding.  ``omega`` spans the plans with n <= 500, down to
    kappa/125, where the step is one cavity period.
    """
    x = draw(hst.sampled_from([0.0, 0.999]) | hst.floats(0.0, 0.999))
    offset = draw(hst.just(0.0) | hst.sampled_from([x, -x]) | hst.floats(-4.0, 4.0))
    eta_esc = draw(hst.just(1.0) | hst.floats(0.05, 1.0))  # 1.0: kappa_i = 0
    eta = draw(hst.sampled_from([0.0, 1.0]) | hst.floats(0.0, 1.0))
    log_omega = draw(hst.floats(math.log10(1 / 125), math.log10(3.0)))
    theta = draw(hst.floats(0.0, math.pi))
    model = make_model(offset + 2.0 * x, eta_esc=eta_esc)
    a0 = math.sqrt(x) * cmath.exp(1j * draw(hst.floats(-math.pi, math.pi)))
    steady = SteadyState(
        a0=a0, rho=x, delta_eff=model.delta - x, branch="single",
        all_rho=(x,), residual=0.0,
    )
    return model, steady, theta, 10.0 ** log_omega * model.kappa, eta, x


@settings(max_examples=150, deadline=None)
@given(exact_bin_points())
@example(  # one period per step, 32 dB squeezed: fails without the alias sum
    (make_model(1.9, eta_esc=1.0),
     SteadyState(a0=math.sqrt(0.95) + 0j, rho=0.95, delta_eff=1.9 - 0.95,
                 branch="single", all_rho=(0.95,), residual=0.0),
     0.5 * math.pi, 2.0 / 125, 1.0, 0.95)
)
def test_expected_bin_tracks_exact_bin_at_the_edges(point):
    model, steady, theta, omega, eta, x = point
    dt, n = segment_plan(model.kappa, omega)
    assert n <= 500 and dt <= 2 * math.pi / model.kappa * (1 + 1e-12)
    k = round(omega * n * dt / (2 * math.pi))
    args = (model, steady, theta, k, dt, n)
    expected = expected_bin_value(*args, eta_total=eta)
    exact = _exact_bin_value(*args, eta_total=eta)
    if eta == 0.0:
        assert expected == 1.0 and exact == 1.0
    assert abs(expected - exact) <= 1e-10 * exact, (x, expected, exact)


@pytest.mark.parametrize("a0", [0.5, 0.75j, 0.5 + 0.5j, -0.9375])
def test_expected_bin_is_exact_at_the_exceptional_point(a0):
    # dyadic a0 and offsets make |g| = |delta_l| hold exactly in binary: the
    # pair's two poles merge, and the excess autocovariance of the spectra
    # route follows a Jordan block
    x = a0.real ** 2 + a0.imag ** 2
    for offset in (x, -x):
        model = make_model(offset + 2.0 * x, eta_esc=0.8)
        steady = SteadyState(
            a0=complex(a0), rho=x, delta_eff=model.delta - x, branch="single",
            all_rho=(x,), residual=0.0,
        )
        pair = pair_moments(model, steady.rho, steady.a0, 0.0)
        g = complex(pair.g)
        assert g.real ** 2 + g.imag ** 2 == float(pair.delta_l) ** 2
        for omega_units in (1 / 125, 0.05, 0.4, 3.0):
            dt, n = segment_plan(model.kappa, omega_units * model.kappa)
            k = round(omega_units * model.kappa * n * dt / (2 * math.pi))
            for theta in (0.0, 0.3, 0.5 * math.pi):
                for eta in (0.0, 0.6, 1.0):
                    args = (model, steady, theta, k, dt, n)
                    expected = expected_bin_value(*args, eta_total=eta)
                    exact = _exact_bin_value(*args, eta_total=eta)
                    assert abs(expected - exact) <= 1e-10 * exact, (a0, offset, omega_units)
                    if eta == 0.0:
                        assert expected == 1.0 and exact == 1.0


def test_hann_lag_sum_matches_a_plain_lag_loop():
    # doubled powers of a against one matrix-vector step per lag, and the
    # window autocorrelation against np.correlate
    rng = np.random.default_rng(8)
    for n, k in ((8, 1), (33, 4), (500, 8), (1000, 4)):
        a = rng.standard_normal((4, 4))
        a *= 0.999 / np.max(np.abs(np.linalg.eigvals(a)))
        c, y = rng.standard_normal(4), rng.standard_normal(4)
        w = 0.5 * (1.0 - np.cos(2 * math.pi * np.arange(n) / n))
        ww = np.correlate(w, w, "full")[n - 1 :]
        terms, v = [1.3], y
        for tau in range(1, n):
            terms.append(2 * (c @ v) * ww[tau] / ww[0] * math.cos(2 * math.pi * k * tau / n))
            v = a @ v
        got = _hann_lag_sum(1.3, _hann_lags(a, c, k, n), y)
        assert abs(got - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms), (n, got)


def test_expected_bin_value_over_angles_is_the_scalar_calls_bit_for_bit():
    model = make_model(2.0)
    thetas = (0.0, 0.25 * math.pi, 0.5 * math.pi, 1.3, -2.0)
    for fraction in (0.0, 0.5, 0.9):
        steady, _ = steady_at_x(model, fraction)
        for omega in (0.02 * model.kappa, 0.5 * model.kappa, 3.0 * model.kappa):
            dt, n = segment_plan(model.kappa, omega)
            k = round(omega * n * dt / (2 * math.pi))
            for eta in (0.602, 1.0):
                args = (model, steady)
                one = [expected_bin_value(*args, th, k, dt, n, eta_total=eta) for th in thetas]
                assert all(type(v) is float for v in one)
                for angles in (thetas, np.array(thetas)):
                    many = expected_bin_value(*args, angles, k, dt, n, eta_total=eta)
                    assert isinstance(many, np.ndarray) and many.shape == (len(thetas),)
                    assert many.tobytes() == np.array(one).tobytes()
    steady, _ = steady_at_x(model, 0.5)
    assert expected_bin_value(model, steady, [0.3], k, dt, n).shape == (1,)
    assert type(expected_bin_value(model, steady, np.float64(0.3), k, dt, n)) is float
    with pytest.raises(DomainError, match="theta must be finite, got nan"):
        expected_bin_value(model, steady, (0.3, math.nan), k, dt, n)


def test_bin_values_name_bad_inputs():
    model, st = pure_point(0.4)
    dt, n = segment_plan(model.kappa, 0.5 * model.kappa)
    for f in (expected_bin_value, _exact_bin_value):
        assert math.isfinite(f(model, st, 0.3, 4, dt, n))
        for bad_dt in (-0.1, 0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="dt"):
                f(model, st, 0.3, 4, bad_dt, n)
        for bad_theta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="theta"):
                f(model, st, bad_theta, 4, dt, n)
        with pytest.raises(DomainError, match="eta_total"):
            f(model, st, 0.3, 4, dt, n, eta_total=math.nan)
        with pytest.raises(DomainError, match="bin index"):
            f(model, st, 0.3, n // 2, dt, n)


def test_cross_validate_passes_and_detects_perturbation():
    model, st = pure_point(0.5)
    omegas = [0.3 * model.kappa, 1.5 * model.kappa]
    report = cross_validate(
        model, st, omegas, n_segments=800, seed=5,
        n_sigma=4.5, max_db_err=0.6, min_pass_fraction=0.95,
    )
    assert isinstance(report, CrossValidation)
    assert len(report.checks) == 6
    assert all(isinstance(c, BinCheck) for c in report.checks)
    assert report.passed, [(c.omega, c.theta, c.z, c.delta_db) for c in report.checks]
    assert report.runtime_s > 0
    for c in report.checks:
        assert c.sigma > 0
    # each frequency is its plan's snapped bin centre 2 pi k / (n dt),
    # within half a bin of the one requested
    per_omega = len(CROSS_CHECK_THETAS)
    for j, target in enumerate(omegas):
        dt, n = segment_plan(model.kappa, target)
        bin_width = 2.0 * math.pi / (n * dt)
        for c in report.checks[j * per_omega : (j + 1) * per_omega]:
            k = round(c.omega / bin_width)
            assert c.omega == pytest.approx(k * bin_width, rel=1e-14)
            assert abs(c.omega - target) <= 0.5 * bin_width
    # a wrong detection efficiency in the analytic arm must be caught
    bad = cross_validate(
        model, st, omegas, n_segments=800, seed=5,
        n_sigma=4.5, max_db_err=0.6, expected_eta_total=0.6,
    )
    assert not bad.passed


def test_cross_validate_grid_mismatch():
    model, st = pure_point(0.4)
    with pytest.raises(DomainError):
        cross_validate(model, st, [100.0 * model.kappa], n_segments=4)
    with pytest.raises(DomainError, match="frequency"):
        cross_validate(model, st, [], n_segments=4)
    with pytest.raises(DomainError, match="angle"):
        cross_validate(model, st, [0.5 * model.kappa], thetas=(), n_segments=4)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="omega"):
            cross_validate(model, st, [0.5 * model.kappa, bad], n_segments=4)
    for eta in (math.nan, -0.1, 1.1):
        with pytest.raises(DomainError, match="eta_total"):
            cross_validate(model, st, [0.5 * model.kappa], n_segments=4, eta_total=eta)


SERIES_HEADER = "squeezesim-series 1 n_thetas=2 n_samples=3 dt=0.5\n"


@pytest.mark.parametrize("header, payload_bytes, message", [
    (SERIES_HEADER.replace("n_thetas=2", "n_thetas2"), 48, "series header field 'n_thetas2'"),
    (SERIES_HEADER.replace("n_thetas=", "thetas="), 48, "series header field 'thetas=2'"),
    (SERIES_HEADER.replace("dt=0.5", "n_samples=3"), 48, "series header field 'n_samples=3'"),
    (SERIES_HEADER.replace("n_thetas=2", "n_thetas=2.5"), 48, "n_thetas must be a non-negative"),
    (SERIES_HEADER.replace("n_samples=3", "n_samples=-3"), 48, "n_samples must be a non-negative"),
    (SERIES_HEADER.replace("dt=0.5", "dt=0.5\u00b5"), 48, "series header is not ASCII"),
    (SERIES_HEADER.replace("dt=0.5", "dt=half"), 48, "dt must be a number"),
    (SERIES_HEADER.replace("dt=0.5", "dt=-5"), 48, "dt must be positive and finite, got -5.0"),
    (SERIES_HEADER.replace("dt=0.5", "dt=nan"), 48, "dt must be positive and finite, got nan"),
    (SERIES_HEADER, 47, "payload holds 47 bytes, header promises 6 float64 values"),
    (SERIES_HEADER, 56, "payload holds 56 bytes, header promises 6 float64 values"),
    ("x" * 10 ** 5, 0, "not a squeezesim-series v1 file: 'x{80}'$"),
], ids=["field_without_equals", "unknown_key", "repeated_key", "fractional_count",
        "negative_count", "non_ascii", "dt_not_a_number", "negative_dt", "nan_dt",
        "ragged_payload", "long_payload", "no_header_line"])
def test_load_series_names_what_breaks_the_layout(tmp_path, header, payload_bytes, message):
    path = tmp_path / "series.bin"
    path.write_bytes(header.encode("utf-8") + bytes(payload_bytes))
    with pytest.raises(DomainError, match=f"^{message}"):
        load_series(path)


@pytest.mark.parametrize("dt", [0.1, np.float64(0.1)])
def test_load_series_reads_what_dump_series_wrote(tmp_path, dt):
    # a numpy dt once went into the header as its repr, "np.float64(0.1)"
    series = np.random.default_rng(3).normal(size=(3, 5))
    path = tmp_path / "series.bin"
    dump_series(path, types.SimpleNamespace(series=series, dt=dt))
    assert path.read_bytes().startswith(b"squeezesim-series 1 n_thetas=3 n_samples=5 dt=0.1\n")
    back, back_dt = load_series(path)
    assert back_dt == 0.1
    assert back.tobytes() == series.tobytes()
