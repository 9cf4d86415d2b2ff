import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squeezesim.params import HBAR, DomainError, PumpDrive, ResonatorModel
from squeezesim.steady_state import (
    SteadyState,
    bistable_flux_window,
    cubic_roots_scaled,
    fixed_point_flux,
    fixed_point_photons,
    g0_for_gain,
    g0_for_threshold_fraction,
    is_bistable,
    solve_steady_state,
    steady_state_at_gain,
    steady_state_on_branch,
    steady_state_roots,
    threshold_gain,
    threshold_intracavity,
    threshold_power,
)

# Hand-factored anchors for the scaled cubic
#   u^3 - 2a u^2 + (1+a^2) u - b = 0   at a = 2:
# b = 1.625 factors as (u - 0.5)(u^2 - 3.5u + 3.25), complex pair -> one root;
# b = 1.989 factors as (u - 0.9)(u^2 - 3.1u + 2.21), real pair at
# (3.1 +- sqrt(0.77))/2.
ROOT_MID = (3.1 - math.sqrt(0.77)) / 2
ROOT_HI = (3.1 + math.sqrt(0.77)) / 2


def make_model(delta_units, g0=2.0, hk=1.0):
    """Resonator with kappa/2 = hk and the requested detuning in hk units."""
    kappa = 2.0 * hk
    eta = 0.9178217822
    return ResonatorModel(
        omega0=1.2074690e15,
        kappa_i=(1 - eta) * kappa,
        kappa_e=eta * kappa,
        delta=delta_units * hk,
        g0=g0,
    )


def pump_for_beta(model, beta):
    hk = 0.5 * model.kappa
    flux = beta * hk ** 3 / (model.g0 * model.kappa_e)
    return PumpDrive(
        power_on_chip=flux * HBAR * model.omega0, flux=flux, a_in=math.sqrt(flux)
    )


def test_scaled_cubic_single_root_anchor():
    roots = cubic_roots_scaled(2.0, 1.625)
    assert roots.shape == (1,)
    assert roots[0] == pytest.approx(0.5, rel=1e-10)


def test_scaled_cubic_bistable_roots_anchor():
    roots = cubic_roots_scaled(2.0, 1.989)
    assert roots.shape == (3,)
    assert roots[0] == pytest.approx(0.9, rel=1e-9)
    assert roots[1] == pytest.approx(ROOT_MID, rel=1e-9)
    assert roots[2] == pytest.approx(ROOT_HI, rel=1e-9)


def test_scaled_cubic_zero_drive():
    assert cubic_roots_scaled(1.3, 0.0).tolist() == [0.0]
    with pytest.raises(DomainError):
        cubic_roots_scaled(0.0, -1.0)


@settings(max_examples=200)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1e-3, max_value=3.0),
)
# a few 1e-7 beside a knee, where the split pair must not be merged into one
@example(2.0, 1.00000025)
@example(3.0, 1.1835038)
@example(3.0, 2.8164972)
def test_cubic_inverts_its_own_drive(alpha, u):
    # beta(u) puts u on the fixed-point curve, so solving must recover it
    beta = u * (1.0 + (alpha - u) ** 2)
    roots = cubic_roots_scaled(alpha, beta)
    assert np.min(np.abs(roots - u)) <= 1e-7 * (1.0 + u)
    assert np.all(roots >= 0.0)


def test_cubic_keeps_the_double_root_at_a_fold():
    # at a fold np.roots splits the double root by ~sqrt(eps), often into
    # the complex plane; the solver must still report it, once
    for alpha in (1.8, 2.0, 2.5, 3.0):
        disc = math.sqrt(alpha * alpha - 3.0)
        for u in ((2.0 * alpha - disc) / 3.0, (2.0 * alpha + disc) / 3.0):
            roots = cubic_roots_scaled(alpha, u * (1.0 + (alpha - u) ** 2))
            assert len(roots) == 2
            assert np.min(np.abs(roots - u)) <= 1e-7 * (1.0 + u), (alpha, u, roots)


KNEE = math.sqrt(3.0)


def knees(alpha):
    """The two u where the drive beta(u) = u(1 + (alpha - u)^2) has beta'(u) = 0."""
    disc = math.sqrt(max(alpha * alpha - 3.0, 0.0))
    return ((2.0 * alpha - disc) / 3.0, (2.0 * alpha + disc) / 3.0)


def fold_betas(alpha):
    """Drives at the two folds, where f'(u) = 0 at the smaller and larger root."""
    return [u * (1.0 + (alpha - u) ** 2) for u in knees(alpha)]


def knee_expansion(alpha, beta):
    """Real roots beside the closer fold, from beta(u) to second order at its knee.

    At a knee u_k, beta' = 0 and beta'' = 6 u_k - 4 alpha, so the pair there is
    u_k +- sqrt(2 (beta - beta(u_k)) / beta'') when real, and the third root
    is 2 alpha - 2 u_k because the roots sum to 2 alpha.  Returns the roots
    and the expansion's own error 4 |beta - beta(u_k)| / beta''^2, taken as
    infinite where |beta''| < 1e-2: beside the cusp the knees meet in a
    near-triple root, and rounding moves the computed knee itself.
    """
    knee, fold = min(zip(knees(alpha), fold_betas(alpha)), key=lambda kf: abs(beta - kf[1]))
    curvature = 6.0 * knee - 4.0 * alpha
    if abs(curvature) < 1e-2:
        return None, math.inf
    h2 = 2.0 * (beta - fold) / curvature
    pair = [knee - math.sqrt(h2), knee + math.sqrt(h2)] if h2 >= 0.0 else []
    return np.unique(pair + [2.0 * alpha - 2.0 * knee]), 4.0 * abs(beta - fold) / curvature**2


def np_roots_reference(alpha, beta):
    """Companion-matrix roots with the realness cut, merge and Newton polish."""
    roots = np.roots([1.0, -2.0 * alpha, 1.0 + alpha * alpha, -beta])
    real = np.sort(roots[np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real))].real)
    kept = [real[0]]
    for u in real[1:]:
        if u - kept[-1] > 1e-7 * (1.0 + abs(u)):
            kept.append(u)
    polished = []
    for u in kept:
        for _ in range(3):
            fp = u * (3.0 * u - 4.0 * alpha) + 1.0 + alpha * alpha
            if abs(fp) < 1e-9 * (1.0 + u * u + alpha * alpha):
                break
            u -= (u * (u * (u - 2.0 * alpha) + 1.0 + alpha * alpha) - beta) / fp
        polished.append(max(u, 0.0))
    return np.array(polished)


GENERAL = st.tuples(st.just(KNEE) | st.floats(-3.0, 5.0), st.floats(0.0, 30.0))
FOLDS = st.tuples(
    st.just(KNEE) | st.floats(KNEE, 5.0),
    st.integers(0, 1),
    st.sampled_from([1.0] + [1.0 + s * e for e in (1e-9, 1e-12, 1e-13) for s in (-1.0, 1.0)]),
).map(lambda c: (c[0], fold_betas(c[0])[c[1]] * c[2]))


@settings(max_examples=400)
@given(GENERAL | FOLDS)
@example((1.7320508075688774, 1.539600717839002))  # q = 0: the cusp's triple root, once
def test_closed_form_cubic_matches_np_roots(case):
    alpha, beta = case
    roots = cubic_roots_scaled(alpha, beta)
    assert np.all(np.diff(roots) > 0.0) and np.all(roots >= 0.0)
    scale = 1.0 + alpha * alpha + beta
    assert np.all(np.abs(roots * (1.0 + (alpha - roots) ** 2) - beta) <= 1e-12 * scale)
    if alpha >= KNEE and min(abs(beta / f - 1.0) for f in fold_betas(alpha)) <= 1e-10:
        # np.roots miscounts this close to a fold, so the knee expansion is
        # the reference wherever its own error is negligible
        reference, err = knee_expansion(alpha, beta)
        if err > 1e-9:
            return
        assert roots.size == reference.size, (roots, reference)
        np.testing.assert_allclose(roots, reference, rtol=1e-8, atol=err)
        return
    reference = np_roots_reference(alpha, beta)
    assert roots.size == reference.size, (roots, reference)
    np.testing.assert_allclose(roots, reference, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("name", ["alpha", "beta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cubic_rejects_non_finite_arguments(name, bad):
    args = {"alpha": 2.0, "beta": 1.9, name: bad}
    with pytest.raises(DomainError, match=name):
        cubic_roots_scaled(**args)


def test_branch_selection_and_labels():
    model = make_model(2.0)
    pump = pump_for_beta(model, 1.989)
    hk = 0.5 * model.kappa

    low = solve_steady_state(model, pump, "lowest")
    assert low.branch == "lower"
    assert low.rho == pytest.approx(0.9 * hk / model.g0, rel=1e-9)
    assert len(low.all_rho) == 3

    high = solve_steady_state(model, pump, "highest")
    assert high.branch == "upper"
    assert high.rho == pytest.approx(ROOT_HI * hk / model.g0, rel=1e-9)

    upsweep = solve_steady_state(model, pump, "adiabatic_upsweep")
    assert upsweep.rho == high.rho

    mid = steady_state_on_branch(model, pump, 1)
    assert mid.branch == "middle"
    assert mid.rho == pytest.approx(ROOT_MID * hk / model.g0, rel=1e-9)

    with pytest.raises(DomainError):
        solve_steady_state(model, pump, "nonsense")
    with pytest.raises(DomainError):
        steady_state_on_branch(model, pump, 3)


def test_single_branch_label():
    model = make_model(2.0)
    st_ = solve_steady_state(model, pump_for_beta(model, 1.625))
    assert st_.branch == "single"
    assert st_.rho == pytest.approx(0.25, rel=1e-9)  # u=0.5, hk=1, g0=2


def test_steady_state_is_a_frozen_value():
    names = ("a0", "rho", "delta_eff", "branch", "all_rho", "residual")
    values = (0.3 - 0.4j, 0.25, -0.5, "lower", (0.25, 1.0, 2.0), 1e-12)
    st_ = SteadyState(*values)
    keyword = SteadyState(**dict(zip(names, values)))
    assert st_ == keyword and hash(st_) == hash(keyword)
    assert tuple(f.name for f in dataclasses.fields(SteadyState)) == names
    assert tuple(getattr(st_, name) for name in names) == values
    for name in names + ("extra",):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(st_, name, 1.0)
    assert st_ == keyword
    moved = dataclasses.replace(st_, rho=1.0)
    assert moved.rho == 1.0
    assert tuple(getattr(moved, name) for name in names) == (values[0], 1.0) + values[2:]
    assert pickle.loads(pickle.dumps(st_)) == st_
    assert copy.deepcopy(st_) == st_
    model = make_model(2.0)
    solved = solve_steady_state(model, pump_for_beta(model, 1.989))
    assert solved == SteadyState(**{name: getattr(solved, name) for name in names})


def test_linear_limit_no_kerr():
    model = make_model(1.5, g0=0.0)
    pump = PumpDrive.from_power(1e-3, model.omega0)
    st_ = solve_steady_state(model, pump)
    hk = 0.5 * model.kappa
    expected = model.kappa_e * pump.flux / (hk * hk + model.delta ** 2)
    assert st_.rho == pytest.approx(expected, rel=1e-12)
    assert st_.branch == "single"
    assert st_.delta_eff == model.delta


def test_weak_drive_approaches_linear_response():
    model = make_model(1.5, g0=2.0)
    pump = pump_for_beta(model, 1e-6)
    st_ = solve_steady_state(model, pump)
    hk = 0.5 * model.kappa
    linear = model.kappa_e * pump.flux / (hk * hk + model.delta ** 2)
    assert st_.rho == pytest.approx(linear, rel=1e-3)


@settings(max_examples=150)
@given(
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=1e-4, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.999),
)
def test_fixed_point_residual_and_consistency(alpha, beta, eta):
    kappa = 1.45e9
    model = ResonatorModel(
        omega0=1.2e15,
        kappa_i=(1 - eta) * kappa,
        kappa_e=eta * kappa,
        delta=alpha * 0.5 * kappa,
        g0=3.0,
    )
    pump = pump_for_beta(model, beta)
    for policy in ("lowest", "highest"):
        st_ = solve_steady_state(model, pump, policy)
        # residual was checked internally against the physical equation
        assert st_.residual <= 1e-10 * max(1.0, math.sqrt(model.kappa_e) * pump.a_in)
        assert abs(st_.a0) ** 2 == pytest.approx(st_.rho, rel=1e-8)
        assert st_.delta_eff == pytest.approx(model.delta - model.g0 * st_.rho, rel=1e-12)


def test_amplitude_phase_matches_effective_detuning():
    model = make_model(2.0)
    st_ = solve_steady_state(model, pump_for_beta(model, 1.625))
    hk = 0.5 * model.kappa
    expected = math.sqrt(model.kappa_e) * math.sqrt(
        pump_for_beta(model, 1.625).flux
    ) / complex(hk, st_.delta_eff)
    assert st_.a0 == pytest.approx(expected, rel=1e-10)


def test_bistability_knee_at_sqrt3():
    assert not is_bistable(make_model(math.sqrt(3.0) - 1e-4))
    assert is_bistable(make_model(math.sqrt(3.0) + 1e-4))
    assert not is_bistable(make_model(3.0, g0=0.0))


def test_bistable_window_anchor():
    # at alpha = 2 the folds sit at u = 1 and u = 5/3, i.e. beta in (50/27, 2)
    model = make_model(2.0)
    hk = 0.5 * model.kappa
    scale = hk ** 3 / (model.g0 * model.kappa_e)
    lo, hi = bistable_flux_window(model)
    assert lo == pytest.approx(50.0 / 27.0 * scale, rel=1e-12)
    assert hi == pytest.approx(2.0 * scale, rel=1e-12)
    assert len(steady_state_roots(model, pump_for_beta(model, 1.9))) == 3
    assert len(steady_state_roots(model, pump_for_beta(model, 1.8))) == 1
    assert len(steady_state_roots(model, pump_for_beta(model, 2.1))) == 1
    with pytest.raises(DomainError):
        bistable_flux_window(make_model(1.0))


def test_threshold_anchor_alpha_two():
    # b = 2 hk: g0*rho_th = (2b - sqrt(b^2 - 3 hk^2))/3 = hk exactly
    model = make_model(2.0)
    hk = 0.5 * model.kappa
    rho_th = threshold_intracavity(model)
    assert rho_th == pytest.approx(hk / model.g0, rel=1e-12)
    # delta_eff at threshold is delta - g0 rho_th = hk, so the flux inverts to
    # rho_th * (hk^2 + hk^2) / kappa_e
    expected_flux = rho_th * 2.0 * hk * hk / model.kappa_e
    assert threshold_power(model) == pytest.approx(
        HBAR * model.omega0 * expected_flux, rel=1e-12
    )


def test_threshold_balance_when_pair_sits_on_resonance():
    # with b = kappa the pair offset vanishes at threshold and the gain
    # condition reduces to g0*rho_th = kappa/2; doubling kappa (keeping
    # delta = kappa) must exactly double the threshold photon number
    m1 = make_model(2.0, hk=1.0)
    m2 = make_model(2.0, hk=2.0)
    assert m1.delta == m1.kappa and m2.delta == m2.kappa
    r1 = threshold_intracavity(m1)
    r2 = threshold_intracavity(m2)
    assert r1 == pytest.approx(0.5 * m1.kappa / m1.g0, rel=1e-12)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    # offset at threshold really is zero
    assert m1.delta - 2 * m1.g0 * r1 == pytest.approx(0.0, abs=1e-12)


def test_threshold_unreachable_below_knee():
    assert math.isinf(threshold_intracavity(make_model(0.0)))
    assert math.isinf(threshold_power(make_model(0.0)))
    assert math.isinf(threshold_intracavity(make_model(-2.0)))
    # dispersion can lift a pair above the knee even at zero pump detuning
    model = ResonatorModel(
        omega0=1.2e15, kappa_i=0.1, kappa_e=1.9, delta=0.0, d2=4.0, g0=1.0
    )
    assert math.isfinite(threshold_intracavity(model, l=1))


def test_threshold_requires_kerr():
    # the limit of the threshold gain over g0, as for an unreachable threshold
    assert threshold_intracavity(make_model(2.0, g0=0.0)) == math.inf
    # without a Kerr shift no pump power reaches threshold
    assert threshold_power(make_model(2.0, g0=0.0)) == math.inf


@settings(max_examples=100)
@given(st.floats(min_value=1.7320509, max_value=6.0))
def test_threshold_root_satisfies_gain_condition(alpha):
    model = make_model(alpha)
    hk = 0.5 * model.kappa
    rho_th = threshold_intracavity(model)
    gain = model.g0 * rho_th
    offset = model.delta - 2.0 * model.g0 * rho_th
    assert gain * gain == pytest.approx(hk * hk + offset * offset, rel=1e-9)


def test_threshold_gain_does_not_depend_on_g0():
    # b = 2 hk gives g0*rho_th = hk exactly (see the alpha = 2 anchor)
    gains = {threshold_gain(make_model(2.0, g0=g0)) for g0 in (0.0, 0.5, 2.0, 7.0)}
    assert gains == {threshold_gain(make_model(2.0))}
    assert threshold_gain(make_model(2.0)) == pytest.approx(1.0, rel=1e-15)
    model = make_model(2.5)
    assert model.g0 * threshold_intracavity(model) == pytest.approx(
        threshold_gain(model), rel=1e-15
    )
    for alpha in (0.0, 1.7, -2.0):
        assert math.isinf(threshold_gain(make_model(alpha, g0=0.0)))


@settings(max_examples=100)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1e-4, max_value=5.0),
    st.just(0.0) | st.floats(min_value=0.01, max_value=4.0),
)
def test_fixed_point_directions_invert_each_other(alpha, beta, g0):
    model = make_model(alpha, g0=g0)
    pump = pump_for_beta(model, beta) if g0 > 0.0 else PumpDrive(1e-3, beta, math.sqrt(beta))
    for rho in steady_state_roots(model, pump):
        delta_eff = model.delta - model.g0 * rho
        assert fixed_point_flux(model, rho, delta_eff) == pytest.approx(pump.flux, rel=1e-9)
        assert fixed_point_photons(model, pump.flux, delta_eff) == pytest.approx(rho, rel=1e-9)


@settings(max_examples=100)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_g0_for_gain_places_the_gain_at_the_pump(alpha, x):
    # kappa/2 = 1, so the gain is x itself
    model = make_model(alpha)
    pump = PumpDrive.from_power(1e-3, model.omega0)
    g0 = g0_for_gain(model, pump, x)
    tuned = make_model(alpha, g0=g0)
    gains = g0 * steady_state_roots(tuned, pump)
    assert np.min(np.abs(gains - x)) <= 1e-9 * x


@pytest.mark.parametrize("call, error, message", [
    (lambda m, p: steady_state_at_gain(m, p, 0.5), RuntimeError,
     "calibrated operating point is not a pump fixed point"),
    (lambda m, p: g0_for_threshold_fraction(m, p, 1.0), DomainError,
     r"threshold fraction must lie in \(0, 1\)"),
    (lambda m, p: g0_for_threshold_fraction(m, PumpDrive(0.0, 0.0, 0.0), 0.5), DomainError,
     "calibration needs a positive drive power"),
    (lambda m, p: g0_for_threshold_fraction(make_model(1.7), p, 0.5), DomainError,
     "pair threshold is unreachable"),
], ids=["gain_not_held", "fraction_one", "no_pump", "below_knee"])
def test_kerr_calibration_refuses_what_it_cannot_place(call, error, message):
    # beta = 1.625 at alpha = 2 holds the one root u = 0.5 (see the anchors),
    # a gain g0*rho of 0.5 at kappa/2 = 1; the first call asks this pump for
    # that gain but under another g0
    model = make_model(2.0, g0=4.0)
    with pytest.raises(error, match=f"^{message}"):
        call(model, pump_for_beta(make_model(2.0), 1.625))


@pytest.mark.parametrize("rtol", [0.0, -1.0, math.nan, math.inf])
def test_residual_tolerance_must_be_finite_and_positive(rtol):
    # NaN and inf switched the residual check off; zero and below failed
    # every solve with a RuntimeError quoting a negative tolerance
    from squeezesim.spectra import power_sweep

    model = make_model(2.0)
    pump = pump_for_beta(model, 1.0)
    message = r"^rtol must be finite and positive"
    with pytest.raises(DomainError, match=message):
        solve_steady_state(model, pump, rtol=rtol)
    with pytest.raises(DomainError, match=message):
        power_sweep(model, [pump.power_on_chip], rtol=rtol)


def test_fixed_point_refuses_a_root_off_the_fixed_point_at_small_drive():
    from squeezesim.steady_state import RESIDUAL_RTOL, _fixed_point

    model = make_model(2.0)
    pump = pump_for_beta(model, 1.989)
    drive = math.sqrt(model.kappa_e) * pump.a_in
    assert drive < 1.0  # the tolerance is then rtol itself, not rtol * drive
    for rho in steady_state_roots(model, pump).tolist():
        _, _, residual = _fixed_point(model, drive, rho, RESIDUAL_RTOL)
        assert residual <= 1e-14
        # a root missed by 1e-7 misses the field equation by ~1e-7 * drive,
        # far above rtol and far below 1e6 * rtol
        off = rho * (1.0 + 1e-7)
        with pytest.raises(RuntimeError, match=r"^steady-state residual .* exceeds tolerance 1\.000e-10$"):
            _fixed_point(model, drive, off, RESIDUAL_RTOL)


# ---- bit identity with the ndarray route that the float route replaced

def reference_cubic_f(u, alpha, beta):
    return u * (u * (u - 2.0 * alpha) + 1.0 + alpha * alpha) - beta


def reference_cubic_fprime(u, alpha):
    return u * (3.0 * u - 4.0 * alpha) + 1.0 + alpha * alpha


def reference_polish(u, alpha, beta):
    for _ in range(3):
        fp = reference_cubic_fprime(u, alpha)
        if abs(fp) < 1e-9 * (1.0 + u * u + alpha * alpha):
            return u
        u -= reference_cubic_f(u, alpha, beta) / fp
    return u


def reference_cubic_roots(alpha, beta):
    if beta == 0.0:
        return np.array([0.0])
    shift, p = 2.0 * alpha / 3.0, 1.0 - alpha * alpha / 3.0
    q_alpha = 2.0 * alpha * (alpha * alpha + 9.0) / 27.0
    q = q_alpha - beta
    r = 0.25 * q * q + p * p * p / 27.0
    band = 2.0 ** -52 * (abs(q) * (abs(q_alpha) + beta) + p * p * (1.0 + alpha * alpha))
    if r < -band:
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        ts = [m * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif r <= band:
        c = math.copysign((0.5 * abs(q)) ** (1.0 / 3.0), -q)
        ts = [2.0 * c, -c]
    else:
        a = -math.copysign((0.5 * abs(q) + math.sqrt(r)) ** (1.0 / 3.0), q)
        ts = [a - p / (3.0 * a)]
    return np.array(sorted({max(reference_polish(t + shift, alpha, beta), 0.0) for t in ts}))


def reference_roots(model, pump):
    if model.g0 == 0.0:
        return np.array([fixed_point_photons(model, pump.flux, model.delta)])
    hk = 0.5 * model.kappa
    alpha = model.delta / hk
    beta = model.g0 * model.kappa_e * pump.flux / hk ** 3
    return reference_cubic_roots(alpha, beta) * hk / model.g0


def reference_steady_state(model, pump, index):
    """(a0, rho, delta_eff, branch, all_rho, residual), or RuntimeError where the solve raises it."""
    rhos = reference_roots(model, pump)
    hk = 0.5 * model.kappa
    rho = float(rhos[index])
    delta_eff = model.delta - model.g0 * rho
    drive = math.sqrt(model.kappa_e) * pump.a_in
    a0 = drive / (hk + 1j * delta_eff)
    residual = abs(
        -(hk + 1j * model.delta) * a0 + 1j * model.g0 * abs(a0) ** 2 * a0 + drive
    )
    if residual > 1e-10 * max(1.0, drive):
        return RuntimeError
    labels = {1: ("single",), 2: ("lower", "upper"), 3: ("lower", "middle", "upper")}
    return (a0, rho, delta_eff, labels[len(rhos)][index], tuple(float(r) for r in rhos), residual)


def bits(value):
    """Bit pattern of a float, complex or tuple of them, with its type."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, complex):
        return (type(value).__name__, value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return value


def outcome(solve, *args):
    try:
        s = solve(*args)
    except RuntimeError:
        return RuntimeError
    return (s.a0, s.rho, s.delta_eff, s.branch, s.all_rho, s.residual)


# alpha in [-3, 6] plus the knee; beta anywhere, 0, or at a fold times
# 1, 1 +- 1e-9 or 1 +- 1e-12 (folds exist from the knee up)
IDENTITY_CASES = st.tuples(
    st.just(KNEE) | st.floats(-3.0, 6.0), st.just(0.0) | st.floats(0.0, 40.0)
) | st.tuples(
    st.just(KNEE) | st.floats(KNEE, 6.0),
    st.integers(0, 1),
    st.sampled_from([1.0] + [1.0 + s * e for e in (1e-9, 1e-12) for s in (-1.0, 1.0)]),
).map(lambda c: (c[0], fold_betas(c[0])[c[1]] * c[2]))


@settings(max_examples=400)
@given(IDENTITY_CASES, st.sampled_from([2.0, 0.37, 0.0]), st.booleans())
@example((KNEE, fold_betas(KNEE)[0]), 2.0, False)  # the cusp
@example((KNEE, fold_betas(KNEE)[0]), 0.37, True)
@example((2.0, 0.0), 2.0, False)
def test_float_route_is_bit_identical_to_the_ndarray_route(case, g0, numpy_scalars):
    # the scalar route runs in Python floats and builds no array; the route
    # it replaced is kept above, and every output bit must agree with it,
    # also for a model built from numpy scalars, which ResonatorModel
    # stores as Python floats before any route sees them
    alpha, beta = case
    roots = cubic_roots_scaled(alpha, beta)
    assert roots.tobytes() == reference_cubic_roots(alpha, beta).tobytes()

    number = np.float64 if numpy_scalars else float
    hk, eta = 1.0, 0.9178217822
    model = ResonatorModel(
        omega0=1.2074690e15,
        kappa_i=number((1 - eta) * 2.0 * hk),
        kappa_e=number(eta * 2.0 * hk),
        delta=number(alpha * hk),
        g0=number(g0),
    )
    hk = 0.5 * model.kappa
    flux = beta * hk ** 3 / ((g0 or 1.0) * model.kappa_e)
    pump = PumpDrive(power_on_chip=flux * HBAR * model.omega0, flux=flux, a_in=math.sqrt(flux))
    rhos = steady_state_roots(model, pump)
    assert rhos.tobytes() == reference_roots(model, pump).tobytes()

    last = len(rhos) - 1
    for policy, index in (("lowest", 0), ("highest", last), ("adiabatic_upsweep", last)):
        expected = bits(reference_steady_state(model, pump, index))
        assert bits(outcome(solve_steady_state, model, pump, policy)) == expected
    for index in range(len(rhos)):
        expected = bits(reference_steady_state(model, pump, index))
        assert bits(outcome(steady_state_on_branch, model, pump, index)) == expected
