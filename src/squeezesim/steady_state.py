"""Classical steady state of the driven Kerr pump mode.

The slowly varying pump amplitude obeys

    dA/dt = -(kappa/2 + i*delta)*A + i*g0*|A|^2*A + sqrt(kappa_e)*A_in

so a steady state satisfies ``A0 = sqrt(kappa_e)*A_in / (kappa/2 + i*delta_eff)``
with the power-pulled detuning ``delta_eff = delta - g0*rho``, ``rho = |A0|^2``.
Eliminating the phase gives a cubic fixed point for the photon number:

    rho * ((kappa/2)^2 + (delta - g0*rho)^2) = kappa_e * F,   F = |A_in|^2.

In the scaled variables u = g0*rho/(kappa/2), alpha = delta/(kappa/2),
beta = g0*kappa_e*F/(kappa/2)^3 this reads

    u^3 - 2*alpha*u^2 + (1 + alpha^2)*u - beta = 0,

which has either one or three positive roots; three solutions exist in a
finite drive window whenever alpha > sqrt(3) (bistability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from squeezesim.params import HBAR, DomainError, PumpDrive, ResonatorModel, photon_flux

# the root each branch policy selects from the ascending photon numbers
_ROOT_INDEX = {"lowest": 0, "highest": -1, "adiabatic_upsweep": -1}
BRANCH_POLICIES = tuple(_ROOT_INDEX)

# Relative residual allowed on the physical fixed-point equation.
RESIDUAL_RTOL = 1e-10


# 2*pi*k of the trigonometric roots k = 1, 2; both products are exact
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def _polish(u, alpha, beta):
    # Newton refinement; skipped near a fold where f' vanishes and the
    # closed-form root is already the best available answer, and left
    # once a step is 0.0, which every later step would repeat.
    for _ in range(3):
        fp = u * (3.0 * u - 4.0 * alpha) + 1.0 + alpha * alpha
        if abs(fp) < 1e-9 * (1.0 + u * u + alpha * alpha):
            return u
        step = (u * (u * (u - 2.0 * alpha) + 1.0 + alpha * alpha) - beta) / fp
        if step == 0.0:
            return u
        u -= step
    return u


def _roots_scaled(alpha: float, beta: float) -> list[float]:
    """The roots of :func:`cubic_roots_scaled` as an ascending list of floats."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        name, value = ("beta", beta) if math.isfinite(alpha) else ("alpha", alpha)
        raise DomainError(f"{name} must be finite, got {value}")
    if beta < 0.0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if beta == 0.0:
        return [0.0]
    shift, p = 2.0 * alpha / 3.0, 1.0 - alpha * alpha / 3.0
    q_alpha = 2.0 * alpha * (alpha * alpha + 9.0) / 27.0
    q = q_alpha - beta
    r = 0.25 * q * q + p * p * p / 27.0
    band = 2.0 ** -52 * (abs(q) * (abs(q_alpha) + beta) + p * p * (1.0 + alpha * alpha))
    if r < -band:  # three roots
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m))))
        ts = (
            m * math.cos(phi / 3.0),
            m * math.cos((phi - _TWO_PI) / 3.0),
            m * math.cos((phi - _FOUR_PI) / 3.0),
        )
    elif r <= band:  # fold; c = 0 is the cusp's triple root
        c = math.copysign((0.5 * abs(q)) ** (1.0 / 3.0), -q)
        ts = (2.0 * c, -c)
    else:  # one root (Cardano)
        a = -math.copysign((0.5 * abs(q) + math.sqrt(r)) ** (1.0 / 3.0), q)
        return [max(_polish(a - p / (3.0 * a) + shift, alpha, beta), 0.0)]
    return sorted({max(_polish(t + shift, alpha, beta), 0.0) for t in ts})


def cubic_roots_scaled(alpha: float, beta: float) -> np.ndarray:
    """Real roots of the scaled pump fixed point, ascending.

    Solves ``u^3 - 2*alpha*u^2 + (1 + alpha^2)*u - beta = 0`` in closed
    form via ``u = t + 2*alpha/3``, ``t^3 + p*t + q = 0``.  The sign of
    ``r = q^2/4 + p^3/27`` decides the roots: three (trigonometric form)
    for ``r < 0``, one (Cardano) for ``r > 0``, and at a fold (``|r|``
    within its first-order rounding error) the simple root ``2c`` and the
    double root ``-c``, ``c = cbrt(-q/2)``.  Roots are distinct and
    non-negative; DomainError for a non-finite argument or ``beta < 0``.
    """
    return np.array(_roots_scaled(alpha, beta))


def fixed_point_photons(model: ResonatorModel, flux: float, delta_eff: float) -> float:
    """Photon number that the input photon flux ``F`` holds at ``delta_eff``.

    The pump fixed point solved for rho:
    ``rho = kappa_e*F / ((kappa/2)^2 + delta_eff^2)``.
    """
    hk = 0.5 * model.kappa
    return model.kappa_e * flux / (hk * hk + delta_eff * delta_eff)


def fixed_point_flux(model: ResonatorModel, rho: float, delta_eff: float) -> float:
    """Input photon flux that holds ``rho`` photons at ``delta_eff``.

    The pump fixed point solved for F:
    ``F = rho*((kappa/2)^2 + delta_eff^2) / kappa_e``.
    """
    hk = 0.5 * model.kappa
    return rho * (hk * hk + delta_eff * delta_eff) / model.kappa_e


def is_bistable(model: ResonatorModel) -> bool:
    """Whether some drive level gives three coexisting pump states."""
    return model.g0 > 0.0 and model.delta > math.sqrt(3.0) * 0.5 * model.kappa


def bistable_flux_window(model: ResonatorModel) -> tuple[float, float]:
    """Input photon-flux interval (lo, hi) with three pump solutions.

    Its ends are the folds, where the flux that holds ``rho`` is
    stationary in ``rho``: ``u = g0*rho/(kappa/2)`` is
    ``(2*alpha +- sqrt(alpha^2 - 3))/3`` there.
    Raises DomainError when the detuning is below the bistability knee.
    """
    if not is_bistable(model):
        raise DomainError("model is not bistable at this detuning")
    hk = 0.5 * model.kappa
    alpha = model.delta / hk
    disc = math.sqrt(alpha * alpha - 3.0)
    lo, hi = sorted(
        fixed_point_flux(model, u * hk / model.g0, model.delta - u * hk)
        for u in ((2 * alpha + disc) / 3, (2 * alpha - disc) / 3)
    )
    return lo, hi


@dataclass(frozen=True, init=False)
class SteadyState:
    """One self-consistent pump operating point.

    ``all_rho`` lists every coexisting photon-number solution in
    ascending order; ``branch`` records which one this object selected
    ("single", "lower", "middle", "upper").  The middle branch is
    dynamically unstable and is exposed for diagnostics only.
    """

    a0: complex
    rho: float
    delta_eff: float
    branch: str
    all_rho: tuple
    residual: float

    def __init__(self, a0, rho, delta_eff, branch, all_rho, residual):
        # the generated frozen __init__ calls object.__setattr__ once per
        # field, which cost a quarter of a solve; a dict write does not
        fields = self.__dict__
        fields["a0"] = a0
        fields["rho"] = rho
        fields["delta_eff"] = delta_eff
        fields["branch"] = branch
        fields["all_rho"] = all_rho
        fields["residual"] = residual


def _photon_numbers(model: ResonatorModel, flux: float) -> list[float]:
    """The roots of :func:`steady_state_roots` at input photon flux ``flux``, ascending."""
    g0 = model.g0
    if g0 == 0.0:
        return [fixed_point_photons(model, flux, model.delta)]
    hk = 0.5 * model.kappa
    us = _roots_scaled(model.delta / hk, g0 * model.kappa_e * flux / hk ** 3)
    # a loop, not a comprehension: on Python 3.11 that is a call of its
    # own, and every scalar solve passes here
    rhos = []
    for u in us:
        rhos.append(u * hk / g0)
    return rhos


def steady_state_roots(model: ResonatorModel, pump: PumpDrive) -> np.ndarray:
    """All intracavity photon-number solutions, ascending."""
    return np.array(_photon_numbers(model, pump.flux))


def _check_solve_args(rtol: float, branch_policy: str) -> None:
    """DomainError for an unknown branch policy or an ``rtol`` not in (0, inf)."""
    if branch_policy not in BRANCH_POLICIES:
        raise DomainError(
            f"unknown branch policy {branch_policy!r}, expected one of {BRANCH_POLICIES}"
        )
    if not 0.0 < rtol < math.inf:  # NaN or inf would turn the residual check off
        raise DomainError(f"rtol must be finite and positive, got {rtol}")


def _fixed_point(model: ResonatorModel, drive: float, rho: float, rtol: float):
    """``(a0, delta_eff, residual)`` of the root ``rho`` at ``drive = sqrt(kappa_e)*a_in``.

    ``a0 = drive / (kappa/2 + i*delta_eff)``; RuntimeError when ``a0``
    misses the field equation by more than ``rtol * max(1, drive)``.
    """
    hk = 0.5 * model.kappa
    delta, g0 = model.delta, model.g0
    delta_eff = delta - g0 * rho
    a0 = drive / (hk + 1j * delta_eff)
    residual = abs(-(hk + 1j * delta) * a0 + 1j * g0 * abs(a0) ** 2 * a0 + drive)
    tol = rtol * max(1.0, drive)
    if residual > tol:
        raise RuntimeError(
            f"steady-state residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return a0, delta_eff, residual


# branch labels by root count, then root index
_BRANCHES = (None, ("single",), ("lower", "upper"), ("lower", "middle", "upper"))


def solve_steady_state(
    model: ResonatorModel,
    pump: PumpDrive,
    branch_policy: str = "lowest",
    rtol: float = RESIDUAL_RTOL,
) -> SteadyState:
    """Select one pump steady state under the given branch policy.

    Policies: "lowest" and "highest" pick the corresponding photon-number
    root.  "adiabatic_upsweep" models a slow scan onto resonance from the
    thermally self-stable side, which rides the upper branch wherever it
    exists; it selects the largest root, the unique one outside the
    bistable window.
    """
    _check_solve_args(rtol, branch_policy)
    rhos = _photon_numbers(model, pump.flux)
    return _steady_state_at(model, pump, rhos, _ROOT_INDEX[branch_policy], rtol)


def operating_points(
    model: ResonatorModel, powers, branch_policy: str = "lowest", rtol: float = RESIDUAL_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """``(rho, a0)`` arrays over the on-chip powers (W) of the 1-D ``powers``.

    Each point is :func:`solve_steady_state`'s at ``PumpDrive.from_power``,
    bit for bit, but all points are solved in one array pass:
    :func:`_picked_roots` gives each power the root ``branch_policy``
    picks and :func:`_fixed_points` its field and residual check.  No
    :class:`SteadyState` is built.  The policy, ``rtol`` and every power
    are refused before any point is solved, a bad power with
    :func:`photon_flux`'s message for the first one.  Where a residual
    exceeds its tolerance, or the pass overflows, divides by zero or
    meets a NaN, the points are solved again one by one by the scalar
    core, which raises its own error at the first point that has one
    (a non-finite ``alpha`` or ``beta``, a residual over its tolerance)
    and otherwise returns what the scalar solve does.
    """
    _check_solve_args(rtol, branch_policy)
    powers = np.asarray(powers, dtype=float)
    if powers.ndim != 1:
        raise DomainError(f"powers must be one-dimensional, got shape {powers.shape}")
    bad = ~(np.isfinite(powers) & (powers >= 0.0))
    if bad.any():
        photon_flux(powers[bad.argmax()].item(), model.omega0)  # raises for that power
    # IEEE division and sqrt round as photon_flux and math.sqrt do per point
    fluxes = powers / (HBAR * model.omega0)
    drives = math.sqrt(model.kappa_e) * np.sqrt(fluxes)
    index = _ROOT_INDEX[branch_policy]
    g0 = model.g0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if g0 == 0.0:
                rho = fixed_point_photons(model, fluxes, model.delta)
            else:
                hk = 0.5 * model.kappa
                beta = g0 * model.kappa_e * fluxes / hk ** 3
                rho = _picked_roots(model.delta / hk, beta, index) * hk / g0
            a0, over = _fixed_points(model, drives, rho, rtol)
        if not over.any():
            return rho, a0
    except ArithmeticError:  # numpy's FloatingPointError, or Python's own
        pass
    # a failed residual or a float exception: the scalar core, point by point,
    # raises its own error at the first failing point, or returns its own bits
    rho, a0 = [], []
    for flux, drive in zip(fluxes.tolist(), drives.tolist()):
        r = _photon_numbers(model, flux)[index]
        rho.append(r)
        a0.append(_fixed_point(model, drive, r, rtol)[0])
    return np.array(rho, dtype=float), np.array(a0, dtype=complex)


def _polish_array(u: np.ndarray, alpha: float, beta: np.ndarray) -> np.ndarray:
    """:func:`_polish` of each ``u`` at its ``beta``, bit for bit.

    A masked Newton loop: a point leaves it where :func:`_polish` returns,
    on a flat ``f'`` or a step of 0.0, and after three steps at most.
    """
    u = u.copy()
    live = np.arange(u.size)
    for _ in range(3):
        v, b = u[live], beta[live]
        fp = v * (3.0 * v - 4.0 * alpha) + 1.0 + alpha * alpha
        steep = ~(np.abs(fp) < 1e-9 * (1.0 + v * v + alpha * alpha))
        v, b, fp, live = v[steep], b[steep], fp[steep], live[steep]
        step = (v * (v * (v - 2.0 * alpha) + 1.0 + alpha * alpha) - b) / fp
        moved = step != 0.0
        live = live[moved]
        u[live] = v[moved] - step[moved]
    return u


def _per_float(f, x: np.ndarray, *args) -> np.ndarray:
    """``f(v, *args)`` for each element ``v`` of ``x``, in Python floats.

    ``math`` and float pow call libm, as the scalar solve does; numpy's
    SIMD loops for ``arccos``, ``cos`` and ``power`` do not round as it does.
    """
    return np.fromiter(map(f, x.tolist(), *map(repeat, args)), float, x.size)


def _picked_roots(alpha: float, beta: np.ndarray, index: int) -> np.ndarray:
    """``_roots_scaled(alpha, b)[index]`` for each finite ``b >= 0`` of ``beta``, bit for bit.

    :func:`_roots_scaled`'s three regimes become masks, and every
    candidate root is polished in one :func:`_polish_array` call.
    Arithmetic runs in numpy, which rounds as Python floats do, in the
    scalar code's order, and ``acos``, ``cos`` and the cube root through
    :func:`_per_float`.  ``max(u, 0.0)`` keeps ``u`` on a tie, as Python's
    ``max`` does.  A point's pick is its first candidate, in the scalar
    code's order, that is lowest (``index`` 0) or highest (``index`` -1).
    """
    shift, p = 2.0 * alpha / 3.0, 1.0 - alpha * alpha / 3.0
    q_alpha = 2.0 * alpha * (alpha * alpha + 9.0) / 27.0
    q = q_alpha - beta
    r = 0.25 * q * q + p * p * p / 27.0
    bands = 2.0 ** -52 * (np.abs(q) * (abs(q_alpha) + beta) + p * p * (1.0 + alpha * alpha))
    is_three = r < -bands
    is_fold = ~is_three & (r <= bands)
    one, three, fold = (np.flatnonzero(m) for m in (~(is_three | is_fold), is_three, is_fold))
    a = -np.copysign(_per_float(pow, 0.5 * np.abs(q[one]) + np.sqrt(r[one]), 1.0 / 3.0), q[one])
    c = np.copysign(_per_float(pow, 0.5 * np.abs(q[fold]), 1.0 / 3.0), -q[fold])
    # each regime's candidates, in the scalar code's order
    groups = [(one, [a - p / (3.0 * a)]), (fold, [2.0 * c, -c])]
    if three.size:
        m = 2.0 * math.sqrt(-p / 3.0)
        x = 3.0 * q[three] / (p * m)
        x = np.where(x > -1.0, np.where(x < 1.0, x, 1.0), -1.0)  # max(-1.0, min(1.0, x))
        phi = _per_float(math.acos, x)
        groups.append((three, [
            m * _per_float(math.cos, phi / 3.0),
            m * _per_float(math.cos, (phi - _TWO_PI) / 3.0),
            m * _per_float(math.cos, (phi - _FOUR_PI) / 3.0),
        ]))
    owners = np.concatenate([owner for owner, ts in groups for _ in ts])
    roots = _polish_array(np.concatenate([t for _, ts in groups for t in ts]) + shift,
                          alpha, beta[owners])
    roots = np.where(0.0 > roots, 0.0, roots)  # max(root, 0.0)
    better = np.less if index == 0 else np.greater
    picked = np.empty(beta.shape)
    start = 0
    for owner, ts in groups:
        best = None
        for _ in ts:
            root = roots[start:start + owner.size]
            start += owner.size
            best = root if best is None else np.where(better(root, best), root, best)
        picked[owner] = best
    return np.where(beta == 0.0, 0.0, picked)


def _fixed_points(model: ResonatorModel, drives: np.ndarray, rho: np.ndarray, rtol: float):
    """``(a0, over)``: :func:`_fixed_point`'s field at each point, bit for bit, and
    where its residual exceeds the tolerance.

    The complex operations run in real arithmetic, as CPython's unfused
    ones do (numpy's complex array loops fuse): ``a0`` is Smith's
    division of ``_Py_c_quot``, which divides by the larger of ``kappa/2``
    and ``|delta_eff|``.  The magnitudes are ``np.hypot``, whose loop
    calls libm's ``hypot`` as complex ``abs`` does, and ``abs(a0) ** 2``
    squares in float pow.
    """
    hk = 0.5 * model.kappa
    delta, g0 = model.delta, model.g0
    delta_eff = delta - g0 * rho
    # hk + 1j*delta_eff, with 1j*delta_eff the product (0, 1)*(delta_eff, 0)
    den_re, den_im = hk + (0.0 * delta_eff - 0.0), 0.0 + (0.0 + delta_eff)
    by_re = np.abs(den_re) >= np.abs(den_im)
    by_im = ~by_re & (np.abs(den_im) >= np.abs(den_re))  # neither: a NaN, so a0 is NaN
    re, im = np.full(rho.shape, np.nan), np.full(rho.shape, np.nan)
    br, bi, ar = den_re[by_re], den_im[by_re], drives[by_re]
    ratio = bi / br
    denom = br + bi * ratio
    re[by_re], im[by_re] = (ar + 0.0 * ratio) / denom, (0.0 - ar * ratio) / denom
    br, bi, ar = den_re[by_im], den_im[by_im], drives[by_im]
    ratio = br / bi
    denom = br * ratio + bi
    re[by_im], im[by_im] = (ar * ratio + 0.0) / denom, (0.0 * ratio - ar) / denom
    # -(hk + 1j*delta)*a0 + 1j*g0*abs(a0)**2*a0 + drive, product by product
    norm = _per_float(pow, np.hypot(re, im), 2)
    kerr, pull = 1j * g0, -(hk + 1j * delta)
    k_re, k_im = kerr.real * norm - kerr.imag * 0.0, kerr.real * 0.0 + kerr.imag * norm
    sum_re = (pull.real * re - pull.imag * im) + (k_re * re - k_im * im) + drives
    sum_im = (pull.real * im + pull.imag * re) + (k_re * im + k_im * re) + 0.0
    tol = rtol * np.where(drives > 1.0, drives, 1.0)  # rtol * max(1.0, drive)
    a0 = np.empty(rho.shape, dtype=complex)
    a0.real, a0.imag = re, im
    return a0, np.hypot(sum_re, sum_im) > tol


def steady_state_on_branch(model: ResonatorModel, pump: PumpDrive, index: int) -> SteadyState:
    """Steady state on an explicit root index (0 = lowest)."""
    rhos = _photon_numbers(model, pump.flux)
    if not 0 <= index < len(rhos):
        raise DomainError(f"branch index {index} out of range, {len(rhos)} roots exist")
    return _steady_state_at(model, pump, rhos, index)


def _steady_state_at(model, pump, rhos: list[float], index, rtol=RESIDUAL_RTOL) -> SteadyState:
    """The steady state on ``rhos[index]``; ``rtol`` is checked by the caller."""
    rho = rhos[index]
    a0, delta_eff, residual = _fixed_point(model, math.sqrt(model.kappa_e) * pump.a_in, rho, rtol)
    return SteadyState(a0, rho, delta_eff, _BRANCHES[len(rhos)][index], tuple(rhos), residual)


def zero_pump_offset(model: ResonatorModel, l: int = 1) -> float:
    """Offset ``b = delta + d2*l^2/2`` (rad/s) of side-mode pair ``l`` at zero pump."""
    return model.delta + 0.5 * model.d2 * l * l


def threshold_gain(model: ResonatorModel, l: int = 1) -> float:
    """Parametric gain ``g0*rho`` (rad/s) at which side-mode pair ``l`` starts oscillating.

    The pair sees parametric gain g0*rho against its loss kappa/2 and a
    power-pulled offset ``delta + d2*l^2/2 - 2*g0*rho``; threshold is
    where the gain first matches ``sqrt((kappa/2)^2 + offset^2)``.  With
    ``b = delta + d2*l^2/2`` that gives

        g0*rho_th = (2*b - sqrt(b^2 - 3*(kappa/2)^2)) / 3,

    which does not depend on g0 and has no real solution when
    ``b < sqrt(3)*kappa/2``: the pair offset then outruns the gain at
    every pump level and the threshold is unreachable (returned as
    ``inf``).
    """
    hk = 0.5 * model.kappa
    b = zero_pump_offset(model, l)
    disc = b * b - 3.0 * hk * hk
    if b < 0.0 or disc < 0.0:
        return math.inf
    return (2.0 * b - math.sqrt(disc)) / 3.0


def threshold_intracavity(model: ResonatorModel, l: int = 1) -> float:
    """Pump photon number where side-mode pair ``l`` starts oscillating.

    The threshold gain over g0; ``inf`` when it is unreachable, and at
    ``g0 = 0``, the limit of the gain over g0.
    """
    if model.g0 == 0.0:
        return math.inf
    return threshold_gain(model, l) / model.g0


def threshold_power(model: ResonatorModel, l: int = 1) -> float:
    """On-chip pump power (W) that places pair ``l`` at threshold.

    Inverts the pump fixed point at the threshold photon number; ``inf``
    when no power reaches threshold: at this detuning, or with no Kerr
    shift (``g0 = 0``).
    """
    rho_th = threshold_intracavity(model, l)
    if math.isinf(rho_th):
        return math.inf
    flux = fixed_point_flux(model, rho_th, model.delta - model.g0 * rho_th)
    return HBAR * model.omega0 * flux


def g0_for_gain(model: ResonatorModel, pump: PumpDrive, gain: float) -> float:
    """Kerr rate at which ``pump`` holds the parametric gain ``g0*rho = gain``.

    The gain pins the pulled detuning ``delta - gain``, where the pump
    fixed point gives rho, hence g0 in closed form.  The rate satisfies
    the cubic exactly; under bistability the branch policy downstream
    decides whether that root is the one actually occupied.
    """
    return gain / fixed_point_photons(model, pump.flux, model.delta - gain)


def steady_state_at_gain(model: ResonatorModel, pump: PumpDrive, gain: float) -> SteadyState:
    """The steady state at ``pump`` whose parametric gain ``g0*rho`` is ``gain``.

    Pairs with :func:`g0_for_gain`: under bistability the root that holds
    the gain need not be the lowest, so this picks the root nearest it.
    RuntimeError when none lies within ``1e-6 * gain`` of it.
    """
    g0 = model.g0
    rhos = _photon_numbers(model, pump.flux)
    misses = [abs(g0 * rho - gain) for rho in rhos]
    matched = misses.index(min(misses))
    if misses[matched] > 1e-6 * gain:
        raise RuntimeError("calibrated operating point is not a pump fixed point")
    return _steady_state_at(model, pump, rhos, matched)


def g0_for_threshold_fraction(
    model: ResonatorModel, pump: PumpDrive, fraction: float, l: int = 1
) -> float:
    """Kerr rate that puts the given drive at ``fraction`` of pair threshold.

    The threshold gain does not depend on g0, so the target gain is
    ``fraction`` of it and :func:`g0_for_gain` places it at ``pump``.
    """
    if not 0.0 < fraction < 1.0:
        raise DomainError("threshold fraction must lie in (0, 1)")
    if pump.flux <= 0.0:
        raise DomainError("calibration needs a positive drive power")
    gain_th = threshold_gain(model, l)
    if math.isinf(gain_th):
        raise DomainError(
            "pair threshold is unreachable at this detuning and dispersion"
        )
    return g0_for_gain(model, pump, fraction * gain_th)
