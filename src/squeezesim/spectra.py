"""Output-field correlations of a side-mode pair below threshold.

The pump steady state parametrically couples each pair of side modes at
``+l`` and ``-l`` around the pump.  Linearizing the Kerr interaction and
Fourier transforming (convention ``a(omega) = int dt e^{+i omega t} a(t)``)
turns the pair dynamics into a 2x2 linear system

    L(omega) @ (a_l, a_{-l}^dagger) = inputs,

whose input-output solution is a 2x4 Bogoliubov scattering matrix from the
four vacuum inputs (external and intrinsic ports of both modes) to the two
outgoing field components.  Everything observable below threshold follows
from the second moments of that matrix: the side-mode photon flux spectra
and the cross-correlation that carries the two-mode squeezing.

Quadratures are ``q = (a + a^dag)/2`` and ``p = (a - a^dag)/(2i)``;
covariance matrices are normalized so vacuum is the identity, and homodyne
variances are reported relative to shot noise (vacuum = 1).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from squeezesim.params import DomainError, PumpDrive, ResonatorModel
from squeezesim.steady_state import (
    RESIDUAL_RTOL,
    SteadyState,
    g0_for_gain,
    operating_points,
    steady_state_at_gain,
    threshold_gain,
    zero_pump_offset,
)


class SingularSystemError(RuntimeError):
    """Side-mode pair at or above its oscillation threshold.

    The linearized pair dynamics has a non-decaying eigenvalue, so no
    stationary below-threshold spectrum exists.
    """


def stability_margin(model: ResonatorModel, steady: SteadyState, l: int = 1) -> float:
    """Decay rate (rad/s) of the slowest pair eigenmode; positive = stable.

    The pair eigenvalues are ``-kappa/2 +- sqrt(|g|^2 - delta_l^2)`` with
    gain ``|g| = g0*rho``, so the margin is
    ``kappa/2 - Re sqrt(|g|^2 - delta_l^2)``.
    """
    return float(_offset_and_margin(model, steady.rho, l)[1])


def _offset_and_margin(model: ResonatorModel, rho, l: int):
    """Pair offset ``delta_l`` and stability margin at pump photon number ``rho``."""
    delta_l = zero_pump_offset(model, l) - 2.0 * model.g0 * rho
    gain = model.g0 * rho
    excess = gain * gain - delta_l * delta_l
    root = (math.sqrt(max(excess, 0.0)) if type(excess) is float
            else np.sqrt(np.maximum(excess, 0.0)))
    return delta_l, 0.5 * model.kappa - root


def _finite_omega(omega):
    """``omega`` as a float, or a float array; DomainError if not finite."""
    if type(omega) is not float:
        omega = np.asarray(omega, dtype=float)
        omega = omega.item() if omega.ndim == 0 else omega
    if not (math.isfinite(omega) if type(omega) is float else np.isfinite(omega).all()):
        raise DomainError(f"omega must be finite, got {omega}")
    return omega


@dataclass(frozen=True, init=False)
class PairMoments:
    """Operating point and output moments of pair ``l`` at many points.

    ``delta_l``, ``g``, ``phi_ref`` and ``margin`` have the shape of
    ``(rho, a0)``; ``n_signal`` (the output photon flux density of either
    mode) and ``m_corr`` (their anomalous correlation in the frame
    ``phi_ref``) broadcast over ``omega`` too.  Both are NaN
    where ``margin <= 0``: no stationary spectrum exists there.  At one
    point every field is a Python float or complex.
    """

    l: int
    delta_l: np.ndarray
    g: np.ndarray
    phi_ref: np.ndarray
    margin: np.ndarray
    n_signal: np.ndarray
    m_corr: np.ndarray

    def __init__(self, l, delta_l, g, phi_ref, margin, n_signal, m_corr):
        # a dict write, as SteadyState: the generated frozen __init__
        # calls object.__setattr__ once per field
        self.__dict__.update(l=l, delta_l=delta_l, g=g, phi_ref=phi_ref,
                             margin=margin, n_signal=n_signal, m_corr=m_corr)

    def require_below_threshold(self) -> "PairMoments":
        """Return self; raise SingularSystemError if any point is not below threshold."""
        margin = self.margin
        if type(margin) is not float:  # a float skips the 0-d array the reduction builds
            margin = np.minimum.reduce(margin, axis=None)  # np.min's dispatch costs more
        if not margin > 0.0:
            raise SingularSystemError(
                f"side-mode pair l={self.l} is not below threshold: slowest "
                f"eigenvalue decays at {margin:.6g} rad/s"
            )
        return self


def pair_moments(model: ResonatorModel, rho, a0, omega, l: int = 1) -> PairMoments:
    """Operating point and output moments of side-mode pair ``l``.

    Broadcasts over the pump photon number ``rho``, the pump field ``a0``
    and the sideband frequency ``omega`` (rad/s).  ``rho`` and ``a0`` are
    separate because ``|a0|^2`` matches ``rho`` only to the steady-state
    residual: the pair offset ``delta_l`` and the margin use ``rho``, the
    gain ``g = g0*a0^2`` and the frame phase ``phi_ref`` use ``a0``.

    With ``d1 = kappa/2 + i*(delta_l - omega)``,
    ``d2 = kappa/2 - i*(delta_l + omega)`` and ``det = d1*d2 - |g|^2``
    (the determinant of the pair's linear system), the second moments of
    the scattering matrix of :func:`pair_scattering` are

        n_signal = kappa_e*kappa*|g|^2 / |det|^2
        m_corr = i*kappa_e*g*exp(-2i*phi_ref)*(conj(d1)*d2 + |g|^2) / |det|^2

    Raises DomainError for a non-finite ``omega``.
    """
    omega = _finite_omega(omega)
    # [()] spares a scalar the dispatch a 0-d array pays; one point goes on to
    # Python floats (same bits, cheaper still), and four array-only steps pick a form by type
    rho = np.asarray(rho, dtype=float)[()]
    a0 = np.asarray(a0, dtype=complex)[()]
    if type(omega) is float and rho.ndim == a0.ndim == 0:
        rho, a0 = float(rho), complex(a0)
    hk = 0.5 * model.kappa
    delta_l, margin = _offset_and_margin(model, rho, l)
    # real arithmetic rounds as pair_scattering's scalar complex products do
    # (numpy's may fuse), so g and det agree there bit for bit
    gr, gi = model.g0 * a0.real, model.g0 * a0.imag
    g = (gr * a0.real - gi * a0.imag) + 1j * (gr * a0.imag + gi * a0.real)
    if type(a0) is complex:  # numpy's arctan2: math.atan2 differs in the last bit
        phi_ref = 0.0 if a0 == 0 else 0.25 * math.pi + float(np.arctan2(a0.imag, a0.real))
    else:
        phi_ref = np.where(a0 == 0, 0.0, 0.25 * math.pi + np.angle(a0))[()]
    a = delta_l - omega  # d1 = kappa/2 + i*a
    b = delta_l + omega  # d2 = kappa/2 - i*b
    g2 = g.real * g.real + g.imag * g.imag
    det_re = hk * hk + a * b - g2
    det_im = hk * a - hk * b
    # 1/|det|^2 (inf where it underflows, as numpy divides), NaN where no
    # stationary spectrum exists
    abs_det2 = det_re * det_re + det_im * det_im
    if type(abs_det2) is float:
        scale = (1.0 / abs_det2 if abs_det2 else math.inf) if margin > 0.0 else math.nan
    else:
        scale = 1.0 / np.where(margin > 0.0, abs_det2, math.nan)[()]
    cross = (hk * hk - a * b + g2) - 1j * (hk * (a + b))  # conj(d1)*d2 + |g|^2
    frame = cmath.exp(-2j * phi_ref) if type(phi_ref) is float else np.exp(-2j * phi_ref)
    rotated = 1j * model.kappa_e * g * frame
    return PairMoments(
        l=l,
        delta_l=delta_l,
        g=g,
        phi_ref=phi_ref,
        margin=margin,
        n_signal=model.kappa_e * model.kappa * g2 * scale,
        m_corr=rotated * cross * scale,
    )


def pair_scattering(
    model: ResonatorModel,
    steady: SteadyState,
    omega: float,
    l: int = 1,
) -> np.ndarray:
    """2x4 Bogoliubov scattering matrix of pair ``l`` at sideband ``omega`` (rad/s).

    It maps the vacuum inputs ``(v_e,l, v_e,-l^dag, v_i,l, v_i,-l^dag)``
    to the outgoing ``(a_out,l, a_out,-l^dag)`` in the frame ``phi_ref``
    of :func:`pair_moments`, where the squeezed joint quadrature sits at
    homodyne angle pi/2 whatever the pump phase.  Raises DomainError for
    a non-finite ``omega`` and SingularSystemError at or above the pair
    threshold.
    """
    point = pair_moments(model, steady.rho, steady.a0, omega, l).require_below_threshold()
    hk = 0.5 * model.kappa
    delta_l, g, phi_ref = point.delta_l, point.g, point.phi_ref
    d1 = hk + 1j * (delta_l - omega)
    d2 = hk - 1j * (delta_l + omega)
    det = d1 * d2 - (g.real * g.real + g.imag * g.imag)
    inv = np.array([[d2, 1j * g], [-1j * g.conjugate(), d1]]) / det
    s_raw = np.hstack(
        [
            model.kappa_e * inv - np.eye(2),
            math.sqrt(model.kappa_e * model.kappa_i) * inv,
        ]
    )
    rot = np.array([cmath.exp(-1j * phi_ref), cmath.exp(1j * phi_ref)])
    return rot[:, None] * s_raw


def bogoliubov_defect(s: np.ndarray) -> float:
    """How far a 2x4 scattering matrix is from commutator preservation.

    A physical map must satisfy ``S diag(1,-1,1,-1) S^dag = diag(1,-1)``;
    returns the max absolute deviation, which should sit at rounding
    level for any below-threshold system.
    """
    sigma4 = np.diag([1.0, -1.0, 1.0, -1.0])
    sigma2 = np.diag([1.0, -1.0])
    return float(np.max(np.abs(s @ sigma4 @ s.conj().T - sigma2)))


def _detected(pair: PairMoments, eta_total):
    """The distinct entries ``(d, r, s, -r, 0)`` of the detected 4x4 covariance.

    Each is ``x*eta + (1 - eta)*{1, 0}`` for its on-chip value ``x``: the
    vacuum admixed by detection loss.  DomainError for ``eta_total``
    outside [0, 1].
    """
    if not 0.0 <= eta_total <= 1.0:
        raise DomainError(f"eta_total must lie in [0, 1], got {eta_total}")
    eta = float(eta_total)
    on, off = (1.0 - eta) * 1.0, (1.0 - eta) * 0.0
    m = pair.m_corr
    # -2 Re m rather than -r: negating a NaN would flip its sign bit
    return ((1.0 + 2.0 * pair.n_signal) * eta + on, 2.0 * m.real * eta + off,
            2.0 * m.imag * eta + off, -2.0 * m.real * eta + off, 0.0 * eta + off)


def output_covariance(pair: PairMoments, eta_total: float = 1.0) -> np.ndarray:
    """4x4 quadrature covariance of the detected pair, vacuum = identity.

    Row order is ``(q_l, p_l, q_{-l}, p_{-l})``.  With ``n = n_signal``
    (the flux of either mode), ``d = 1 + 2n``, ``r = 2 Re m_corr`` and
    ``s = 2 Im m_corr``, the on-chip covariance is

        V = [[d, 0, r, s], [0, d, s, -r], [r, s, d, 0], [s, -r, 0, d]].

    ``eta_total`` is the off-chip detection efficiency, applied as a
    beamsplitter admixing vacuum: ``V -> eta V + (1 - eta) I``.
    Array-valued moments give a stack of shape ``(..., 4, 4)``.
    """
    d, r, s, minus_r, _ = _detected(pair, eta_total)  # np.zeros holds the zeros
    v = np.zeros(np.shape(pair.m_corr) + (4, 4))
    v[..., 0, 0] = v[..., 1, 1] = v[..., 2, 2] = v[..., 3, 3] = d
    v[..., 0, 2] = v[..., 2, 0] = r
    v[..., 0, 3] = v[..., 3, 0] = v[..., 1, 2] = v[..., 2, 1] = s
    v[..., 1, 3] = v[..., 3, 1] = minus_r
    return v


def homodyne_variance(cov: np.ndarray, theta):
    """Noise power of the joint quadrature at homodyne angle ``theta``.

    Measures ``(q_l + q_{-l}) cos theta + (p_l + p_{-l}) sin theta``, the
    matched two-tone homodyne, normalized so vacuum gives 1.

    A stack of covariances ``(..., 4, 4)`` gives one row of angles per
    matrix, shape ``(...) + theta.shape``.
    """
    th = np.asarray(theta, dtype=float)
    cos, sin = np.cos(th), np.sin(th)
    c = np.stack([cos, sin, cos, sin], axis=-1)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim > 2:
        cov = cov.reshape(cov.shape[:-2] + (1,) * th.ndim + (4, 4))
    quad = np.einsum("...i,...ij,...j->...", c, cov, c)
    # normalize by the same LO's shot response, contracted the same way,
    # so exact-vacuum input gives exactly 1 at every angle
    shot = np.einsum("...i,ij,...j->...", c, np.eye(4), c)
    quad /= shot
    if quad.ndim == 0:
        return float(quad)
    return quad


@dataclass(frozen=True, init=False)
class QuadratureExtrema:
    """Extremal homodyne variances and the angles that reach them.

    ``theta_min`` is reported modulo pi (the variance is pi-periodic);
    ``var_max`` sits at ``theta_min + pi/2``.  For vacuum input
    ``theta_min`` defaults to 0.
    """

    var_min: float
    var_max: float
    theta_min: float

    def __init__(self, var_min, var_max, theta_min):
        # a dict write, as SteadyState: the generated frozen __init__
        # calls object.__setattr__ once per field
        fields = self.__dict__
        fields["var_min"] = var_min
        fields["var_max"] = var_max
        fields["theta_min"] = theta_min


def _extrema(mean, d, off) -> QuadratureExtrema:
    # elementwise; Python floats stay floats, via numpy's hypot and arctan2 (math's differ)
    amp = np.hypot(d, off)
    if type(d) is float:
        amp = float(amp)
        theta_min = 0.0 if amp == 0.0 else 0.5 * (float(np.arctan2(off, d)) + math.pi) % math.pi
    else:
        theta_min = np.where(amp == 0.0, 0.0, 0.5 * (np.arctan2(off, d) + math.pi) % math.pi)[()]
    return QuadratureExtrema(mean - amp, mean + amp, theta_min)


def _joint_mode(v00, v22, v02, v11, v33, v13, v01, v03, v21, v23) -> QuadratureExtrema:
    """Extrema from the covariance entries ``v[i, j]`` that the joint mode reads."""
    # 2x2 covariance of the joint (sum) mode actually probed by the
    # matched two-tone homodyne, in (q, p) order
    r_qq = 0.5 * (v00 + v22 + 2.0 * v02)
    r_pp = 0.5 * (v11 + v33 + 2.0 * v13)
    r_qp = 0.5 * (v01 + v03 + v21 + v23)
    return _extrema(0.5 * (r_qq + r_pp), 0.5 * (r_qq - r_pp), r_qp)


def optimal_quadratures_from_cov(cov: np.ndarray) -> QuadratureExtrema:
    """Closed-form variance extrema of the matched joint quadrature.

    A stack of covariances ``(..., 4, 4)`` gives arrays of extrema.
    """
    v = np.asarray(cov, dtype=float)
    return _joint_mode(v[..., 0, 0], v[..., 2, 2], v[..., 0, 2], v[..., 1, 1], v[..., 3, 3],
                       v[..., 1, 3], v[..., 0, 1], v[..., 0, 3], v[..., 2, 1], v[..., 2, 3])


def _pair_extrema(pair: PairMoments, eta_total: float) -> QuadratureExtrema:
    """``optimal_quadratures_from_cov(output_covariance(pair, eta_total))`` without the 4x4."""
    d, r, s, minus_r, zero = _detected(pair, eta_total)
    return _joint_mode(d, d, r, d, d, minus_r, zero, s, s, zero)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix in vacuum units.

    Modes are interleaved as (q1, p1, q2, p2, ...).  Physical states have
    every value at or above 1 in this normalization; the smallest one is
    the standard physicality margin.  A stack ``(..., 2n, 2n)`` gives ``(..., n)``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-2] != cov.shape[-1] or cov.shape[-1] % 2:
        raise DomainError("covariance must be square with even dimension")
    form = np.kron(np.eye(cov.shape[-1] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    ev = np.linalg.eigvals(1j * form @ cov)
    return np.sort(np.abs(ev), axis=-1)[..., ::2]  # pairs (+nu, -nu): keep each nu once


def variance_db(variance):
    """Signed dB relative to shot noise (negative = squeezed)."""
    return 10.0 * np.log10(variance)


def squeezing_db(variance):
    """dB below shot noise, positive when squeezed."""
    return -10.0 * np.log10(variance)


@dataclass(frozen=True)
class SpectrumGrid:
    """Homodyne noise spectra on an (omega, theta) grid.

    ``variance[i, j]`` is the relative noise power at ``omegas[i]``,
    ``thetas[j]``; the per-frequency extrema come from the covariance in
    closed form, not from the theta grid.
    """

    omegas: np.ndarray
    thetas: np.ndarray
    variance: np.ndarray
    var_min: np.ndarray
    var_max: np.ndarray
    theta_opt: np.ndarray
    n_signal: np.ndarray
    n_idler: np.ndarray
    m_corr: np.ndarray


def spectrum_grid(
    model: ResonatorModel,
    steady: SteadyState,
    omegas,
    thetas=None,
    l: int = 1,
    eta_total: float = 1.0,
) -> SpectrumGrid:
    """Evaluate pair spectra over sideband frequencies and homodyne angles."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, 91)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    pair = pair_moments(model, steady.rho, steady.a0, omegas, l).require_below_threshold()
    cov = output_covariance(pair, eta_total)
    ext = optimal_quadratures_from_cov(cov)
    return SpectrumGrid(
        omegas=omegas,
        thetas=thetas,
        variance=homodyne_variance(cov, thetas),
        var_min=ext.var_min,
        var_max=ext.var_max,
        theta_opt=ext.theta_min,
        n_signal=pair.n_signal,
        n_idler=pair.n_signal,
        m_corr=pair.m_corr,
    )


@dataclass(frozen=True)
class PowerSweepResult:
    """Squeezing extrema versus on-chip pump power at fixed sideband.

    Points at or above the pair threshold are flagged and carry NaN
    variances; the classical steady state itself always exists.
    """

    powers: np.ndarray
    rho: np.ndarray
    var_min: np.ndarray
    var_max: np.ndarray
    theta_opt: np.ndarray
    margin: np.ndarray
    above_threshold: np.ndarray


def power_sweep(
    model: ResonatorModel,
    powers,
    *,
    omega: float = 0.0,
    l: int = 1,
    eta_total: float = 1.0,
    branch_policy: str = "lowest",
    rtol: float = RESIDUAL_RTOL,
) -> PowerSweepResult:
    """Sweep pump power and record the optimal-quadrature extrema.

    Each point is the steady state :func:`operating_points` finds under
    ``branch_policy``; ``rtol`` is the residual tolerance of each solve.
    """
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    rho, a0 = operating_points(model, powers, branch_policy, rtol)
    pair = pair_moments(model, rho, a0, omega, l)
    ext = _pair_extrema(pair, eta_total)
    return PowerSweepResult(
        powers=powers,
        rho=rho,
        var_min=ext.var_min,
        var_max=ext.var_max,
        theta_opt=ext.theta_min,
        margin=pair.margin,
        above_threshold=pair.margin <= 0.0,
    )


# largest drive strength x = g0*rho/(kappa/2) the calibration searches
_X_CAP = 3.0


@dataclass(frozen=True)
class CalibrationResult:
    """Kerr shift inferred by pinning the squeezing optimum to a power."""

    g0: float
    x_opt: float
    rho: float
    branch: str
    var_min: float
    var_max: float
    theta_opt: float


def calibrate_g0_to_optimum(
    model: ResonatorModel,
    pump: PumpDrive,
    *,
    omega: float = 0.0,
    l: int = 1,
    eta_total: float = 1.0,
) -> CalibrationResult:
    """Choose g0 so the squeezing optimum lands at the given pump power.

    The pair spectra depend on the pump only through the dimensionless
    drive strength ``x = g0*rho/(kappa/2)``, and on the model only
    through the rates and the zero-pump pair offset
    ``b = (delta + d2*l^2/2)/(kappa/2)`` (the frame phase cancels out of
    ``g*exp(-2i*phi_ref)``).  With ``w = omega/(kappa/2)``,
    ``c0 = 1 + b^2 - w^2``, ``eta_esc`` the escape efficiency and
    ``eta = eta_total``, the optimal-quadrature variance is

        var_min = 1 - 4*eta_esc*eta / (2 + sqrt(G + 4))
        G(x) = ((3x^2 - 4b*x + c0)^2 + 4w^2) / x^2

    It rises with ``G``, so the optimum minimizes ``G``; ``G' = 0`` is

        9x^4 - 12b*x^3 + 4b*c0*x - (c0^2 + 4w^2) = 0.

    ``x_opt`` is the candidate of least ``G`` among the real parts of its
    roots in ``(0, x_hi)`` and ``x_hi`` (3, or just below the pair
    threshold) itself.  This returns the ``g0`` that places ``x_opt`` at
    ``pump``; the input model's ``g0`` is ignored.  Raises DomainError
    when the optimum is not interior (e.g. when squeezing keeps improving
    toward threshold, or lies beyond the cap), and for a non-finite
    ``omega``.

    Where ``b == 0`` (e.g. ``delta = d2 = 0``) the pair never reaches
    threshold and the quartic reads ``9x^4 = (1 + w^2)^2``:

        x_opt = sqrt((1 + w^2)/3)
        var_min = 1 - (2/3)*eta_esc*eta
        var_max = 1 + 2*eta_esc*eta

    Neither level depends on ``w``.  At ``w = 0`` the pair flux there is
    ``eta_esc/3``, the largest any ``x`` reaches, which caps the detected
    levels at this operating point.
    """
    if pump.flux <= 0.0:
        raise DomainError("calibration needs a non-zero pump")
    omega = float(_finite_omega(omega))
    hk = 0.5 * model.kappa
    x_th = threshold_gain(model, l) / hk
    x_hi = min(_X_CAP, x_th * (1.0 - 1e-9))
    b, w = zero_pump_offset(model, l) / hk, omega / hk
    if b == 0.0:
        x_opt = math.sqrt((1.0 + w * w) / 3.0)
    else:
        c0 = 1.0 + b * b - w * w
        roots = np.roots([9.0, -12.0 * b, 0.0, 4.0 * b * c0, -(c0 * c0 + 4.0 * w * w)]).real
        xs = np.append(roots[(roots > 0.0) & (roots < x_hi)], x_hi)
        objective = ((3.0 * xs * xs - 4.0 * b * xs + c0) ** 2 + 4.0 * w * w) / (xs * xs)
        x_opt = float(xs[np.argmin(objective)])
    span = x_hi - 1e-9
    if x_opt < 1e-3 * span or x_opt > x_hi - 1e-3 * span:
        raise DomainError(
            "no interior squeezing optimum in x; calibration is ill-posed "
            "at this detuning"
        )
    gain = x_opt * hk
    g0 = g0_for_gain(model, pump, gain)
    calibrated = dataclasses.replace(model, g0=g0)
    steady = steady_state_at_gain(calibrated, pump, gain)
    pair = pair_moments(calibrated, steady.rho, steady.a0, omega, l).require_below_threshold()
    ext = _pair_extrema(pair, eta_total)
    return CalibrationResult(
        g0=g0,
        x_opt=x_opt,
        rho=steady.rho,
        branch=steady.branch,
        var_min=ext.var_min,
        var_max=ext.var_max,
        theta_opt=ext.theta_min,
    )


@dataclass(frozen=True)
class PhaseScanTrace:
    """Synthetic spectrum-analyzer record of a slow local-oscillator ramp.

    ``measured_db`` carries multiplicative radiometer jitter with relative
    scale ``sqrt(vbw/rbw)``, low-passed at the video bandwidth;
    ``shot_db`` is an equally noisy vacuum reference; ``true_db`` is the
    jitter-free curve.  All columns are dB relative to shot noise.
    """

    time_s: np.ndarray
    theta: np.ndarray
    measured_db: np.ndarray
    shot_db: np.ndarray
    true_db: np.ndarray


def _video_noise(rng: np.random.Generator, n: int, vbw: float, dt: float) -> np.ndarray:
    white = rng.standard_normal(n)
    a = math.exp(-2.0 * math.pi * vbw * dt)
    if a <= 1e-12:
        return white
    out = np.empty(n)
    gain = math.sqrt((1.0 - a) / (1.0 + a))
    prev = rng.standard_normal() * gain  # stationary start
    for k in range(n):
        prev = a * prev + (1.0 - a) * white[k]
        out[k] = prev
    return out / gain


def phase_scan_trace(
    model: ResonatorModel,
    steady: SteadyState,
    omega: float,
    *,
    l: int = 1,
    eta_total: float = 1.0,
    periods: int = 2,
    samples_per_period: int = 400,
    scan_time: float = 1.0,
    rbw: float = 300e3,
    vbw: float = 470.0,
    seed=None,
) -> PhaseScanTrace:
    """Simulate the noise-power trace of a linear homodyne phase ramp.

    The ramp starts at the squeezed angle, so with an even
    ``samples_per_period`` the anti-squeezed angle falls exactly on the
    grid half a period later.
    """
    if samples_per_period % 2 or samples_per_period < 4:
        raise DomainError("samples_per_period must be even and at least 4")
    for name, value in (("scan_time", scan_time), ("rbw", rbw)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value}")
    if periods < 1:
        raise DomainError("periods must be at least 1")
    if not 0.0 <= vbw <= rbw:
        raise DomainError("need 0 <= vbw <= rbw")
    pair = pair_moments(model, steady.rho, steady.a0, omega, l).require_below_threshold()
    cov = output_covariance(pair, eta_total)
    ext = optimal_quadratures_from_cov(cov)
    n = periods * samples_per_period
    k = np.arange(n)
    theta = ext.theta_min + math.pi * k / samples_per_period
    # pi-periodic: one period evaluated, so every period repeats it exactly
    var = np.tile(homodyne_variance(cov, theta[:samples_per_period]), periods)
    rng = np.random.default_rng(seed)
    dt = scan_time / n
    if vbw == 0.0:  # ideal video filter: jitter-free trace
        meas = var.copy()
        shot = np.ones(n)
    else:
        sigma = math.sqrt(vbw / rbw)
        meas = var * (1.0 + sigma * _video_noise(rng, n, vbw, dt))
        shot = 1.0 + sigma * _video_noise(rng, n, vbw, dt)
    floor = 1e-12
    return PhaseScanTrace(
        time_s=k * dt,
        theta=theta,
        measured_db=variance_db(np.maximum(meas, floor)),
        shot_db=variance_db(np.maximum(shot, floor)),
        true_db=variance_db(var),
    )
