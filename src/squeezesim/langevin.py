"""Stochastic cross-check of the analytic pair spectra.

Integrates the linearized quadrature Langevin equations of one side-mode
pair driven by vacuum noise and estimates homodyne noise spectra from the
simulated output record, sharing no formulas with the frequency-domain
covariance route beyond the physical model itself.

The integrator is exact for this linear system:

- the one-step propagator and process-noise covariance come from one
  block matrix exponential of an augmented 12-dim system holding the four
  pair quadratures, their running time integrals, and the time integral
  of the reflected external noise;
- the homodyne record is the exact boxcar average of the outgoing field
  over each step.  It needs only two combinations of those integrals, the
  sum-mode q and p of the output, so each step draws the rank-6 joint
  law of (next pair state, boxcar record) from the projected 6x6
  covariance instead of the full 12-dim increment;
- the detection loss mixes in one vacuum (q, p) pair per step, projected
  onto each homodyne angle like the signal, so records at different
  angles are correlated as they are for one physical detector;
- every segment starts from the stationary state distribution, so
  segments are statistically independent, no burn-in is discarded, and
  the scatter between segments gives an honest standard error.

The analytic side, :func:`expected_bin_value`, is exact too: it takes
the two-pole spectrum of :func:`~squeezesim.spectra.pair_moments`, turns
it into the autocovariance of the boxcar-sampled record, and sums that
over the Hann window's lags, so aliases and finite-segment leakage are
all included.  :func:`_exact_bin_value` reaches the same bin from the
step law instead (the tests hold the two together to rounding), but the
stochastic cross-check compares the simulation with the spectra route,
so it keeps testing the analytic spectra.  :func:`simulate_pair` accepts
steps up to one cavity period 2*pi/kappa, the longest step that
:func:`segment_plan` plans.

Internally time is scaled so the loaded linewidth is 1, which keeps the
augmented noise covariance well conditioned; reported frequencies are in
rad/s.  Spectra are two-sided densities normalized to shot noise
(vacuum = 1).  Segments are simulated in vectorized batches with a single
pseudorandom stream, so results are bitwise reproducible for a given seed
and batch size.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from squeezesim.params import DomainError, ResonatorModel
from squeezesim.spectra import homodyne_variance, output_covariance, pair_moments
from squeezesim.steady_state import SteadyState

# float64 normals per chunk of steps (1 MB): large enough that numpy's
# per-call cost vanishes, small enough to add nothing to peak memory
_NOISE_CHUNK_VALUES = 1 << 17

# homodyne angles the cross-check tests by default
CROSS_CHECK_THETAS = (0.0, 0.25 * math.pi, 0.5 * math.pi)

# longest segment segment_plan asks for; beyond it the step is stretched
_MAX_SEGMENT_STEPS = 500


def drift_matrix(kappa: float, delta_l: float, g: complex) -> np.ndarray:
    """Drift of the pair quadratures (q_l, p_l, q_{-l}, p_{-l})."""
    hk = 0.5 * kappa
    gr, gi = g.real, g.imag
    return np.array(
        [
            [-hk, delta_l, -gi, gr],
            [-delta_l, -hk, gr, gi],
            [-gi, gr, -hk, delta_l],
            [gr, gi, -delta_l, -hk],
        ]
    )


def stationary_covariance(kappa: float, delta_l: float, g: complex) -> np.ndarray:
    """Intracavity stationary quadrature covariance under vacuum drive.

    Solves the continuous Lyapunov equation with the vacuum diffusion
    kappa/4 per quadrature; for an undriven pair this returns 1/4 times
    the identity.
    """
    a = drift_matrix(kappa, delta_l, g)
    return solve_continuous_lyapunov(a, -0.25 * kappa * np.eye(4))


def augmented_matrices(
    kappa_i: float, kappa_e: float, delta_l: float, g: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Drift and noise-input matrices of the augmented 12-dim system.

    State layout: pair quadratures R (4), their running integral Y (4),
    and the integral W of the external-port vacuum noise quadratures (4).
    The eight unit-intensity white noises are the external and intrinsic
    port quadrature noises; vacuum quadrature noise has intensity 1/4,
    hence the factors 1/2.
    """
    kappa = kappa_i + kappa_e
    at = np.zeros((12, 12))
    at[:4, :4] = drift_matrix(kappa, delta_l, g)
    at[4:8, :4] = np.eye(4)
    bt = np.zeros((12, 8))
    bt[:4, :4] = 0.5 * math.sqrt(kappa_e) * np.eye(4)
    bt[:4, 4:] = 0.5 * math.sqrt(kappa_i) * np.eye(4)
    bt[8:12, :4] = 0.5 * np.eye(4)
    return at, bt


def discretize(at: np.ndarray, bt: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step propagator and process-noise covariance.

    Uses the block-exponential identity: exponentiating
    [[-A, B B^T], [0, A^T]] * dt yields exp(A dt) and the integral
    int_0^dt exp(A s) B B^T exp(A^T s) ds in one call.
    """
    n = at.shape[0]
    c = np.zeros((2 * n, 2 * n))
    c[:n, :n] = -at
    c[:n, n:] = bt @ bt.T
    c[n:, n:] = at.T
    e = expm(c * dt)
    phi = e[n:, n:].T
    q = phi @ e[:n, n:]
    return phi, 0.5 * (q + q.T)


def _factor_psd_matrix(mat: np.ndarray) -> np.ndarray:
    # eigenvalue square root; tiny negative eigenvalues from rounding are
    # clipped so the factor always exists
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    return v * np.sqrt(np.clip(w, 0.0, None))


def _record_projection(root_ke: float, s_dt: float) -> np.ndarray:
    """Rows of the augmented state that one step of the record needs.

    The first four rows keep the pair quadratures R; the last two are the
    boxcar averages of the outgoing sum-mode quadratures over the step,
    c_q = (sqrt(kappa_e) (Y_q,l + Y_q,-l) - (W_q,l + W_q,-l)) / dt and
    c_p alike for the p quadratures.
    """
    proj = np.zeros((6, 12))
    proj[:4, :4] = np.eye(4)
    for row, quad in ((4, 0), (5, 1)):
        proj[row, [4 + quad, 6 + quad]] = root_ke / s_dt
        proj[row, [8 + quad, 10 + quad]] = -1.0 / s_dt
    return proj


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")


def _check_eta(eta_total: float) -> None:
    if not 0.0 <= eta_total <= 1.0:
        raise DomainError(f"eta_total must lie in [0, 1], got {eta_total}")


def _check_bin(thetas, k: int, dt: float, n: int, eta_total: float) -> None:
    _check_dt(dt)
    for theta in thetas:
        if not math.isfinite(theta):
            raise DomainError(f"theta must be finite, got {float(theta)!r}")
    _check_eta(eta_total)
    if not 1 <= k <= n // 2 - 1:
        raise DomainError(f"bin index {k} outside the usable grid")


@dataclass(frozen=True)
class _StepLaw:
    """Exact one-step law of the pair state and its boxcar record.

    In scaled units (kappa = 1, step ``s_dt``): the pair state advances
    as r -> a_rr r + w, and the step's record of the outgoing sum-mode
    (q, p) is c_rec r + v, where (w, v) has the 6x6 covariance ``cov``.
    ``p0`` is the stationary pair covariance, which the exact step keeps.
    """

    s_dt: float
    phi_ref: float
    a_rr: np.ndarray
    c_rec: np.ndarray
    cov: np.ndarray
    p0: np.ndarray


def _step_law(model: ResonatorModel, steady: SteadyState, dt: float, l: int) -> _StepLaw:
    point = pair_moments(model, steady.rho, steady.a0, 0.0, l).require_below_threshold()
    kappa = model.kappa
    delta_l, g = point.delta_l, point.g
    s_dt = dt * kappa
    at, bt = augmented_matrices(
        model.kappa_i / kappa, model.kappa_e / kappa, delta_l / kappa, g / kappa
    )
    phi, q = discretize(at, bt, s_dt)
    proj = _record_projection(math.sqrt(model.kappa_e / kappa), s_dt)
    return _StepLaw(
        s_dt=s_dt,
        phi_ref=point.phi_ref,
        a_rr=np.ascontiguousarray(phi[:4, :4]),
        c_rec=proj[4:] @ phi[:, :4],
        cov=proj @ q @ proj.T,
        p0=stationary_covariance(1.0, delta_l / kappa, g / kappa),
    )


def _flat_view(buf: np.ndarray, *shape: int) -> np.ndarray:
    # contiguous leading part of a flat buffer, so one allocation serves
    # every batch width
    return buf[: math.prod(shape)].reshape(shape)


def _hann_window(n: int) -> np.ndarray:
    # periodic form: its power leaks onto exactly the two adjacent bins
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * np.arange(n) / n))


def _hann_periodograms(segments: np.ndarray, dt: float, bins, spec: np.ndarray) -> np.ndarray:
    """Two-sided density periodograms of equal-length segments (..., n) at ``bins``.

    The window is multiplied into ``segments`` in place and the transform
    written into ``spec`` (..., n // 2 + 1); only the bins that ``bins``
    indexes on its last axis are squared and scaled.
    """
    n = segments.shape[-1]
    w = _hann_window(n)
    segments *= w
    np.fft.rfft(segments, axis=-1, out=spec)
    picked = spec[..., bins]
    return (picked.real ** 2 + picked.imag ** 2) * (dt / (n * np.mean(w * w)))


def _bin_selection(bins, nf: int) -> np.ndarray:
    """Indices of the requested bins on a grid of ``nf``; every bin for None."""
    if bins is None:
        return np.arange(nf)
    if np.ndim(bins) != 1 or not all(
        isinstance(b, numbers.Integral) and not isinstance(b, bool) and 0 <= b < nf
        for b in bins
    ):
        raise DomainError(
            f"bins must be a sequence of integer bin indices in [0, {nf - 1}], got {bins!r}"
        )
    return np.array(bins, dtype=np.intp)


@dataclass(frozen=True)
class LangevinRun:
    """Result of one stochastic run at fixed operating point.

    ``psd`` is (n_theta, n_bins), normalized so shot noise is 1, with one
    column per bin that :func:`simulate_pair` was asked for (every bin of
    the rfft grid by default) and ``omega`` (n_bins,) their frequencies;
    ``psd_sigma`` is its per-bin standard error from segment scatter.
    ``series`` keeps the first simulated segment (n_theta, n_samples) of
    the detected homodyne record for inspection and dumps.  Its rows are
    projections of one detected field, loss vacuum included, so records
    at different angles are correlated as for one physical detector: at
    vacuum input, angles theta1 and theta2 correlate as cos(theta1 -
    theta2).
    """

    omega: np.ndarray
    psd: np.ndarray
    psd_sigma: np.ndarray
    thetas: np.ndarray
    series: np.ndarray
    dt: float


def simulate_pair(
    model: ResonatorModel,
    steady: SteadyState,
    *,
    dt: float,
    n_samples: int,
    n_segments: int,
    thetas=(0.0,),
    eta_total: float = 1.0,
    l: int = 1,
    seed=None,
    batch_size: int = 128,
    bins=None,
) -> LangevinRun:
    """Simulate homodyne records of one pair and estimate their spectra.

    The homodyne angles follow the same convention as the analytic route:
    the frame is rotated so the squeezed joint quadrature of the line
    center sits at ``theta = pi/2``.

    Each step draws the exact joint law of the next pair state and the
    step's boxcar record: the 12-dim process noise of :func:`discretize`
    is projected onto the four pair quadratures and the outgoing sum-mode
    (q, p), and that rank-6 covariance is sampled with six normals.  Below
    unit efficiency two more normals give the loss vacuum's (q, p), which
    is projected onto each angle like the signal.  Normals are drawn
    step-major in fixed chunks, so the stream depends only on ``seed``
    and on how ``batch_size`` splits the segments into batches: every
    ``batch_size >= n_segments`` gives the same bits.

    ``bins`` selects the periodogram bins to estimate, as integer indices
    into the rfft grid of ``n_samples // 2 + 1`` bins; ``None`` keeps them
    all, and ``()`` none, for a run that only wants ``series``.  Every
    record is still transformed in full, so a selected bin has the same
    bits as in a run that keeps every bin, and the random stream does not
    depend on ``bins``.  The result's ``psd``, ``psd_sigma`` and ``omega``
    hold the selected bins' columns, in the order given.

    ``dt`` may be at most one cavity period 2*pi/kappa.  The law is exact
    at any step, and so is :func:`expected_bin_value`; the cap is the
    longest step :func:`segment_plan` plans, beyond which a bin mixes so
    many aliases that it says little about the spectrum at its own
    frequency.
    """
    _check_dt(dt)
    period = 2.0 * math.pi / model.kappa
    if dt > period * (1.0 + 1e-12):
        raise DomainError(
            f"dt must not exceed one cavity period 2*pi/kappa = {period!r}, got {dt!r}"
        )
    if n_samples < 8:
        raise DomainError("n_samples must be at least 8")
    if n_segments < 2:
        raise DomainError("n_segments must be at least 2")
    if batch_size < 1:
        raise DomainError("batch_size must be at least 1")
    _check_eta(eta_total)
    nf = n_samples // 2 + 1
    sel = _bin_selection(bins, nf)
    omega = (2.0 * math.pi * np.fft.rfftfreq(n_samples, d=dt))[sel]
    batch_size = min(batch_size, n_segments)
    law = _step_law(model, steady, dt, l)
    s_dt, propagate = law.s_dt, law.a_rr.dot
    l6 = _factor_psd_matrix(law.cov)
    l0 = _factor_psd_matrix(law.p0)
    sqrt_eta = math.sqrt(eta_total)
    # detected record of a step from the pair state at its start
    c_r = sqrt_eta * law.c_rec
    # one step's normals -> (pair-state increment, detected record noise)
    n_draw = 8 if eta_total < 1.0 else 6
    mix = np.zeros((6, n_draw))
    mix[:4, :6] = l6[:4]
    mix[4:, :6] = sqrt_eta * l6[4:]
    if n_draw == 8:
        mix[4:, 6:] = math.sqrt((1.0 - eta_total) * 0.5 / s_dt) * np.eye(2)

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    angles = thetas + law.phi_ref
    to_angles = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    rng = np.random.default_rng(seed)
    nth, n = thetas.size, n_samples
    chunk = max(1, min(n, _NOISE_CHUNK_VALUES // (n_draw * batch_size)))
    noise_buf = np.empty(chunk * n_draw * batch_size)
    mixed_buf = np.empty(chunk * 6 * batch_size)
    state_buf = np.empty((chunk + 1) * 4 * batch_size)
    record_buf = np.empty(chunk * 2 * batch_size)
    angle_buf = np.empty(chunk * nth * batch_size)
    xs_buf = np.empty(nth * batch_size * n)
    spec_buf = np.empty(nth * batch_size * nf, dtype=complex)
    acc = np.zeros((nth, omega.size))
    acc2 = np.zeros((nth, omega.size))
    first = None
    done = 0
    while done < n_segments:
        b = min(batch_size, n_segments - done)
        noise = _flat_view(noise_buf, chunk, n_draw, b)
        mixed = _flat_view(mixed_buf, chunk, 6, b)
        states = _flat_view(state_buf, chunk + 1, 4, b)
        record = _flat_view(record_buf, chunk, 2, b)
        at_angles = _flat_view(angle_buf, chunk, nth, b)
        xs = _flat_view(xs_buf, nth, b, n)
        spec = _flat_view(spec_buf, nth, b, nf)
        # per-step views made once per batch: the step loop only does math
        state_rows = list(states)
        increments = list(mixed[:, :4])
        states[0] = l0 @ rng.standard_normal((4, b))
        for m0 in range(0, n, chunk):
            k = min(chunk, n - m0)
            rng.standard_normal(out=noise[:k])
            np.matmul(mix, noise[:k], out=mixed[:k])
            for r, r_next, w in zip(state_rows, state_rows[1 : k + 1], increments):
                propagate(r, out=r_next)
                r_next += w
            np.matmul(c_r, states[:k], out=record[:k])
            record[:k] += mixed[:k, 4:]
            np.matmul(to_angles, record[:k], out=at_angles[:k])
            xs[:, :, m0 : m0 + k] = at_angles[:k].transpose(1, 2, 0)
            states[0] = states[k]
        if first is None:
            first = xs[:, 0, :].copy()
        pseg = _hann_periodograms(xs, s_dt, sel, spec) / 0.5
        # running sums in segment order: a reduction whose inner loop ran
        # over segments would sum pairwise and round differently
        acc += np.add.accumulate(pseg, axis=1)[:, -1]
        acc2 += np.add.accumulate(np.square(pseg), axis=1)[:, -1]
        done += b
    mean = acc / n_segments
    var = (acc2 - n_segments * mean ** 2) / (n_segments - 1)
    sigma = np.sqrt(np.maximum(var, 0.0) / n_segments)
    return LangevinRun(
        omega=omega,
        psd=mean,
        psd_sigma=sigma,
        thetas=thetas,
        series=first,
        dt=dt,
    )


def _hann_lags(a: np.ndarray, c: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag rows c.a^(tau-1) and Hann lag weights of bin ``k`` for :func:`_hann_lag_sum`.

    Both depend only on the record's dynamics and the plan, so one pair
    serves every vector ``y`` of the same record.  The rows come by
    doubling: O(log n) matrix products instead of a loop over lags.
    """
    rows = c[None, :]
    while rows.shape[0] < n - 1:
        rows = np.vstack([rows, rows @ a])
        a = a @ a
    ww = np.fft.irfft(np.abs(np.fft.rfft(_hann_window(n), 2 * n)) ** 2, 2 * n)[:n]
    lag_weight = ww[1:] / ww[0] * np.cos(2.0 * math.pi * k * np.arange(1, n) / n)
    return rows[: n - 1], lag_weight


def _hann_lag_sum(r0: float, lags: tuple[np.ndarray, np.ndarray], y: np.ndarray) -> float:
    """Expected Hann periodogram bin ``k`` of a length-``n`` sampled record.

    The record's autocovariance, normalized so white shot noise is 1 at
    lag 0, is ``r0`` at lag 0 and ``c.a^(tau-1).y`` at lag tau >= 1, with
    ``lags = _hann_lags(a, c, k, n)``.  The bin is sum_tau r(tau)
    (w*w)(tau) cos(2 pi k tau / n), scaled like the periodogram.
    """
    rows, lag_weight = lags
    return float(r0 + 2.0 * np.dot(rows @ y, lag_weight))


def expected_bin_value(
    model: ResonatorModel,
    steady: SteadyState,
    theta,
    k: int,
    dt: float,
    n_samples: int,
    *,
    eta_total: float = 1.0,
    l: int = 1,
) -> float | np.ndarray:
    """Expected Hann periodogram bin from the analytic spectrum, exactly.

    ``theta`` is one homodyne angle, which gives a float, or a sequence of
    them, which gives an array of one bin per angle.  Everything but the
    angle's own excess spectrum (the pair moments, the block exponential
    and the Hann lag rows) is built once per call, and each angle's value
    has the same bits as a call with that angle alone.

    The above-shot excess of the homodyne spectrum from
    :func:`~squeezesim.spectra.pair_moments` is a two-pole rational
    function: with c = (kappa/2)^2 + delta_l^2 - |g|^2,

        excess(omega) = (p0 + p1 omega^2) / ((c - omega^2)^2 + kappa^2 omega^2),

    so its values at omega = 0 and kappa/2 fix p0 and p1.  Its
    autocovariance E(tau >= 0) solves E'' + kappa E' + c E = 0 from
    E(0) = p0/(2 kappa c) + p1/(2 kappa) and E'(0+) = -p1/2, i.e. it is
    e1.exp(F tau).v with F = [[0, 1], [-c, -kappa]].  One block
    exponential (Van Loan, IEEE TAC 23, 395 (1978)) gives exp(F dt), its
    step integral Psi and double integral Psi2, and the boxcar-sampled
    record then has

        rho(0) = 1 + (2 eta / dt) e1.Psi2.v,
        rho(tau >= 1) = (eta / dt) e1.exp(F dt (tau - 1)).Psi^2.v,

    the white floor staying exactly 1 and detection loss scaling the
    excess only.  These lags go through the Hann lag sum that
    :func:`_exact_bin_value` uses, so aliases and finite-segment leakage
    are included, and at the exceptional point |g| = |delta_l|, where F
    is a Jordan block, the matrix exponential needs no special case.
    Nothing here uses the simulation's step law.
    """
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    _check_bin(thetas, k, dt, n_samples, eta_total)
    pair = pair_moments(model, steady.rho, steady.a0, [0.0, 0.5 * model.kappa], l)
    cov = output_covariance(pair.require_below_threshold())
    # scaled units (kappa = 1) keep the block exponential well conditioned
    c = 0.25 + (float(pair.delta_l) ** 2 - abs(complex(pair.g)) ** 2) / model.kappa ** 2
    s_dt = dt * model.kappa
    blocks = np.zeros((6, 6))
    blocks[:2, :2] = [[0.0, 1.0], [-c, -1.0]]
    blocks[:2, 2:4] = blocks[2:4, 4:] = np.eye(2)
    e = expm(blocks * s_dt)
    phi, psi, psi2 = e[:2, :2], e[:2, 2:4], e[:2, 4:]
    psi_sq = psi @ psi
    scale = eta_total / s_dt
    lags = _hann_lags(phi, np.array([scale, 0.0]), k, n_samples)
    values = []
    for th in thetas:
        excess = homodyne_variance(cov, float(th)) - 1.0
        p0 = excess[0] * c * c
        p1 = 4.0 * (excess[1] * ((c - 0.25) ** 2 + 0.25) - p0)
        # E(0) and E'(0+) of the excess autocovariance
        v = np.array([0.5 * (p0 / c + p1), -0.5 * p1])
        r0 = 1.0 + 2.0 * scale * (psi2 @ v)[0]
        values.append(_hann_lag_sum(r0, lags, psi_sq @ v))
    return values[0] if np.ndim(theta) == 0 else np.array(values)


def _exact_bin_value(
    model: ResonatorModel,
    steady: SteadyState,
    theta: float,
    k: int,
    dt: float,
    n: int,
    *,
    eta_total: float = 1.0,
    l: int = 1,
) -> float:
    """Expected Hann periodogram bin of the record that simulate_pair samples.

    A deterministic oracle for :func:`expected_bin_value` that shares
    only the lag sum with it.  With the step law of :func:`simulate_pair`
    (A = a_rr, stationary P), the record at angle theta is
    x_m = c.r_m + t.v_m, t = (cos, sin) of the frame angle and
    c = t.c_rec.  Its autocovariance is r(0) = c.P.c + t.M_vv.t and
    r(tau >= 1) = c.A^(tau-1).(A.P.c + M_wv.t).  This is the input-output
    relation (Gardiner and Collett, PRA 31, 3761 (1985)) evaluated on the
    sampled record; it draws no random numbers.
    """
    _check_bin((theta,), k, dt, n, eta_total)
    law = _step_law(model, steady, dt, l)
    angle = theta + law.phi_ref
    t = np.array([math.cos(angle), math.sin(angle)])
    c = t @ law.c_rec
    y = law.a_rr @ (law.p0 @ c) + law.cov[:4, 4:] @ t
    # 2 * s_dt * r is 1 for vacuum at lag 0; the loss vacuum is white and
    # adds 1 - eta there only
    scale = eta_total * 2.0 * law.s_dt
    r0 = scale * (c @ law.p0 @ c + t @ law.cov[4:, 4:] @ t) + 1.0 - eta_total
    return _hann_lag_sum(r0, _hann_lags(law.a_rr, scale * c, k, n), y)


def segment_plan(kappa: float, omega: float) -> tuple[float, int]:
    """Time step and segment length for probing the spectrum at ``omega``.

    The bin width is a quarter of the analysis frequency (an eighth
    beyond half the linewidth, where the run is cheap anyway), so
    ``omega`` is bin 4 (or 8).  The step is 5% of the cavity period (4x
    finer for sidebands beyond the linewidth, pushing their aliases
    further out) unless that needs more than 500 steps per segment; then
    the segment has 500 steps and the step is stretched to keep the bin
    width, up to one cavity period 2*pi/kappa (0.8 of it at 0.01 kappa),
    below which (omega < kappa/125) the segment grows instead.  Both
    expected-bin routes are exact at any of these plans; the step only
    sets how many aliases share a bin and what a run costs.
    """
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be positive and finite, got {kappa!r}")
    if not (math.isfinite(omega) and omega > 0.0):
        raise DomainError(
            f"analysis frequency omega must be positive and finite, got {omega!r}"
        )
    period = 2.0 * math.pi / kappa
    dt = 0.05 * period if omega < kappa else 0.0125 * period
    rel_bw = 0.25 if omega < 0.5 * kappa else 0.125
    span = 2.0 * math.pi / rel_bw / omega  # rel_bw is a power of 2: exact
    steps = span / dt
    if not math.isfinite(steps):
        raise DomainError(f"analysis frequency omega={omega!r} is too small to plan")
    n = max(32, int(round(steps)))
    if n > _MAX_SEGMENT_STEPS:
        dt = min(period, span / _MAX_SEGMENT_STEPS)
        n = int(round(span / dt))
    return dt, n


def _bin_plan(kappa: float, omega: float) -> tuple[float, int, int]:
    """(dt, n, k): the segment plan and the bin ``omega`` snaps to."""
    dt, n = segment_plan(kappa, omega)
    k = int(round(omega * n * dt / (2.0 * math.pi)))
    if k < 1 or k > n // 2 - 1:
        raise DomainError(
            f"analysis frequency {omega:g} rad/s does not fit the "
            f"sampling grid (dt={dt:g}, n={n})"
        )
    return dt, n, k


def exact_bin_deviation_db(
    model: ResonatorModel,
    steady: SteadyState,
    omegas,
    thetas=CROSS_CHECK_THETAS,
    *,
    eta_total: float = 1.0,
    l: int = 1,
) -> float:
    """Largest |expected_bin_value / exact discrete bin| in dB over a plan.

    Covers the bins that :func:`cross_validate` checks at the same
    frequencies and angles.  Both routes are exact, one from the analytic
    spectrum and one from the simulation's step law, so this reads at
    rounding level; anything larger means the two descriptions of one
    physical model disagree.  It uses no random numbers.
    """
    worst = 0.0
    for target in np.atleast_1d(np.asarray(omegas, dtype=float)):
        dt, n, k = _bin_plan(model.kappa, float(target))
        for th in np.atleast_1d(np.asarray(thetas, dtype=float)):
            args = (model, steady, float(th), k, dt, n)
            expected = expected_bin_value(*args, eta_total=eta_total, l=l)
            exact = _exact_bin_value(*args, eta_total=eta_total, l=l)
            worst = max(worst, abs(10.0 * math.log10(expected / exact)))
    return worst


@dataclass(frozen=True)
class BinCheck:
    """One frequency/angle comparison between simulation and theory."""

    omega: float
    theta: float
    measured: float
    expected: float
    sigma: float
    z: float
    delta_db: float
    passed: bool


@dataclass(frozen=True)
class CrossValidation:
    """Aggregate z-test of the stochastic engine against the analytics."""

    checks: tuple
    pass_fraction: float
    passed: bool
    n_sigma: float
    max_db_err: float
    min_pass_fraction: float
    n_segments: int
    runtime_s: float


def cross_validate(
    model: ResonatorModel,
    steady: SteadyState,
    omegas,
    thetas=CROSS_CHECK_THETAS,
    *,
    eta_total: float = 1.0,
    l: int = 1,
    n_segments: int = 17000,
    seed: int = 0,
    batch_size: int = 128,
    n_sigma: float = 3.0,
    max_db_err: float = 0.1,
    min_pass_fraction: float = 0.95,
    expected_eta_total: float | None = None,
) -> CrossValidation:
    """Run the stochastic engine at each frequency and z-test the bins.

    Every requested frequency is snapped to the nearest nonzero interior
    bin of its sampling plan (:func:`segment_plan`).  A frequency that is
    not positive and finite, or cannot be represented on the grid, raises
    DomainError before anything is simulated, and so does an empty
    ``omegas`` or ``thetas``.  ``expected_eta_total`` deliberately
    perturbs only the analytic side, which should make the test fail; it
    exists to demonstrate that the comparison has teeth.

    ``BinCheck.sigma`` is the standard error from the scatter of the same
    segments whose mean is tested.  A periodogram bin is exponential, so
    at these segment counts its ``z`` has a heavier left tail than a
    normal variable, and the ``n_sigma`` gate rejects true bins somewhat
    more often than its nominal rate.
    """
    t0 = time.perf_counter()
    exp_eta = eta_total if expected_eta_total is None else expected_eta_total
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.size == 0:
        raise DomainError("cross_validate needs at least one analysis frequency")
    if np.atleast_1d(np.asarray(thetas, dtype=float)).size == 0:
        raise DomainError("cross_validate needs at least one homodyne angle")
    plans = [_bin_plan(model.kappa, float(target)) for target in omegas]
    children = np.random.SeedSequence(seed).spawn(omegas.size)
    checks = []
    for (dt, n, k), child in zip(plans, children):
        run = simulate_pair(
            model,
            steady,
            dt=dt,
            n_samples=n,
            n_segments=n_segments,
            thetas=thetas,
            eta_total=eta_total,
            l=l,
            seed=child,
            batch_size=batch_size,
            bins=(k,),
        )
        expected_bins = expected_bin_value(
            model, steady, run.thetas, k, dt, n, eta_total=exp_eta, l=l
        )
        for i, th in enumerate(run.thetas):
            measured = float(run.psd[i, 0])
            sigma = float(run.psd_sigma[i, 0])
            expected = float(expected_bins[i])
            z = (measured - expected) / sigma
            delta_db = 10.0 * math.log10(measured / expected)
            checks.append(
                BinCheck(
                    omega=float(run.omega[0]),
                    theta=float(th),
                    measured=measured,
                    expected=expected,
                    sigma=sigma,
                    z=z,
                    delta_db=delta_db,
                    passed=abs(z) <= n_sigma and abs(delta_db) <= max_db_err,
                )
            )
    frac = sum(c.passed for c in checks) / len(checks)
    return CrossValidation(
        checks=tuple(checks),
        pass_fraction=frac,
        passed=frac >= min_pass_fraction,
        n_sigma=n_sigma,
        max_db_err=max_db_err,
        min_pass_fraction=min_pass_fraction,
        n_segments=n_segments,
        runtime_s=time.perf_counter() - t0,
    )


def dump_series(path, run: LangevinRun) -> None:
    """Write a run's homodyne record to a self-describing binary file.

    Layout: one ASCII header line terminated by a newline,

        squeezesim-series 1 n_thetas=<k> n_samples=<n> dt=<dt>

    followed by ``n * k`` little-endian float64 values, sample-major
    (sample 0 at every angle, then sample 1, ...).  Values are the
    windowless detected quadrature record, shot noise variance 1/dt.
    """
    series = np.asarray(run.series, dtype=float)
    k, n = series.shape
    header = f"squeezesim-series 1 n_thetas={k} n_samples={n} dt={float(run.dt)!r}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(series.T.astype("<f8").tobytes())


def load_series(path) -> tuple[np.ndarray, float]:
    """Read a dump_series file back as ((n_thetas, n_samples), dt).

    DomainError names the header field, or the payload, that does not
    follow :func:`dump_series`' layout.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise DomainError(f"series header is not ASCII: {line[:80]!r}") from None
    fields = header.split()
    if len(fields) != 5 or fields[0] != "squeezesim-series" or fields[1] != "1":
        raise DomainError(f"not a squeezesim-series v1 file: {header[:80]!r}")
    meta = {}
    for field in fields[2:]:
        key, eq, value = field.partition("=")
        if not eq or key not in ("n_thetas", "n_samples", "dt") or key in meta:
            raise DomainError(
                f"series header field {field!r} is not one of n_thetas=, n_samples=, dt="
            )
        meta[key] = value
    for key in ("n_thetas", "n_samples"):
        if not meta[key].isdigit():
            raise DomainError(f"{key} must be a non-negative integer, got {meta[key]!r}")
    k = int(meta["n_thetas"])
    n = int(meta["n_samples"])
    try:
        dt = float(meta["dt"])
    except ValueError:
        raise DomainError(f"dt must be a number, got {meta['dt']!r}") from None
    _check_dt(dt)
    if len(payload) != 8 * n * k:
        raise DomainError(
            f"payload holds {len(payload)} bytes, header promises {n * k} float64 values"
        )
    data = np.frombuffer(payload, dtype="<f8")
    return data.reshape(n, k).T.copy(), dt
