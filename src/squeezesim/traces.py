"""Swept-wavelength transmission traces of a ring resonator.

Wavelengths in this module are nanometers, the tunable laser's natural
unit; everything else in the package speaks SI.  A single resonance in
the through port follows the all-pass model

    T(delta) = |1 - kappa_e / (i delta + kappa/2)|^2
             = 1 - depth / (1 + (2 delta / kappa)^2),

with delta the detuning from line center in rad/s, taken to first order
in wavelength, and an on-resonance floor T0 = 1 - depth equal to
((kappa_i - kappa_e) / kappa)^2.  The floor fixes |kappa_e - kappa_i|
but not its sign, so every fit carries a coupling regime that is either
asserted by the caller ("overcoupled" is what a squeezer is designed
for) or reported as "ambiguous".

Baseline removal uses a rolling 95th-percentile filter, which rides
over dips and fringes alike.  On noisy data that percentile sits about
1.645 sigma above the true background; the estimated noise level is
subtracted back out so that fitted linewidths stay unbiased.

Dips are the peaks of 1 - T that scipy's ``find_peaks(prominence=p,
width=1, distance=d)`` would return, found with numpy alone: only local
maxima at least p above the trace minimum can reach prominence p, so
bases and widths are computed for those few.  Every dip window is then
fitted at once by one Levenberg-Marquardt over windows padded to a
common length, each summed over its own samples only, on the analytic
Jacobian of the dip model, until the step is at rounding level.
Standard errors are the diagonal of s^2 (J^T J)^-1 at the optimum,
s^2 = SSR / (m - 4), which is what ``curve_fit`` reports with
``absolute_sigma=False``.  Nothing in this module needs scipy.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import C_LIGHT, DomainError, wavelength_to_omega

NM = 1e-9
REGIMES = ("overcoupled", "undercoupled")
REGIME_AMBIGUOUS = "ambiguous"

# Gaussian 95th-percentile z-score, and the median |first difference|
# of unit-variance white noise (sqrt(2) times the half-normal median)
_Z95 = 1.6448536269514722
_DIFF_MEDIAN = 0.9538725524089399


class TraceParseError(DomainError):
    """A trace file violated the CSV schema; message cites the line."""


def dip_transmission(wavelength_nm, center_nm, kappa, depth):
    """One Lorentzian dip of unit baseline: the fit's model in nanometres."""
    lam_m = np.asarray(wavelength_nm, dtype=float) * NM
    return _dip_model_m(lam_m, center_nm * NM, kappa, depth, 1.0)


def resonance_t_min(kappa_e: float, kappa_i: float) -> float:
    """On-resonance power transmission of a single coupled resonance.

    As in :class:`~squeezesim.params.ResonatorModel`, ``kappa_e`` must be
    positive and ``kappa_i`` non-negative.
    """
    kappa = kappa_e + kappa_i
    if not 0.0 < kappa < math.inf:
        raise DomainError("total linewidth must be positive and finite")
    if not kappa_e > 0.0:
        raise DomainError(f"kappa_e must be positive, got {kappa_e}")
    if not kappa_i >= 0.0:
        raise DomainError(f"kappa_i must be non-negative, got {kappa_i}")
    return ((kappa_i - kappa_e) / kappa) ** 2


def fwhm_pm(kappa: float, center_nm: float) -> float:
    """Full width at half depth in picometers."""
    return kappa * (center_nm * NM) ** 2 / (2.0 * math.pi * C_LIGHT) * 1e12


def coupling_rates_from_dip(kappa, t_floor, regime="overcoupled"):
    """Split the total linewidth using the dip floor.

    The floor only pins |kappa_e - kappa_i|; ``regime`` asserts which
    side of critical coupling the device sits on.  Returns
    (kappa_e, kappa_i).
    """
    if regime not in REGIMES:
        raise DomainError(f"regime must be one of {REGIMES}")
    if not 0.0 < kappa < math.inf:
        raise DomainError("kappa must be positive and finite")
    if not 0.0 <= t_floor < 1.0:
        raise DomainError("dip floor must lie in [0, 1)")
    split = math.sqrt(t_floor)
    if regime == "overcoupled":
        kappa_e = 0.5 * kappa * (1.0 + split)
    else:
        kappa_e = 0.5 * kappa * (1.0 - split)
    return kappa_e, kappa - kappa_e


@dataclass(frozen=True)
class ResonanceFit:
    """One fitted dip plus the derived coupling picture."""

    center_nm: float
    fwhm_pm: float
    t_floor: float
    kappa: float
    kappa_e: float
    kappa_i: float
    q_loaded: float
    q_coupling: float
    q_intrinsic: float
    eta: float
    regime: str
    fit_rms: float
    scale: float
    n_samples_fwhm: float
    stderr: tuple


def _assemble_fit(center_nm, kappa, depth, regime, fit_rms, scale, n_fwhm, stderr):
    t_floor = max(0.0, 1.0 - depth)
    split = math.sqrt(t_floor)
    assign = regime if regime in REGIMES else "overcoupled"
    kappa_e, kappa_i = coupling_rates_from_dip(kappa, t_floor, assign)
    # below this split the two assignments are numerically the same dip
    if regime not in REGIMES or split < 1e-4:
        label = REGIME_AMBIGUOUS
    else:
        label = regime
    omega0 = wavelength_to_omega(center_nm * NM)
    return ResonanceFit(
        center_nm=center_nm,
        fwhm_pm=fwhm_pm(kappa, center_nm),
        t_floor=t_floor,
        kappa=kappa,
        kappa_e=kappa_e,
        kappa_i=kappa_i,
        q_loaded=omega0 / kappa,
        q_coupling=omega0 / kappa_e,
        q_intrinsic=(omega0 / kappa_i) if kappa_i > 0.0 else math.inf,
        eta=kappa_e / kappa,
        regime=label,
        fit_rms=fit_rms,
        scale=scale,
        n_samples_fwhm=n_fwhm,
        stderr=stderr,
    )


def _canon(wavelength_nm, transmission):
    lam = np.asarray(wavelength_nm, dtype=float)
    tr = np.asarray(transmission, dtype=float)
    if lam.ndim != 1 or lam.shape != tr.shape:
        raise DomainError("wavelength and transmission must be equal-length 1-d arrays")
    d = np.diff(lam)
    if np.all(d > 0.0):
        return lam, tr, False
    if np.all(d < 0.0):
        return lam[::-1].copy(), tr[::-1].copy(), True
    raise DomainError("wavelength axis must be strictly monotonic")


def _dip_model_m(lam_m, center_m, kappa, depth, scale):
    # abs() keeps LM iterations inside the physical branch; the nuisance
    # amplitude absorbs residual normalization error so that it cannot
    # leak into the linewidth, which trades strongly against any floor
    # offset in a fixed-amplitude fit
    delta = -2.0 * math.pi * C_LIGHT * (lam_m - center_m) / center_m ** 2
    return scale * (1.0 - depth / (1.0 + (2.0 * delta / abs(kappa)) ** 2))


def _dip_jacobian_m(lam_m, center_m, kappa, depth, scale):
    """Analytic partial derivatives of :func:`_dip_model_m` in parameter order."""
    two_pi_c = 2.0 * math.pi * C_LIGHT
    delta = -two_pi_c * (lam_m - center_m) / center_m ** 2
    u = 2.0 * delta / np.abs(kappa)
    q = 1.0 + u * u
    dip = depth / q
    slope = 2.0 * scale * dip * u / q  # d model / d u
    return (
        slope * (2.0 / np.abs(kappa)) * (two_pi_c / center_m ** 2 - 2.0 * delta / center_m),
        -slope * u / kappa,
        -scale / q,
        1.0 - dip,
    )


# Levenberg-Marquardt: a step within 4 eps of every parameter's magnitude
# ends the iteration, and a window still moving after _LM_ITERATIONS fails
_LM_STEP_TOL = 4.0 * np.finfo(float).eps
_LM_ITERATIONS = 100
# padded samples per batch, which bounds the solver's memory
_LM_BATCH = 1 << 16
# a fitted depth below this many of its standard errors is noise, not a dip
_MIN_DEPTH_SIGMAS = 5.0


def _sample_sums(terms, size):
    """Each row's sum over its first ``size`` samples, added in sample order.

    ``np.add.accumulate`` adds strictly in order, whatever the layout, so
    no other row of the batch and no sample past a row's own ``size``
    can change a bit of its sum.  ``terms`` is overwritten.
    """
    return np.add.accumulate(terms, axis=1, out=terms)[np.arange(size.size), size - 1]


def _normal_equations(lam, y, size, p):
    """SSR, diagonal scales d, and the scaled J^T J and J^T r per window.

    ``lam`` and ``y`` are (windows, samples), each row's first ``size``
    samples its own; ``p`` is (4, windows).  The scaling by
    d = sqrt(diag(J^T J)) makes the damping Marquardt's diag(J^T J) and
    leaves a unit diagonal; a window with a zero or non-finite column
    comes back with ``ok`` false.
    """
    jac = _dip_jacobian_m(lam, *p[:, :, None])
    # the model is its scale times d model / d scale
    cols = (*jac, p[3][:, None] * jac[3] - y)
    # the 15 distinct products fill both halves of the symmetric sums
    sums = np.empty((size.size, 5, 5))
    prod = np.empty(lam.shape)
    for i in range(5):
        for j in range(i, 5):
            np.multiply(cols[i], cols[j], out=prod)
            sums[:, i, j] = sums[:, j, i] = _sample_sums(prod, size)
    jtj, jtr, ssr = sums[:, :4, :4], sums[:, :4, 4], sums[:, 4, 4]
    d = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
    ok = np.isfinite(ssr) & np.all(np.isfinite(sums), axis=(1, 2)) & np.all(d > 0.0, axis=1)
    d = np.where(ok[:, None], d, 1.0)
    scaled = np.where(ok[:, None, None], jtj / (d[:, :, None] * d[:, None, :]), np.eye(4))
    return ssr, d, scaled, np.where(ok[:, None], jtr / d, 0.0), ok


def _levenberg_marquardt(lam, y, size, p0):
    """Least-squares dip parameters for every row (window) at once.

    ``lam`` and ``y`` are (windows, samples), each row padded past its
    ``size`` samples; ``p0`` is (4, windows).  Returns the parameters and
    whether each window converged: its step fell to rounding level within
    the iteration cap.
    """
    p = p0.copy()
    mu = np.full(p.shape[1], 1e-3)
    converged = np.zeros(p.shape[1], dtype=bool)
    live = np.arange(p.shape[1])
    for _ in range(_LM_ITERATIONS):
        if live.size == 0:
            break
        lam_l, y_l, size_l = lam[live], y[live], size[live]
        ssr, d, scaled, grad, ok = _normal_equations(lam_l, y_l, size_l, p[:, live])
        damped = scaled + mu[live, None, None] * np.eye(4)
        step = np.linalg.solve(damped, -grad[:, :, None])[:, :, 0].T / d.T
        done = ok & np.all(np.abs(step) <= _LM_STEP_TOL * np.abs(p[:, live]), axis=0)
        trial = p[:, live] + step
        r = _dip_model_m(lam_l, *trial[:, :, None])
        r -= y_l
        r *= r
        better = ok & ~done & (_sample_sums(r, size_l) < ssr)
        p[:, live[better]] = trial[:, better]
        mu[live] = np.where(better, 0.1 * mu[live], 10.0 * mu[live])
        converged[live[done]] = True
        live = live[ok & ~done]
    return p, converged


def _initial_guess(lam, tr):
    """(center, kappa, depth, scale) from the window's minimum and half-depth span."""
    i0 = int(np.argmin(tr))
    scale0 = float(np.percentile(tr, 90))
    depth0 = max(1e-6, 1.0 - tr[i0] / scale0)
    below = np.flatnonzero(tr < scale0 * (1.0 - 0.5 * depth0))
    if below.size >= 2:
        width_m = lam[below[-1]] - lam[below[0]]
    else:
        width_m = 4.0 * float(np.median(np.diff(lam)))
    kappa0 = 2.0 * math.pi * C_LIGHT * width_m / lam[i0] ** 2
    return float(lam[i0]), kappa0, depth0, scale0


def _fit_windows(lam_nm, tr, windows, regime, min_samples_per_fwhm):
    """One :class:`ResonanceFit`, or the DomainError that rejects it, per window.

    ``lam_nm`` ascends; each ``(lo, hi)`` window is fitted on its own, in
    batches of similar length padded to the longest.
    """
    if regime is not None and regime not in REGIMES:
        raise DomainError(f"regime must be None or one of {REGIMES}")
    span = [hi - lo for lo, hi in windows]
    results = [None] * len(windows)
    batches = [[]]
    for k in sorted(range(len(windows)), key=span.__getitem__):
        if span[k] < 8:
            results[k] = DomainError("need at least 8 samples to fit a resonance")
        elif batches[-1] and span[k] * (len(batches[-1]) + 1) > _LM_BATCH:
            batches.append([k])
        else:
            batches[-1].append(k)
    for batch in filter(None, batches):
        fits = _fit_batch(lam_nm, tr, [windows[k] for k in batch], regime,
                          min_samples_per_fwhm)
        for k, fit in zip(batch, fits):
            results[k] = fit
    return results


def _fit_batch(lam_nm, tr, windows, regime, min_samples_per_fwhm):
    lo = np.array([w[0] for w in windows])
    size = np.array([w[1] - w[0] for w in windows])
    offset = np.arange(size.max())
    index = lo[:, None] + np.minimum(offset, size[:, None] - 1)
    lam = lam_nm[index] * NM
    y = tr[index]
    p0 = np.array([_initial_guess(lam[j, :n], y[j, :n]) for j, n in enumerate(size)]).T
    popt, converged = _levenberg_marquardt(lam, y, size, p0)
    # covariance s^2 (J^T J)^-1 at the optimum, s^2 = SSR / (m - 4); through
    # eigh, so that a singular window reads inf instead of failing the batch
    ssr, d, scaled, _, ok = _normal_equations(lam, y, size, popt)
    eigval, eigvec = np.linalg.eigh(scaled)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_diag = np.sum(eigvec ** 2 / np.where(eigval > 0.0, eigval, 0.0)[:, None, :], axis=2)
    err = np.sqrt(ssr / (size - 4.0) * inv_diag.T) / d.T
    return [
        _finish_fit(lam_nm[a:a + n], y[j, :n], popt[:, j], err[:, j],
                    converged[j] and ok[j], regime, min_samples_per_fwhm)
        for j, (a, n) in enumerate(zip(lo, size))
    ]


def _finish_fit(lam_nm, tr, popt, err, converged, regime, min_samples_per_fwhm):
    if not converged:
        return DomainError("resonance fit did not converge")
    lam = lam_nm * NM
    center_m, kappa, depth = float(popt[0]), abs(float(popt[1])), float(popt[2])
    scale = float(popt[3])
    if (not (lam[0] <= center_m <= lam[-1]) or kappa <= 0.0
            or not 0.0 < depth <= 1.2 or not 0.5 < scale < 1.5):
        return DomainError("resonance fit did not converge to a physical dip")
    stderr = (float(err[0]) / NM, float(err[1]), float(err[2]), float(err[3]))
    resid = _dip_model_m(lam, *popt) - tr
    fit_rms = float(np.sqrt(np.mean(resid ** 2)))
    step = float(np.median(np.diff(lam_nm)))
    center_nm = center_m / NM
    n_fwhm = fwhm_pm(kappa, center_nm) * 1e-3 / step
    if n_fwhm < min_samples_per_fwhm:
        return DomainError(
            f"only {n_fwhm:.1f} samples per linewidth, need {min_samples_per_fwhm}"
        )
    if not depth >= _MIN_DEPTH_SIGMAS * stderr[2]:  # a NaN error is no significance
        return DomainError(
            f"dip depth {depth:.3g} is below {_MIN_DEPTH_SIGMAS:g} of its standard "
            f"errors ({stderr[2]:.3g}): noise, not a dip"
        )
    return _assemble_fit(
        center_nm, kappa, min(depth, 1.0), regime, fit_rms, scale, n_fwhm, stderr
    )


def fit_resonance(wavelength_nm, transmission, *, regime="overcoupled",
                  min_samples_per_fwhm=15):
    """Least-squares fit of one dip on a nominally flat background.

    Fits (center, kappa, depth) plus a nuisance amplitude that soaks up
    whatever normalization error the baseline step left behind; depth is
    relative to that local floor, so T0 keeps its meaning.

    The fit is the batched Levenberg-Marquardt that :func:`analyze_trace`
    runs over every dip, here on one window: Marquardt-damped steps on
    the analytic Jacobian of the dip model, repeated until the step is
    at rounding level in every parameter.  ``stderr`` holds the square
    roots of the diagonal of s^2 (J^T J)^-1 at the optimum, with
    s^2 = SSR / (m - 4) over the m samples; the center's is in nm.

    ``regime`` may be "overcoupled", "undercoupled", or None; None (and
    any dip too shallow to tell the two apart) is reported as
    "ambiguous" while the rate fields carry the overcoupled reading.
    Raises DomainError when the fitted linewidth is sampled more
    coarsely than ``min_samples_per_fwhm`` points per FWHM, when the fit
    does not converge, when it runs away from a physical dip, or when the
    fitted depth is below ``_MIN_DEPTH_SIGMAS`` of its standard errors
    (a window of noise).
    """
    lam_nm, tr, _ = _canon(wavelength_nm, transmission)
    (fit,) = _fit_windows(lam_nm, tr, [(0, lam_nm.size)], regime, min_samples_per_fwhm)
    if isinstance(fit, DomainError):
        raise fit
    return fit


@dataclass(frozen=True, eq=False)
class TransmissionTrace:
    """A validated sweep: transmission in [0, 1.05] against wavelength_nm.

    The wavelengths ascend and are finite and positive.  Every trace,
    loaded or built in memory, is checked here; the row scanner repeats
    the checks only to name the offending line.  NaN fails the range
    checks.  A descending input sweep is reversed and
    flagged in metadata under "reversed_input".  Free-form metadata
    (sweep rate, input power, ...) rides along untouched.
    """

    wavelength_nm: np.ndarray
    transmission: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lam, tr, flipped = _canon(self.wavelength_nm, self.transmission)
        if lam.size < 2:
            raise DomainError("a trace needs at least 2 samples")
        # ascending, so the ends bound every sample; NaN fails both tests
        if not (lam[0] > 0.0 and lam[-1] < math.inf):
            raise DomainError("wavelength must be finite and positive")
        if not np.all((tr >= 0.0) & (tr <= 1.05)):
            raise DomainError("transmission must lie in [0, 1.05]")
        meta = dict(self.metadata)
        if flipped:
            meta["reversed_input"] = True
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "transmission", tr)
        object.__setattr__(self, "metadata", meta)

    def __len__(self):
        return self.wavelength_nm.size


_HEADER = ("wavelength_nm", "transmission")


def _header_ok(header) -> bool:
    return tuple(h.strip() for h in header) == _HEADER


# suffixes np.loadtxt opens through a decompressor
_DECOMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _load_trace_fast(path):
    """The trace through ``np.loadtxt``, or None to defer to the scanner.

    None for anything but a regular file (a FIFO is read once, by the
    scanner), on a header the scanner would reject, on any ``loadtxt``
    failure (its empty-input warning included), on other than 2 columns,
    or on data :class:`TransmissionTrace` rejects.  Whatever this
    accepts, :func:`_scan_columns` accepts with the same values.
    ``loadtxt`` is handed the path, not a file object: from a path it
    reads in C, from a file object line by line in Python.  It would
    decompress a path by its suffix, so such a path also goes to the
    scanner, which reads every file as text.
    """
    name = os.path.abspath(os.fsdecode(path))  # absolute, so numpy never takes it for a URL
    try:
        regular = stat.S_ISREG(os.stat(name).st_mode)
    except OSError:  # the scanner's open raises it
        return None
    if not regular or name.endswith(_DECOMPRESSED):
        return None
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        # a quoted newline would make the header more than the one row skipped below
        if header is None or rows.line_num != 1 or not _header_ok(header):
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            data = np.loadtxt(name, delimiter=",", comments=None, skiprows=1, ndmin=2)
        if data.shape[1] != 2:
            return None
        # one contiguous copy of each column, as the scanner returns
        # them; the rows go before the trace is checked
        lam, tr = data[:, 0].copy(), data[:, 1].copy()
        del data
        return TransmissionTrace(lam, tr, {"path": str(path)})
    except (ValueError, UserWarning):  # DomainError is a ValueError
        return None


def _scan_columns(path):
    """Both trace columns, row by row; errors cite the first offending line."""
    lam = []
    tr = []
    last = 1  # the line of the last data row, or the header's
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows)
        except StopIteration:
            raise TraceParseError("line 1: empty file") from None
        if not _header_ok(header):
            raise TraceParseError(
                f"line 1: expected header {','.join(_HEADER)!r}, got {','.join(header)!r}"
            )
        for i, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TraceParseError(f"line {i}: expected 2 fields, got {len(row)}")
            try:
                w = float(row[0])
                t = float(row[1])
            except ValueError:
                raise TraceParseError(f"line {i}: not a number: {row!r}") from None
            if not 0.0 < w < math.inf:
                raise TraceParseError(f"line {i}: wavelength {w!r} is not finite and positive")
            if not 0.0 <= t <= 1.05:
                raise TraceParseError(f"line {i}: transmission {t!r} outside [0, 1.05]")
            # every step points the way the first one does; comparing
            # directions leaves no product of steps to underflow
            if len(lam) == 1:
                rising = w > lam[0]
            if lam and not (w > lam[-1] if rising else w < lam[-1]):
                raise TraceParseError(f"line {i}: wavelength not strictly monotonic")
            lam.append(w)
            tr.append(t)
            last = i
    if len(lam) < 2:
        raise TraceParseError(f"line {last}: need at least 2 data rows")
    return np.array(lam), np.array(tr)


def load_trace(path) -> TransmissionTrace:
    """Read a two-column trace CSV as raw values; parse errors cite line numbers.

    ``np.loadtxt`` reads well-formed files; anything it rejects, or that
    :class:`TransmissionTrace` rejects, goes to the row scanner, which
    accepts what ``csv`` accepts (quoted numbers, say) and names the
    offending line.  Detrending is :func:`normalize_trace`'s job.
    """
    trace = _load_trace_fast(path)
    if trace is None:
        trace = TransmissionTrace(*_scan_columns(path), {"path": str(path)})
    return trace


def save_trace(trace: TransmissionTrace, path) -> None:
    """Round-trips through load_trace bit-identically in values."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for w, t in zip(trace.wavelength_nm, trace.transmission):
            fh.write(f"{float(w)!r},{float(t)!r}\n")


def _local_maxima(x, floor):
    """The local maxima of ``x`` at or above ``floor``, as ``find_peaks`` finds them.

    A maximum is a run of equal samples, touching neither end, whose two
    outer neighbours are lower; a flat top resolves to its left-rounded
    midpoint.  Only 1-byte masks of the trace are made, and index arrays
    of the high samples that rise from their left neighbour or equal
    their right one.  ``x`` has at least three samples (:func:`_find_dips`
    returns before calling this on fewer).
    """
    n = x.size
    rise = x[1:] > x[:-1]
    fall = x[1:] < x[:-1]
    high = x >= floor
    starts = np.flatnonzero(rise[:-1] & high[1:-1]) + 1
    ends = starts.copy()
    level = np.flatnonzero(~(rise | fall) & high[:-1])  # x[i + 1] == x[i]
    if level.size:
        # a top that starts on a level step ends one past its run of steps
        breaks = np.flatnonzero(np.diff(level) != 1)  # last step of each run
        run_last = np.r_[level[breaks], level[-1]]
        at = np.minimum(np.searchsorted(level, starts), level.size - 1)
        on = level[at] == starts
        ends[on] = run_last[np.searchsorted(breaks, at[on])] + 1
    top = ends <= n - 2
    top[top] = fall[ends[top]]
    return (starts[top] + ends[top]) // 2


def _prominences(x, barriers, peaks):
    """``find_peaks`` prominences of ``peaks``, a subset of the local maxima ``barriers``.

    Each base is the minimum between a peak and the nearest strictly
    higher sample on that side, or the trace end.  From that sample the
    trace climbs, never falling, to a local maximum or a trace end, so
    the minimum is the same up to the nearest strictly higher maximum.
    Every such maximum is among the ``barriers`` (all maxima at least as
    high as the lowest peak); a sparse-table search over their heights
    finds it, and one ``np.minimum.reduceat`` per side takes the minima.
    """
    n = x.size
    height = x[barriers]
    table = [height]
    while 2 ** len(table) <= height.size:
        half = 2 ** (len(table) - 1)
        table.append(np.maximum(table[-1][:-half], table[-1][half:]))
    value = x[peaks]
    left = np.searchsorted(barriers, peaks)  # barriers[left - 1] is the next one left
    right = left + 1  # barriers[right] is the next one right
    for level in range(len(table) - 1, -1, -1):
        span = 2 ** level
        jump = left >= span
        jump[jump] = table[level][left[jump] - span] <= value[jump]
        left[jump] -= span
        jump = right + span <= height.size
        jump[jump] = table[level][right[jump]] <= value[jump]
        right[jump] += span
    edges = np.empty(2 * peaks.size, dtype=np.intp)
    edges[0::2] = np.where(left > 0, barriers[np.maximum(left - 1, 0)] + 1, 0)
    edges[1::2] = peaks + 1
    left_min = np.minimum.reduceat(x, edges)[0::2]
    open_right = right == height.size
    edges[0::2] = peaks
    edges[1::2] = np.where(open_right, n - 1, barriers[np.minimum(right, height.size - 1)])
    right_min = np.minimum.reduceat(x, edges)[0::2]
    right_min[open_right] = np.minimum(right_min[open_right], x[-1])
    return value - np.maximum(left_min, right_min)


def _half_crossings(x, peaks, height, side):
    """Where ``x`` falls to ``height`` from each peak toward ``side`` (-1 or 1).

    The first sample at or below ``height``, in fractional samples: when
    it lies below, the edge moves toward the peak by linear interpolation
    to the sample before it.  The base lies at or below the
    half-prominence height, so the search, in windows that double,
    always ends inside the base.
    """
    found_at = np.full(peaks.size, 0 if side < 0 else x.size - 1)
    todo = np.arange(peaks.size)
    near, far = 0, 16
    while todo.size and near < x.size:
        index = np.clip(peaks[todo, None] + side * np.arange(near, far), 0, x.size - 1)
        hit = x[index] <= height[todo, None]
        found = hit.any(axis=1)
        found_at[todo[found]] = index[found, hit[found].argmax(axis=1)]
        todo = todo[~found]
        near, far = far, 2 * far
    edge = found_at.astype(float)
    below = x[found_at] < height
    i = found_at[below]
    edge[below] -= side * (height[below] - x[i]) / (x[i - side] - x[i])
    return edge


def _select_by_distance(peaks, order, distance):
    """``find_peaks``' distance rule: visiting ``order``, each kept peak drops its near neighbours."""
    lo = np.searchsorted(peaks, peaks - distance + 1)
    hi = np.searchsorted(peaks, peaks + distance - 1, side="right")
    keep = np.ones(peaks.size, dtype=bool)
    for j in order.tolist():
        if keep[j]:
            keep[lo[j]:hi[j]] = False
            keep[j] = True
    return keep


def _find_dips(x, prominence, distance=None):
    """Peak indices and widths of ``find_peaks(x, prominence=, width=1, distance=)``.

    A peak's prominence cannot exceed its height above min(x), so only
    local maxima at or above min(x) + ``prominence`` are candidates; the
    floor sits a few ulps lower so rounding cannot drop one, and the
    exact prominence test follows.  Widths are scipy's: the span at half
    prominence, linearly interpolated between samples, kept when >= 1.
    ``distance`` is applied first, to the highest peaks first.  Ties
    follow ``np.argsort`` over every local maximum's height, as in
    scipy (an unstable sort orders ties differently on a subset), so
    that path lists the low maxima too; they sort below every candidate,
    so they cannot change which candidates it keeps.
    """
    x = np.asarray(x, dtype=float)
    no_dips = np.empty(0, dtype=np.intp), np.empty(0)
    if x.size < 3:
        return no_dips
    lowest = float(np.min(x))
    floor = lowest + prominence - 4.0 * np.spacing(abs(lowest) + abs(prominence))
    if distance is None:
        candidates = peaks = _local_maxima(x, floor)
    else:
        every = _local_maxima(x, -np.inf)
        heights = x[every]
        high = heights >= floor
        candidates = every[high]
        rank = np.cumsum(high) - 1
        order = rank[np.argsort(heights)[every.size - candidates.size:][::-1]]
        peaks = candidates[_select_by_distance(candidates, order, math.ceil(distance))]
    if peaks.size == 0:
        return no_dips
    prom = _prominences(x, candidates, peaks)
    keep = prom >= prominence
    peaks, prom = peaks[keep], prom[keep]
    height = x[peaks] - prom * 0.5
    widths = _half_crossings(x, peaks, height, 1) - _half_crossings(x, peaks, height, -1)
    keep = widths >= 1.0
    return peaks[keep], widths[keep]


def _edge_padded(x, window, peaks=(), widths=()):
    """``x`` edge-padded for :func:`_rolling_p95`, its dips bridged first.

    :func:`_bridge_dips` works on the middle of the padded buffer, so
    the trace is copied once.
    """
    n = x.size
    left = window // 2
    padded = np.empty(n + window - 1)
    middle = padded[left:left + n]
    middle[...] = x
    _bridge_dips(middle, peaks, widths, window)
    padded[:left] = middle[0]
    padded[left + n:] = middle[-1]
    return padded


def _rolling_p95(padded, window, out):
    """Rolling 95th percentile of ``padded`` into ``out``; see :func:`_edge_padded`.

    Output i is the int(window * 95 / 100)-th smallest sample (counting
    from 0) of ``padded[i:i + window]``, where the trace is edge-padded
    by window // 2 samples on the left and window - 1 - window // 2 on
    the right, so an even window reaches one sample further left than
    right.  This is scipy's ``percentile_filter(percentile=95,
    mode="nearest")`` sample for sample.

    Windows run in chunks of more than ``window`` outputs, whose
    samples fill a power of two of at least 2**14.  Each chunk is a
    wavelet matrix over the ranks of its samples: one pass per rank bit,
    from the top, counts every window's zero bits by a prefix sum, steps
    each window into the zero or the one half by its remaining rank, and
    stably partitions the ranks by that bit for the next pass.
    """
    n = out.size
    rank = int(float(window) * 95 / 100.0)
    chunk = 2 ** max(14, (2 * window - 1).bit_length()) - (window - 1)
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        vals = padded[start:start + c + window - 1]
        m = vals.size
        order = np.argsort(vals).astype(np.int32)
        a = np.empty(m, np.int32)
        a[order] = np.arange(m, dtype=np.int32)
        spare = np.empty_like(a)
        zeros = np.zeros(m + 1, np.int32)
        one = np.empty(m, bool)
        zero = np.empty(m, bool)
        # rows: the first and one past the last sample of each window
        q = np.arange(c, dtype=np.int32) + np.array([[0], [window]], np.int32)
        zq = np.empty_like(q)
        k = np.full(c, rank, np.int32)
        count = np.empty(c, np.int32)
        go = np.empty(c, bool)
        for level in range((m - 1).bit_length() - 1, -1, -1):
            np.bitwise_and(a, 1 << level, out=spare)
            np.not_equal(spare, 0, out=one)
            np.logical_not(one, out=zero)
            np.cumsum(zero, out=zeros[1:])
            nz = zeros[m]
            zeros.take(q, out=zq, mode="wrap")  # in range; "wrap" skips a buffer
            np.subtract(zq[1], zq[0], out=count)
            # the k-th smallest lies among the ones when k >= the zeros
            np.greater_equal(k, count, out=go)
            count *= go
            k -= count
            # a window's zeros go to [zeros[lo], zeros[hi]), its ones
            # to [nz + lo - zeros[lo], nz + hi - zeros[hi])
            q -= zq
            q += nz
            q -= zq
            q *= go
            q += zq
            np.compress(zero, a, out=spare[:nz])
            np.compress(one, a, out=spare[nz:])
            a, spare = spare, a
        # each window's range now holds the one sample of its k-th rank
        out[start:start + c] = vals[order[a.take(q[0])]]
    return out


def _baseline(padded, window):
    """Rolling 95th-percentile background of the samples that :func:`_edge_padded` padded.

    With additive noise the raw percentile (:func:`_rolling_p95`) sits
    about 1.645 sigma above the true background; that offset is
    subtracted using a robust noise estimate from first differences.
    The noise estimate sorts the first differences in the output buffer
    before the percentile fills it, so no other n-sized array is made.
    """
    n = padded.size - window + 1
    x = padded[window // 2:][:n]
    out = np.empty(n)
    diff = np.subtract(x[1:], x[:-1], out=out[:-1])
    np.absolute(diff, out=diff)
    sigma = float(np.median(diff, overwrite_input=True)) / _DIFF_MEDIAN
    _rolling_p95(padded, window, out)
    out -= _Z95 * sigma
    return out


def _bridge_dips(filled, peaks, widths, reach):
    """Replace each dip and its surroundings by a straight line, in place.

    The percentile filter would otherwise sag wherever a dip fills most
    of its window.  The bridge spans the filter's whole reach so the
    seam between bridged and raw samples stays outside the region any
    fit will use, and it anchors on shoulder averages far enough out
    that the Lorentzian wing underneath is negligible.
    """
    n = filled.size
    for idx, w in zip(peaks, widths):
        pad = max(3, int(round(w)))
        half = reach + pad
        lo = max(0, idx - half)
        hi = min(n, idx + half + 1)
        left = filled[max(0, lo - pad):lo]
        right = filled[hi:hi + pad]
        if left.size == 0 and right.size == 0:
            continue
        a = float(np.mean(left)) if left.size else float(np.mean(right))
        b = float(np.mean(right)) if right.size else float(np.mean(left))
        filled[lo:hi] = np.linspace(a, b, hi - lo)


def normalize_trace(trace: TransmissionTrace, *, prominence=0.05):
    """Divide out the rolling-percentile baseline; idempotent.

    The window spans ten median dip widths (odd, at least 15 samples and
    at most the whole trace), or the whole trace when no dip reaches
    ``prominence``.
    """
    if trace.metadata.get("normalized"):
        return trace
    tr = trace.transmission
    if tr.size < 3:
        raise DomainError(f"cannot detrend a trace of {tr.size} samples, need at least 3")
    peaks, widths = _find_dips(1.0 - tr, prominence)
    window = tr.size
    if peaks.size:
        window = min(tr.size, max(15, int(round(10.0 * float(np.median(widths)))) | 1))
    # features narrower than the window are resonances the filter must
    # ignore; anything wider (fringes) is background it has to track
    narrow = widths <= window
    norm = _baseline(_edge_padded(tr, window, peaks[narrow], widths[narrow]), window)
    np.divide(tr, norm, out=norm)
    np.minimum(norm, 1.05, out=norm)
    return TransmissionTrace(
        trace.wavelength_nm, norm,
        {**trace.metadata, "normalized": True, "baseline_window": window},
    )


def detect_resonances(trace: TransmissionTrace, min_prominence=0.05,
                      min_spacing_nm=0.0):
    """Candidate dip windows as (lo, hi) index pairs, deterministic.

    Each window reaches max(10, round(6 w)) samples either side of its
    dip, w the dip's width at half prominence, and stops at the trace
    ends and short of the midpoint to each neighbouring dip.  A flat
    trace, or a prominence floor above the deepest dip, yields an empty
    list.
    """
    lam = trace.wavelength_nm
    tr = trace.transmission
    distance = None
    if min_spacing_nm > 0.0:
        step = float(np.median(np.diff(lam)))
        distance = max(1, int(round(min_spacing_nm / step)))
    peaks, widths = _find_dips(1.0 - tr, min_prominence, distance)
    half = np.maximum(10, np.round(6.0 * widths).astype(np.intp))
    lo = np.maximum(0, peaks - half)
    hi = np.minimum(lam.size, peaks + half + 1)
    mid = (peaks[:-1] + peaks[1:]) // 2
    lo[1:] = np.maximum(lo[1:], mid + 1)
    hi[:-1] = np.minimum(hi[:-1], mid)
    return list(zip(lo.tolist(), hi.tolist()))


@dataclass(frozen=True, eq=False)
class TraceReport:
    trace: TransmissionTrace
    resonances: tuple
    fsr_hz: float | None
    n_detected: int
    n_rejected: int


def estimate_fsr(centers_nm) -> float:
    """Median optical-frequency spacing of adjacent resonance centers.

    The median makes a single spurious or missed center harmless."""
    lam = np.sort(np.asarray(centers_nm, dtype=float))
    if lam.size < 3:
        raise DomainError("need at least 3 resonance centers to estimate an FSR")
    nu = C_LIGHT / (lam * NM)
    return float(np.median(np.abs(np.diff(nu))))


def analyze_trace(trace: TransmissionTrace, *, detrend=True, min_prominence=0.05,
                  min_spacing_nm=0.0, regime="overcoupled",
                  min_samples_per_fwhm=15) -> TraceReport:
    """Detect and fit every dip, then estimate the FSR when possible.

    All windows go through one batched fit (see :func:`fit_resonance`).
    Dips whose fit fails the sampling precondition, does not converge,
    lands on an unphysical dip or on a depth indistinguishable from noise
    count in ``n_rejected`` instead of aborting the trace.
    """
    if detrend:
        trace = normalize_trace(trace, prominence=min_prominence)
    windows = detect_resonances(trace, min_prominence, min_spacing_nm)
    results = _fit_windows(trace.wavelength_nm, trace.transmission, windows,
                           regime, min_samples_per_fwhm)
    fits = [fit for fit in results if not isinstance(fit, DomainError)]
    rejected = len(results) - len(fits)
    fsr = None
    if len(fits) >= 3:
        fsr = estimate_fsr([f.center_nm for f in fits])
    return TraceReport(
        trace=trace,
        resonances=tuple(fits),
        fsr_hz=fsr,
        n_detected=len(windows),
        n_rejected=rejected,
    )


@dataclass(frozen=True)
class QuantitySummary:
    """Histogram of one fitted quantity over its finite values.

    ``mode`` is the centre of the tallest bin.  When several bins share
    the largest count (as when no bin holds two fits), it is the one
    whose centre is nearest the median of the values.  When the values
    span at most ``1e-12 * max(1, max|v|)``, ``mode`` is the first of them.
    """

    mode: float
    min: float
    max: float
    counts: tuple
    bin_edges: tuple


@dataclass(frozen=True)
class QStatistics:
    q_intrinsic: QuantitySummary
    q_loaded: QuantitySummary
    q_coupling: QuantitySummary
    eta: QuantitySummary
    n_fits: int


def _summarize(values, bins):
    v = np.asarray(values, dtype=float)
    v = v[np.isfinite(v)]
    if v.size == 0:
        return QuantitySummary(math.nan, math.nan, math.nan, (), ())
    counts, edges = np.histogram(v, bins=bins)
    if np.ptp(v) <= 1e-12 * max(1.0, float(np.max(np.abs(v)))):
        mode = float(v[0])
    else:
        tallest = np.flatnonzero(counts == counts.max())
        centres = 0.5 * (edges[tallest] + edges[tallest + 1])
        k = int(tallest[np.argmin(np.abs(centres - np.median(v)))])
        mode = 0.5 * float(edges[k] + edges[k + 1])
    return QuantitySummary(
        mode=mode,
        min=float(np.min(v)),
        max=float(np.max(v)),
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
    )


def q_statistics(fits, bins=15) -> QStatistics:
    """Histogram summary of the loaded/intrinsic/coupling Q's and eta."""
    fits = list(fits)
    if not fits:
        raise DomainError("need at least one fit")
    return QStatistics(
        q_intrinsic=_summarize([f.q_intrinsic for f in fits], bins),
        q_loaded=_summarize([f.q_loaded for f in fits], bins),
        q_coupling=_summarize([f.q_coupling for f in fits], bins),
        eta=_summarize([f.eta for f in fits], bins),
        n_fits=len(fits),
    )


def synthesize_trace(wavelength_nm, dips, *, baseline=None, noise_rms=0.0,
                     seed=None):
    """Transmission array from (center_nm, kappa, t_floor) triples.

    Dips multiply, ``baseline`` (callable of wavelength or array) scales
    the result, and noise is additive white Gaussian with a
    deterministic seed.  Returns a bare array so that fixtures violating
    the trace invariants (deep dips plus noise) can still be built.
    DomainError names a center that is not finite, a kappa that is not
    positive and finite, a floor outside [0, 1) and a ``noise_rms`` that
    is negative or not finite.
    """
    if not 0.0 <= noise_rms < math.inf:
        raise DomainError(f"noise_rms must be non-negative and finite, got {noise_rms}")
    lam = np.asarray(wavelength_nm, dtype=float)
    tr = np.ones_like(lam)
    for center_nm, kappa, t_floor in dips:
        if not 0.0 <= t_floor < 1.0:
            raise DomainError("dip floor must lie in [0, 1)")
        if not 0.0 < kappa < math.inf:
            raise DomainError(f"dip kappa must be positive and finite, got {kappa}")
        if not math.isfinite(center_nm):
            raise DomainError(f"dip center_nm must be finite, got {center_nm}")
        tr *= dip_transmission(lam, center_nm, kappa, 1.0 - t_floor)
    if baseline is not None:
        tr = tr * (baseline(lam) if callable(baseline) else np.asarray(baseline, float))
    if noise_rms > 0.0:
        tr = tr + np.random.default_rng(seed).normal(0.0, noise_rms, lam.shape)
    return tr
