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
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import C_LIGHT, DomainError

NM = 1e-9
REGIMES = ("overcoupled", "undercoupled")
REGIME_AMBIGUOUS = "ambiguous"

# Gaussian 95th-percentile z-score, and the median |first difference|
# of unit-variance white noise (sqrt(2) times the half-normal median)
_Z95 = 1.6448536269514722
_DIFF_MEDIAN = 0.9538725524089399


class TraceParseError(ValueError):
    """A trace file violated the CSV schema; message cites the line."""


def detuning_rad_s(wavelength_nm, center_nm):
    """First-order detuning from line center, -2 pi c dlam / lam0^2."""
    lam = np.asarray(wavelength_nm, dtype=float)
    lc_m = center_nm * NM
    return -2.0 * math.pi * C_LIGHT * (lam - center_nm) * NM / lc_m ** 2


def dip_transmission(wavelength_nm, center_nm, kappa, depth):
    delta = detuning_rad_s(wavelength_nm, center_nm)
    return 1.0 - depth / (1.0 + (2.0 * delta / kappa) ** 2)


def resonance_t_min(kappa_e: float, kappa_i: float) -> float:
    """On-resonance power transmission of a single coupled resonance."""
    kappa = kappa_e + kappa_i
    if kappa <= 0.0:
        raise DomainError("total linewidth must be positive")
    return ((kappa_i - kappa_e) / kappa) ** 2


def fwhm_pm(kappa: float, center_nm: float) -> float:
    """Full width at half depth in picometers."""
    return kappa * (center_nm * NM) ** 2 / (2.0 * math.pi * C_LIGHT) * 1e12


def kappa_from_fwhm(width_pm: float, center_nm: float) -> float:
    return 2.0 * math.pi * C_LIGHT * width_pm * 1e-12 / (center_nm * NM) ** 2


def coupling_rates_from_dip(kappa, t_floor, regime="overcoupled"):
    """Split the total linewidth using the dip floor.

    The floor only pins |kappa_e - kappa_i|; ``regime`` asserts which
    side of critical coupling the device sits on.  Returns
    (kappa_e, kappa_i).
    """
    if regime not in REGIMES:
        raise DomainError(f"regime must be one of {REGIMES}")
    if kappa <= 0.0:
        raise DomainError("kappa must be positive")
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

    def alternate(self) -> "ResonanceFit":
        """The same dip under the swapped coupling assignment."""
        swap = {"overcoupled": "undercoupled", "undercoupled": "overcoupled"}
        if self.regime in swap:
            prior = swap[self.regime]
        else:
            # ambiguous: hand back the undercoupled reading of the pair
            prior = "undercoupled" if self.kappa_e >= self.kappa_i else "overcoupled"
        return _assemble_fit(
            self.center_nm, self.kappa, 1.0 - self.t_floor, prior, self.fit_rms,
            self.scale, self.n_samples_fwhm, self.stderr, force_regime=prior,
        )


def _assemble_fit(center_nm, kappa, depth, regime, fit_rms, scale, n_fwhm,
                  stderr, force_regime=None):
    t_floor = max(0.0, 1.0 - depth)
    split = math.sqrt(t_floor)
    assign = regime if regime in REGIMES else "overcoupled"
    kappa_e, kappa_i = coupling_rates_from_dip(kappa, t_floor, assign)
    # below this split the two assignments are numerically the same dip
    if force_regime is not None:
        label = force_regime
    elif regime not in REGIMES or split < 1e-4:
        label = REGIME_AMBIGUOUS
    else:
        label = regime
    omega0 = 2.0 * math.pi * C_LIGHT / (center_nm * NM)
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


def fit_resonance(wavelength_nm, transmission, *, regime="overcoupled",
                  min_samples_per_fwhm=15):
    """Least-squares fit of one dip on a nominally flat background.

    Fits (center, kappa, depth) plus a nuisance amplitude that soaks up
    whatever normalization error the baseline step left behind; depth is
    relative to that local floor, so T0 keeps its meaning.

    ``regime`` may be "overcoupled", "undercoupled", or None; None (and
    any dip too shallow to tell the two apart) is reported as
    "ambiguous" while the rate fields carry the overcoupled reading.
    Raises DomainError when the fitted linewidth is sampled more
    coarsely than ``min_samples_per_fwhm`` points per FWHM or when the
    fit runs away from a physical dip.
    """
    from scipy.optimize import curve_fit

    if regime is not None and regime not in REGIMES:
        raise DomainError(f"regime must be None or one of {REGIMES}")
    lam_nm, tr, _ = _canon(wavelength_nm, transmission)
    if lam_nm.size < 8:
        raise DomainError("need at least 8 samples to fit a resonance")
    lam = lam_nm * NM
    i0 = int(np.argmin(tr))
    scale0 = float(np.percentile(tr, 90))
    depth0 = max(1e-6, 1.0 - tr[i0] / scale0)
    below = np.flatnonzero(tr < scale0 * (1.0 - 0.5 * depth0))
    if below.size >= 2:
        width_m = lam[below[-1]] - lam[below[0]]
    else:
        width_m = 4.0 * float(np.median(np.diff(lam)))
    kappa0 = 2.0 * math.pi * C_LIGHT * width_m / lam[i0] ** 2
    p0 = (float(lam[i0]), kappa0, depth0, scale0)
    popt, pcov = curve_fit(
        _dip_model_m, lam, tr, p0=p0, xtol=1e-14, ftol=1e-14, maxfev=20000,
    )
    center_m, kappa, depth = float(popt[0]), abs(float(popt[1])), float(popt[2])
    scale = float(popt[3])
    if (not (lam[0] <= center_m <= lam[-1]) or kappa <= 0.0
            or not 0.0 < depth <= 1.2 or not 0.5 < scale < 1.5):
        raise DomainError("resonance fit did not converge to a physical dip")
    with np.errstate(invalid="ignore"):
        err = np.sqrt(np.diag(pcov))
    stderr = (float(err[0]) / NM, float(err[1]), float(err[2]), float(err[3]))
    resid = _dip_model_m(lam, *popt) - tr
    fit_rms = float(np.sqrt(np.mean(resid ** 2)))
    step = float(np.median(np.diff(lam_nm)))
    center_nm = center_m / NM
    n_fwhm = fwhm_pm(kappa, center_nm) * 1e-3 / step
    if n_fwhm < min_samples_per_fwhm:
        raise DomainError(
            f"only {n_fwhm:.1f} samples per linewidth, need {min_samples_per_fwhm}"
        )
    return _assemble_fit(
        center_nm, kappa, min(depth, 1.0), regime, fit_rms, scale, n_fwhm, stderr
    )


@dataclass(frozen=True, eq=False)
class TransmissionTrace:
    """A validated sweep: ascending wavelength_nm, transmission in [0, 1.05].

    Every trace, loaded or built in memory, is checked here; the row
    scanner repeats the checks only to name the offending line.  NaN
    fails the range check.  A descending input sweep is reversed and
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


def _sample_line(k: int, blank_lines) -> int:
    """File line of data sample ``k`` (-1 is the header), skipped blanks counted."""
    line = k + 2
    for blank in blank_lines:
        if blank > line:
            break
        line += 1
    return line


def _header_ok(header) -> bool:
    return tuple(h.strip() for h in header) == _HEADER


def _load_trace_fast(path):
    """The trace through ``np.loadtxt``, or None to defer to the scanner.

    None on a header the scanner would reject, on any ``loadtxt``
    failure (its empty-input warning included), on other than 2 columns,
    or on data :class:`TransmissionTrace` rejects.  Whatever this
    accepts, :func:`_scan_columns` accepts with the same values.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or not _header_ok(header):
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            # unpacking fails unless there are 2 columns; the copy makes
            # them contiguous, as the scanner returns them
            lam, tr = data.T.copy()
            return TransmissionTrace(lam, tr, {"path": str(path)})
        except (ValueError, UserWarning):  # DomainError is a ValueError
            return None


def _scan_columns(path):
    """Both trace columns, row by row; errors cite the offending line."""
    lam = []
    tr = []
    blank_lines = []
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
                blank_lines.append(i)
                continue
            if len(row) != 2:
                raise TraceParseError(f"line {i}: expected 2 fields, got {len(row)}")
            try:
                w = float(row[0])
                t = float(row[1])
            except ValueError:
                raise TraceParseError(f"line {i}: not a number: {row!r}") from None
            if not 0.0 <= t <= 1.05:
                raise TraceParseError(f"line {i}: transmission {t!r} outside [0, 1.05]")
            lam.append(w)
            tr.append(t)
    if len(lam) < 2:
        line = _sample_line(len(lam) - 1, blank_lines)
        raise TraceParseError(f"line {line}: need at least 2 data rows")
    d = np.diff(lam)
    if not (np.all(d > 0.0) or np.all(d < 0.0)):
        # "not > 0" rather than "<= 0", so a NaN wavelength is caught too
        bad = int(np.flatnonzero(~(d * (1.0 if d[0] > 0.0 else -1.0) > 0.0))[0])
        line = _sample_line(bad + 1, blank_lines)
        raise TraceParseError(f"line {line}: wavelength not strictly monotonic")
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


def rolling_baseline(transmission, window: int):
    """Rolling 95th-percentile background; window is in samples.

    With additive noise the raw percentile sits about 1.645 sigma above
    the true background; that offset is subtracted using a robust noise
    estimate from first differences.
    """
    from scipy.ndimage import percentile_filter

    if window < 3:
        raise DomainError("baseline window must span at least 3 samples")
    tr = np.asarray(transmission, dtype=float)
    base = percentile_filter(tr, percentile=95, size=int(window), mode="nearest")
    sigma = float(np.median(np.abs(np.diff(tr)))) / _DIFF_MEDIAN
    return base - _Z95 * sigma


def _bridge_dips(tr, peaks, widths, reach):
    """Replace each dip and its surroundings by a straight line.

    The percentile filter would otherwise sag wherever a dip fills most
    of its window.  The bridge spans the filter's whole reach so the
    seam between bridged and raw samples stays outside the region any
    fit will use, and it anchors on shoulder averages far enough out
    that the Lorentzian wing underneath is negligible.
    """
    filled = tr.copy()
    n = tr.size
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
    return filled


def normalize_trace(trace: TransmissionTrace, *, prominence=0.05):
    """Divide out the rolling-percentile baseline; idempotent.

    The window spans ten median dip widths (odd, at least 15 samples and
    at most the whole trace), or the whole trace when no dip reaches
    ``prominence``.
    """
    from scipy.signal import find_peaks

    if trace.metadata.get("normalized"):
        return trace
    tr = trace.transmission
    if tr.size < 3:
        raise DomainError(f"cannot detrend a trace of {tr.size} samples, need at least 3")
    peaks, props = find_peaks(1.0 - tr, prominence=prominence, width=1)
    widths = props["widths"]
    window = tr.size
    if peaks.size:
        window = min(tr.size, max(15, int(round(10.0 * float(np.median(widths)))) | 1))
    # features narrower than the window are resonances the filter must
    # ignore; anything wider (fringes) is background it has to track
    narrow = widths <= window
    bridged = _bridge_dips(tr, peaks[narrow], widths[narrow], window)
    base = rolling_baseline(bridged, window)
    norm = np.minimum(tr / base, 1.05)
    return TransmissionTrace(
        trace.wavelength_nm, norm,
        {**trace.metadata, "normalized": True, "baseline_window": window},
    )


def detect_resonances(trace: TransmissionTrace, min_prominence=0.05,
                      min_spacing_nm=0.0):
    """Candidate dip windows as (lo, hi) index pairs, deterministic.

    A flat trace, or a prominence floor above the deepest dip, yields
    an empty list.
    """
    from scipy.signal import find_peaks

    lam = trace.wavelength_nm
    tr = trace.transmission
    distance = None
    if min_spacing_nm > 0.0:
        step = float(np.median(np.diff(lam)))
        distance = max(1, int(round(min_spacing_nm / step)))
    peaks, props = find_peaks(
        1.0 - tr, prominence=min_prominence, width=1, distance=distance
    )
    windows = []
    n = lam.size
    for j, idx in enumerate(peaks):
        half = max(10, int(round(6.0 * props["widths"][j])))
        lo = idx - half
        hi = idx + half + 1
        if j > 0:
            lo = max(lo, (idx + peaks[j - 1]) // 2 + 1)
        if j + 1 < peaks.size:
            hi = min(hi, (idx + peaks[j + 1]) // 2)
        windows.append((max(0, lo), min(n, hi)))
    return windows


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

    Dips whose fit fails the sampling precondition, or does not
    converge, count in ``n_rejected`` instead of aborting the trace.
    """
    if detrend:
        trace = normalize_trace(trace, prominence=min_prominence)
    windows = detect_resonances(trace, min_prominence, min_spacing_nm)
    fits = []
    rejected = 0
    for lo, hi in windows:
        if hi - lo < 8:
            rejected += 1
            continue
        try:
            fits.append(fit_resonance(
                trace.wavelength_nm[lo:hi], trace.transmission[lo:hi],
                regime=regime, min_samples_per_fwhm=min_samples_per_fwhm,
            ))
        except (DomainError, RuntimeError):
            rejected += 1
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
    mode: float
    minimum: float
    maximum: float
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
        k = int(np.argmax(counts))
        mode = 0.5 * float(edges[k] + edges[k + 1])
    return QuantitySummary(
        mode=mode,
        minimum=float(np.min(v)),
        maximum=float(np.max(v)),
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
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    tr = np.ones_like(lam)
    for center_nm, kappa, t_floor in dips:
        if not 0.0 <= t_floor < 1.0:
            raise DomainError("dip floor must lie in [0, 1)")
        tr *= dip_transmission(lam, center_nm, kappa, 1.0 - t_floor)
    if baseline is not None:
        tr = tr * (baseline(lam) if callable(baseline) else np.asarray(baseline, float))
    if noise_rms > 0.0:
        tr = tr + np.random.default_rng(seed).normal(0.0, noise_rms, lam.shape)
    return tr
