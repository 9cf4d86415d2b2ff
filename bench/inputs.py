"""Seeded inputs of the benchmark and the independent references its checks use.

Everything here is made from the workload seed and fixed constants.  The
transmission trace is written from the all-pass Lorentzian formula itself,
not through ``squeezesim.traces``, so the input stays the same when the
program changes.  This module imports numpy only; squeezesim is imported by
the workloads, after the set-up clock has started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299792458.0

# swept trace: one 59.3 GHz comb of reference-device resonances
TRACE_SPAN_NM = (1510.0, 1610.0)
TRACE_SAMPLES = 1_000_001
TRACE_EDGE_NM = 0.05  # no resonance closer than this to either end
TRACE_FSR_HZ = 59.3e9
TRACE_Q_INTRINSIC = 10.1e6
TRACE_Q_LOADED = 0.83e6
TRACE_NOISE_RMS = 0.005
TRACE_REACH_NM = 0.5  # each dip is written out to +-0.5 nm (>250 linewidths)
CSV_SLICE_ROWS = 50_000


@dataclass(frozen=True)
class CombTrace:
    wavelength_nm: np.ndarray
    transmission: np.ndarray
    centers_nm: np.ndarray
    kappa: np.ndarray  # generated total linewidth of each dip, rad/s


def comb_trace(seed: int, *, kappa_scale: float = 1.0) -> CombTrace:
    """Swept transmission of a resonance comb with additive white noise.

    The comb's offset inside one FSR and the noise come from ``seed``.
    ``kappa_scale`` widens every dip; the benchmark's own tests use it to
    show that the fit check rejects a trace made with another linewidth.
    """
    rng = np.random.default_rng([seed, 1])
    lo_nm, hi_nm = TRACE_SPAN_NM
    samples = TRACE_SAMPLES
    lam = np.linspace(lo_nm, hi_nm, samples)
    nu_lo = C_LIGHT / ((hi_nm - TRACE_EDGE_NM) * 1e-9)
    nu_hi = C_LIGHT / ((lo_nm + TRACE_EDGE_NM) * 1e-9)
    nu = nu_lo + TRACE_FSR_HZ * (rng.uniform(0.0, 1.0) + np.arange(int((nu_hi - nu_lo) / TRACE_FSR_HZ) + 1))
    nu = nu[nu <= nu_hi]
    centers = np.sort(C_LIGHT / nu * 1e9)
    omega = 2.0 * math.pi * C_LIGHT / (centers * 1e-9)
    kappa = omega / TRACE_Q_LOADED * kappa_scale
    kappa_i = omega / TRACE_Q_INTRINSIC
    depth = 1.0 - ((2.0 * kappa_i - kappa) / kappa) ** 2  # 1 - T0, T0 = ((ki - ke)/k)^2
    tr = np.ones(samples)
    step = (hi_nm - lo_nm) / (samples - 1)
    reach = int(TRACE_REACH_NM / step)
    for center, k, d in zip(centers, kappa, depth):
        i = int(round((center - lo_nm) / step))
        a, b = max(0, i - reach), min(samples, i + reach + 1)
        delta = -2.0 * math.pi * C_LIGHT * (lam[a:b] - center) * 1e-9 / (center * 1e-9) ** 2
        tr[a:b] *= 1.0 - d / (1.0 + (2.0 * delta / k) ** 2)
    tr += rng.normal(0.0, TRACE_NOISE_RMS, samples)
    return CombTrace(lam, tr, centers, kappa)


def write_trace_csv(trace: CombTrace, path) -> None:
    """Write the trace in slices, so the benchmark process stays far smaller than ``fit``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("wavelength_nm,transmission\n")
        for a in range(0, trace.wavelength_nm.size, CSV_SLICE_ROWS):
            lam = trace.wavelength_nm[a:a + CSV_SLICE_ROWS].tolist()
            tr = trace.transmission[a:a + CSV_SLICE_ROWS].tolist()
            fh.write("".join("%.4f,%.9f\n" % pair for pair in zip(lam, tr)))


# ---- oracle: criterion 3's model, operating points, frequencies and angles

ORACLE_ETA_ESC = 0.9178217822
ORACLE_ETA = 0.602
ORACLE_PUMPS = (0.0, 0.5, 0.9)  # x = g0*rho/(kappa/2); the pair threshold is x = 1
ORACLE_SEGMENTS = 400


def oracle_seeds(seed: int) -> list[int]:
    """One independent cross-validation seed per pump level."""
    state = np.random.SeedSequence([seed, 3]).generate_state(len(ORACLE_PUMPS))
    return [int(s) for s in state]


# ---- analytic: sizes of one round

SWEEP_POINTS = 1000
GRID_OMEGAS = 900
GRID_THETAS = 181
CALIBRATIONS = 64
STEADY_ALPHAS = 24
STEADY_BETAS = 24


@dataclass(frozen=True)
class AnalyticDraws:
    power_fractions: np.ndarray  # of 0.98*P_th, first entry 0
    grid_omegas_hz: np.ndarray
    calibrations: np.ndarray  # rows (w, eta_esc, eta), w = omega/(kappa/2)
    alphas: np.ndarray
    beta_fractions: np.ndarray  # (alphas, betas) positions inside each row's span


def analytic_draws(seed: int) -> AnalyticDraws:
    rng = np.random.default_rng([seed, 2])
    fractions = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, SWEEP_POINTS - 1))])
    omegas = np.sort(10.0 ** rng.uniform(6.0, 9.0, GRID_OMEGAS))
    cal = np.column_stack(
        [
            rng.uniform(0.0, 1.5, CALIBRATIONS),
            rng.uniform(0.6, 0.95, CALIBRATIONS),
            rng.uniform(0.4, 1.0, CALIBRATIONS),
        ]
    )
    step = 3.0 / (STEADY_ALPHAS - 1)
    alphas = np.linspace(1.2, 4.2, STEADY_ALPHAS) + rng.uniform(-0.4, 0.4, STEADY_ALPHAS) * step
    beta_fractions = (np.arange(STEADY_BETAS) + rng.uniform(0.1, 0.9, (STEADY_ALPHAS, STEADY_BETAS))) / STEADY_BETAS
    return AnalyticDraws(fractions, omegas, cal, alphas, beta_fractions)


def beta_span(alpha: float) -> tuple[float, float]:
    """Drive range of one alpha row; it covers the bistable window when there is one."""
    disc = alpha * alpha - 3.0
    if disc > 0.0:
        r = math.sqrt(disc)
        knee_lo, knee_hi = (2.0 * alpha - r) / 3.0, (2.0 * alpha + r) / 3.0
        f_lo = knee_hi * (1.0 + (alpha - knee_hi) ** 2)
        f_hi = knee_lo * (1.0 + (alpha - knee_lo) ** 2)
        return 0.5 * f_lo, 1.5 * f_hi
    scale = max((2.0 * alpha / 3.0) * (1.0 + (alpha / 3.0) ** 2), 0.3)
    return 0.1 * scale, 2.5 * scale


# ---- independent references used by the checks

def bisection_roots(alpha: float, beta: float) -> list[float]:
    """Real roots of u*(1 + (alpha - u)^2) = beta by plain bisection.

    The cubic is split at its critical points, so each piece is monotonic
    and holds at most one root.
    """

    def f(u: float) -> float:
        return u * (1.0 + (alpha - u) ** 2) - beta

    edges = [0.0]
    disc = alpha * alpha - 3.0
    if disc > 0.0:
        r = math.sqrt(disc)
        edges += [u for u in ((2.0 * alpha - r) / 3.0, (2.0 * alpha + r) / 3.0) if u > 0.0]
    top = max(beta, 1.0) + 2.0 * abs(alpha) + 1.0
    edges.append(top)
    roots = []
    for a, b in zip(edges[:-1], edges[1:]):
        fa, fb = f(a), f(b)
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb > 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            fm = f(mid)
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


def pair_covariance(n_signal: float, n_idler: float, m_corr: complex, eta: float) -> np.ndarray:
    """Detected 4x4 quadrature covariance (vacuum = identity) of a pair.

    Written out from the pair moments: diagonal 1 + 2N per mode, cross
    terms 2M between the modes, then the detection beamsplitter.
    """
    v = np.eye(4)
    v[0, 0] = v[1, 1] = 1.0 + 2.0 * n_signal
    v[2, 2] = v[3, 3] = 1.0 + 2.0 * n_idler
    v[0, 2] = v[2, 0] = 2.0 * m_corr.real
    v[1, 3] = v[3, 1] = -2.0 * m_corr.real
    v[0, 3] = v[3, 0] = v[1, 2] = v[2, 1] = 2.0 * m_corr.imag
    return eta * v + (1.0 - eta) * np.eye(4)


_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def min_symplectic_eigenvalue(cov: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of a two-mode covariance, (q1, p1, q2, p2).

    The moduli of the eigenvalues of Omega @ cov; a covariance that is not
    positive definite has none and returns 0.
    """
    if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
        return 0.0
    return float(np.min(np.abs(np.linalg.eigvals(_OMEGA @ cov))))
