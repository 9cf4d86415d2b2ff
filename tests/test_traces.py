import math
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squeezesim.params import C_LIGHT, DomainError
from squeezesim.traces import (
    TraceParseError,
    TransmissionTrace,
    analyze_trace,
    coupling_rates_from_dip,
    detect_resonances,
    dip_transmission,
    estimate_fsr,
    fit_resonance,
    fwhm_pm,
    load_trace,
    normalize_trace,
    q_statistics,
    resonance_t_min,
    save_trace,
    synthesize_trace,
)

LAMBDA0 = 1560.0  # nm
OMEGA0 = 2.0 * math.pi * C_LIGHT / (LAMBDA0 * 1e-9)
KAPPA0 = OMEGA0 / 0.83e6  # loaded Q of 0.83e6
ETA0 = 0.9178217822  # from Q_i = 10.1e6 at that loading
T_FLOOR0 = 0.69830017  # (2*eta - 1)^2


def dense_grid(center=LAMBDA0, kappa=KAPPA0, half_widths=15.0, n=4001):
    half = half_widths * fwhm_pm(kappa, center) * 1e-3
    return np.linspace(center - half, center + half, n)


def test_dip_shape_anchors():
    depth = 1.0 - T_FLOOR0
    t0 = dip_transmission(np.array([LAMBDA0]), LAMBDA0, KAPPA0, depth)[0]
    assert t0 == pytest.approx(T_FLOOR0, rel=1e-12)
    # half depth exactly one half-linewidth off resonance
    lam_half = LAMBDA0 - 0.5 * fwhm_pm(KAPPA0, LAMBDA0) * 1e-3
    t_half = dip_transmission(np.array([lam_half]), LAMBDA0, KAPPA0, depth)[0]
    assert t_half == pytest.approx(1.0 - 0.5 * depth, rel=1e-9)


def test_floor_and_width_helpers():
    kappa_e, kappa_i = ETA0 * KAPPA0, (1.0 - ETA0) * KAPPA0
    assert resonance_t_min(kappa_e, kappa_i) == pytest.approx(T_FLOOR0, rel=1e-7)
    assert resonance_t_min(0.5 * KAPPA0, 0.5 * KAPPA0) == 0.0
    # FWHM in wavelength is lambda/Q_L
    assert fwhm_pm(KAPPA0, LAMBDA0) == pytest.approx(1.8795181, rel=1e-7)
    # and inverts to the linewidth, kappa = 2 pi c dlam / lam^2
    w = fwhm_pm(KAPPA0, LAMBDA0)
    kappa_back = 2.0 * math.pi * C_LIGHT * w * 1e-12 / (LAMBDA0 * 1e-9) ** 2
    assert kappa_back == pytest.approx(KAPPA0, rel=1e-12)
    with pytest.raises(DomainError):
        resonance_t_min(0.0, 0.0)


def test_coupling_split():
    ke, ki = coupling_rates_from_dip(KAPPA0, T_FLOOR0, "overcoupled")
    assert ke + ki == pytest.approx(KAPPA0, rel=1e-12)
    assert ke / KAPPA0 == pytest.approx(ETA0, rel=1e-7)
    ke_u, ki_u = coupling_rates_from_dip(KAPPA0, T_FLOOR0, "undercoupled")
    assert ke_u == pytest.approx(ki, rel=1e-12)
    assert coupling_rates_from_dip(KAPPA0, 0.0)[0] == pytest.approx(0.5 * KAPPA0)
    with pytest.raises(DomainError):
        coupling_rates_from_dip(KAPPA0, 1.0)
    with pytest.raises(DomainError):
        coupling_rates_from_dip(KAPPA0, 0.5, "ambiguous")
    with pytest.raises(DomainError):
        coupling_rates_from_dip(-1.0, 0.5)


@pytest.mark.parametrize("kappa", [1e6, KAPPA0, 3e11])
def test_floor_model_and_coupling_split_invert_each_other(kappa):
    # resonance_t_min is the forward floor model, coupling_rates_from_dip its
    # inverse given the regime; on both sides of critical coupling they return
    # (kappa_e, kappa_i) to 4 units of 2**-52 of kappa
    worst = 0.0
    for fraction in np.linspace(0.0, 1.0, 101)[1:-1]:
        kappa_e, kappa_i = kappa * fraction, kappa * (1.0 - fraction)
        regime = "overcoupled" if kappa_e >= kappa_i else "undercoupled"
        t_floor = resonance_t_min(kappa_e, kappa_i)
        got = coupling_rates_from_dip(kappa_e + kappa_i, t_floor, regime)
        worst = max(worst, abs(got[0] - kappa_e), abs(got[1] - kappa_i))
    assert worst <= 4 * 2.0 ** -52 * kappa


def test_fit_single_clean_dip():
    lam = dense_grid()
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    fit = fit_resonance(lam, tr)
    assert fit.center_nm == pytest.approx(LAMBDA0, rel=1e-12)
    assert fit.kappa == pytest.approx(KAPPA0, rel=1e-8)
    assert fit.t_floor == pytest.approx(T_FLOOR0, rel=1e-7)
    assert fit.eta == pytest.approx(ETA0, rel=1e-6)
    assert fit.regime == "overcoupled"
    assert fit.q_loaded == pytest.approx(0.83e6, rel=1e-6)
    assert fit.q_intrinsic == pytest.approx(10.1e6, rel=1e-6)
    assert fit.n_samples_fwhm > 100
    # loaded, coupling, and intrinsic rates stay exactly consistent
    assert 1.0 / fit.q_coupling + 1.0 / fit.q_intrinsic == pytest.approx(
        1.0 / fit.q_loaded, rel=1e-12
    )
    # the fitted pair reproduces the floor it came from
    t_back = ((fit.q_coupling - fit.q_intrinsic) / (fit.q_coupling + fit.q_intrinsic)) ** 2
    assert t_back == pytest.approx(fit.t_floor, rel=1e-9)
    # forward model reproduces the window within the reported residual
    model = fit.scale * dip_transmission(lam, fit.center_nm, fit.kappa, 1.0 - fit.t_floor)
    rms = float(np.sqrt(np.mean((model - tr) ** 2)))
    assert rms <= fit.fit_rms + 1e-12
    assert fit.scale == pytest.approx(1.0, abs=1e-9)
    # a reversed sweep direction gives the same answer
    fit_rev = fit_resonance(lam[::-1], tr[::-1])
    assert fit_rev.kappa == pytest.approx(fit.kappa, rel=1e-10)


def test_regime_prior_and_degeneracy():
    lam = dense_grid()
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    fit = fit_resonance(lam, tr, regime=None)
    assert fit.regime == "ambiguous"
    under = fit_resonance(lam, tr, regime="undercoupled")
    assert under.eta == pytest.approx(1.0 - ETA0, rel=1e-6)
    assert under.kappa == fit.kappa
    # critical coupling: floor of zero cannot be assigned a side
    tc = synthesize_trace(lam, [(LAMBDA0, KAPPA0, 0.0)])
    crit = fit_resonance(lam, tc, regime="overcoupled")
    assert crit.regime == "ambiguous"
    assert crit.kappa_e == pytest.approx(crit.kappa_i, rel=1e-3)
    with pytest.raises(DomainError):
        fit_resonance(lam, tr, regime="critical")


def test_fit_rejects_coarse_sampling():
    lam = dense_grid(n=61)  # about 2 samples per linewidth
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    with pytest.raises(DomainError):
        fit_resonance(lam, tr)


def test_array_input_validation():
    lam = dense_grid(n=64)
    tr = np.ones_like(lam)
    with pytest.raises(DomainError):
        fit_resonance(lam[:5], tr[:5])
    shuffled = lam.copy()
    shuffled[3], shuffled[4] = shuffled[4], shuffled[3]
    with pytest.raises(DomainError):
        fit_resonance(shuffled, tr)
    with pytest.raises(DomainError):
        fit_resonance(lam, tr[:-1])
    with pytest.raises(DomainError):
        synthesize_trace(lam, [(LAMBDA0, KAPPA0, 1.0)])
    for kappa in (0.0, -KAPPA0):
        with pytest.raises(DomainError, match="dip kappa must be positive"):
            synthesize_trace(lam, [(LAMBDA0, kappa, T_FLOOR0)])
    with pytest.raises(DomainError, match="noise_rms must be non-negative"):
        synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)], noise_rms=-0.01)


def test_trace_type_validation():
    lam = dense_grid(n=128)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    trace = TransmissionTrace(lam[::-1], tr[::-1], {"input_power": 1e-6})
    assert trace.metadata["reversed_input"] is True
    assert trace.metadata["input_power"] == 1e-6
    assert len(trace) == 128
    assert trace.wavelength_nm[0] < trace.wavelength_nm[-1]
    with pytest.raises(DomainError):
        TransmissionTrace(lam, tr + 0.5)
    with pytest.raises(DomainError):
        TransmissionTrace(lam, tr - 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = tr.copy()
        spoiled[64] = bad
        with pytest.raises(DomainError, match="transmission"):
            TransmissionTrace(lam, spoiled)


def test_save_load_round_trip(tmp_path):
    lam = dense_grid(n=257)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)], noise_rms=0.003, seed=3)
    trace = TransmissionTrace(lam, tr)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    back = load_trace(path)
    assert np.array_equal(back.wavelength_nm, trace.wavelength_nm)
    assert np.array_equal(back.transmission, trace.transmission)
    assert back.metadata["path"] == str(path)
    # descending sweep is canonicalized and flagged
    desc = tmp_path / "desc.csv"
    save_trace(TransmissionTrace(lam, tr), desc)
    lines = desc.read_text().splitlines()
    desc.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
    flipped = load_trace(desc)
    assert flipped.metadata["reversed_input"] is True
    assert np.array_equal(flipped.transmission, trace.transmission)


def test_load_trace_parse_errors(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    with pytest.raises(TraceParseError, match="line 1"):
        load_trace(write("empty.csv", ""))
    with pytest.raises(TraceParseError, match="line 1"):
        load_trace(write("hdr.csv", "wl,t\n1560.0,0.5\n"))
    head = "wavelength_nm,transmission\n"
    with pytest.raises(TraceParseError, match="line 3"):
        load_trace(write("fields.csv", head + "1560.0,0.5\n1560.1,0.5,9\n"))
    with pytest.raises(TraceParseError, match="line 2"):
        load_trace(write("nan.csv", head + "sixteen,0.5\n1560.1,0.5\n"))
    with pytest.raises(TraceParseError, match="line 4"):
        load_trace(write("range.csv", head + "1560.0,0.5\n1560.1,0.5\n1560.2,1.2\n"))
    with pytest.raises(TraceParseError, match="at least 2"):
        load_trace(write("short.csv", head + "1560.0,0.5\n"))
    with pytest.raises(TraceParseError, match="line 4"):
        load_trace(write(
            "mono.csv", head + "1560.0,0.5\n1560.1,0.5\n1560.05,0.5\n1560.2,0.5\n"
        ))
    with pytest.raises(TraceParseError, match="line 6:"):
        load_trace(write(
            "blank.csv", head + "1550.0,0.9\n\n1550.1,0.9\n1550.2,0.9\n1550.15,0.9\n"
        ))
    # the offending row right after a blank line: the blank is line 4, the row line 5
    with pytest.raises(TraceParseError, match="line 5:"):
        load_trace(write("after_blank.csv", head + "1550.0,0.9\n1550.1,0.9\n\n1550.05,0.9\n"))


def test_load_trace_fast_path_matches_row_scanner(tmp_path):
    from squeezesim.traces import _load_trace_fast, _scan_columns

    def outcome(read, path):
        try:
            trace = read(path)
        except TraceParseError as exc:
            return ("error", str(exc))
        lam, tr = trace.wavelength_nm, trace.transmission
        return ("ok", lam.dtype, lam.tobytes(), tr.dtype, tr.tobytes(), trace.metadata)

    def scanned(path):
        return TransmissionTrace(*_scan_columns(path), {"path": str(path)})

    head = "wavelength_nm,transmission\n"
    # (text, whether numpy reads it without the scanner)
    cases = {
        "plain": (head + "1550.0,0.9\n1550.1,0.8\n1550.2,0.7\n", True),
        "blank": (head + "\n1550.0,0.9\n\n\n1550.1,0.8\n\n", True),
        "spaces": (head + "1550.0,0.9\n   \n1550.1,0.8\n", False),
        "tab": (head + "1550.0,0.9\n1550.1,0.8\n\t\n", False),
        "padded": (" wavelength_nm , transmission\n 1550.0 ,0.9\n1550.1, 0.8 \n", True),
        "crlf": (head.replace("\n", "\r\n") + "1550.0,0.9\r\n\r\n1550.1,0.8\r\n", True),
        "no final newline": (head + "1550.0,0.9\n1550.1,0.8", True),
        "comment row": (head + "# sweep 1\n1550.0,0.9\n1550.1,0.8\n", False),
        "comment tail": (head + "1550.0,0.9\n1550.1,0.8 # end\n", False),
        "quoted": (head + '"1550.0","0.9"\n"1550.1",0.8\n', False),
        "underscore": (head + "1_550.0,0.9\n1_550.1,0.8\n", False),
        "trailing comma": (head + "1550.0,0.9,\n1550.1,0.8,\n", False),
        "three fields": (head + "1550.0,0.9\n1550.1,0.8,7\n", False),
        "one field": (head + "1550.0\n1550.1\n", False),
        "nan transmission": (head + "1550.0,0.9\n1550.1,nan\n", False),
        "inf transmission": (head + "1550.0,0.9\n1550.1,inf\n", False),
        "nan wavelength": (head + "1550.0,0.9\nnan,0.8\n1550.2,0.7\n", False),
        "inf wavelength": (head + "1550.0,0.9\n1550.1,0.8\ninf,0.7\n", False),
        "zero wavelength": (head + "0.0,0.9\n1550.1,0.8\n", False),
        "negative wavelength": (head + "1550.2,0.9\n1550.1,0.8\n-1.0,0.7\n", False),
        "range": (head + "1550.0,0.9\n1550.1,1.2\n", False),
        "not monotonic": (head + "1550.0,0.9\n\n1550.2,0.8\n1550.1,0.7\n", False),
        "repeated wavelength": (head + "1550.0,0.9\n1550.1,0.8\n1550.1,0.7\n", False),
        "descending": (head + "1550.2,0.7\n1550.1,0.8\n1550.0,0.9\n", True),
        "empty file": ("", False),
        "header only": (head, False),
        "blank rows only": (head + "\n\n", False),
        "one row": (head + "\n1550.0,0.9\n", False),
        "bad header": ("wl,t\n1550.0,0.9\n1550.1,0.8\n", False),
    }
    for name, (text, fast) in cases.items():
        path = tmp_path / f"{name.replace(' ', '_')}.csv"
        path.write_bytes(text.encode())
        assert (_load_trace_fast(path) is not None) == fast, name
        assert outcome(load_trace, path) == outcome(scanned, path), name
    # NaN is refused by the trace type, so the scanner names its line
    with pytest.raises(TraceParseError, match="line 3: transmission nan"):
        load_trace(tmp_path / "nan_transmission.csv")
    with pytest.raises(TraceParseError, match="line 4: wavelength inf"):
        load_trace(tmp_path / "inf_wavelength.csv")


def test_load_trace_cites_the_first_offending_line_in_file_order(tmp_path):
    # an order fault on line 4 comes before a transmission of 1.2 on line 6
    path = tmp_path / "two_faults.csv"
    path.write_text("wavelength_nm,transmission\n1560.0,0.5\n1560.1,0.5\n1560.05,0.5\n"
                    "1560.2,0.5\n1560.3,1.2\n")
    with pytest.raises(TraceParseError, match="line 4: wavelength not strictly monotonic"):
        load_trace(path)
    # quoted, so the row scanner reads them: steps whose product underflows
    tiny = tmp_path / "tiny_steps.csv"
    tiny.write_text('wavelength_nm,transmission\n"5e-324",0.5\n"1e-323",0.5\n"1.5e-323",0.5\n')
    assert load_trace(tiny).wavelength_nm.tolist() == [5e-324, 1e-323, 1.5e-323]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_trace_reads_a_fifo_once_as_it_reads_the_file(tmp_path):
    # more than a pipe buffer, so the writer blocks until the reader drains it
    rows = "".join(f"{1550.0 + 1e-3 * k!r},{0.9 - 1e-5 * k!r}\n" for k in range(5000))
    text = "wavelength_nm,transmission\n" + rows
    path = tmp_path / "trace.csv"
    path.write_text(text)
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    results = []

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    def read():
        try:
            results.append(load_trace(fifo))
        except Exception as exc:  # re-raised below, in the test's thread
            results.append(exc)

    # daemons, so a reader stuck on a second open cannot hold up the run
    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert results, "load_trace did not return: it opened the FIFO twice"
    if isinstance(results[0], Exception):
        raise results[0]
    got, want = results[0], load_trace(path)
    assert got.wavelength_nm.tobytes() == want.wavelength_nm.tobytes()
    assert got.transmission.tobytes() == want.transmission.tobytes()
    assert len(got) == 5000


def test_load_trace_reads_a_compression_suffix_as_text(tmp_path):
    # np.loadtxt would open these paths through a decompressor
    text = "wavelength_nm,transmission\n1550.0,0.9\n1550.1,0.8\n1550.2,0.7\n"
    want = load_trace(_write(tmp_path / "trace.csv", text))
    for suffix in (".gz", ".bz2", ".xz", ".lzma"):
        got = load_trace(_write(tmp_path / f"trace.csv{suffix}", text))
        assert got.wavelength_nm.tobytes() == want.wavelength_nm.tobytes(), suffix
        assert got.transmission.tobytes() == want.transmission.tobytes(), suffix


def _write(path, text):
    path.write_text(text)
    return path


def test_normalize_is_idempotent_and_flagged():
    lam = dense_grid(half_widths=30.0, n=2001)
    tr = synthesize_trace(
        lam, [(LAMBDA0, KAPPA0, T_FLOOR0)],
        baseline=lambda x: 0.98 + 0.0 * x, noise_rms=0.002, seed=1,
    )
    trace = TransmissionTrace(lam, tr)
    norm = normalize_trace(trace)
    assert norm.metadata["normalized"] is True
    assert norm.metadata["baseline_window"] >= 15
    assert normalize_trace(norm) is norm
    # off-resonance level pulled to unity
    edges = np.r_[norm.transmission[:100], norm.transmission[-100:]]
    assert abs(float(np.mean(edges)) - 1.0) < 0.005


def test_short_trace_detrend_names_its_length():
    two = TransmissionTrace(np.array([1550.0, 1550.1]), np.array([0.9, 0.8]))
    with pytest.raises(DomainError, match="trace of 2 samples"):
        analyze_trace(two)
    assert analyze_trace(two, detrend=False).n_detected == 0
    three = TransmissionTrace(np.array([1550.0, 1550.1, 1550.2]), np.array([0.9, 0.8, 0.9]))
    assert analyze_trace(three).trace.metadata["baseline_window"] == 3


def test_loaded_and_built_traces_detrend_alike(tmp_path):
    # deep and shallow dips: a prominence floor between the two depths
    # sets the baseline window from the deep dips only, on either route
    lam = np.linspace(1559.2, 1560.8, 20001)
    centers = np.linspace(1559.3, 1560.7, 9)
    dips = [(c, KAPPA0, 0.3 if j % 2 else 0.85) for j, c in enumerate(centers)]
    tr = synthesize_trace(
        lam, dips, baseline=lambda x: 0.97 + 0.02 * np.cos(2.0 * math.pi * (x - lam[0]) / 1.3),
        noise_rms=0.003, seed=3,
    )
    path = tmp_path / "trace.csv"
    save_trace(TransmissionTrace(lam, tr), path)
    loaded = analyze_trace(load_trace(path), min_prominence=0.2)
    built = analyze_trace(TransmissionTrace(lam, tr), min_prominence=0.2)
    assert np.array_equal(loaded.trace.transmission, built.trace.transmission)
    assert loaded.trace.metadata["baseline_window"] == built.trace.metadata["baseline_window"]
    assert len(built.resonances) == 4
    assert loaded.resonances == built.resonances


def frequency_comb_centers(n, fsr_hz=59.3e9, start_nm=LAMBDA0):
    nu0 = C_LIGHT / (start_nm * 1e-9)
    return [C_LIGHT / (nu0 + j * fsr_hz) / 1e-9 for j in range(n)]


def test_fsr_wavelength_spacing_scale():
    # 59.3 GHz near 1560 nm is a bit under half a nanometer
    c0, c1 = frequency_comb_centers(2)
    assert c0 - c1 == pytest.approx(0.48137, rel=5e-4)


def test_estimate_fsr():
    centers = frequency_comb_centers(5)
    assert estimate_fsr(centers) == pytest.approx(59.3e9, rel=1e-9)
    wide = frequency_comb_centers(4, fsr_hz=603e9)
    assert estimate_fsr(wide) == pytest.approx(603e9, rel=1e-9)
    # an inserted spurious center does not move the median
    spoiled = centers + [0.5 * (centers[1] + centers[2])]
    assert estimate_fsr(spoiled) == pytest.approx(59.3e9, rel=1e-9)
    with pytest.raises(DomainError):
        estimate_fsr(centers[:2])


def test_detect_resonances_windows():
    centers = [1559.5, 1560.0, 1560.5]
    lam = np.arange(1559.0, 1561.0, 1e-4)
    tr = synthesize_trace(lam, [(c, KAPPA0, T_FLOOR0) for c in centers])
    trace = TransmissionTrace(lam, tr)
    windows = detect_resonances(trace, 0.05)
    assert len(windows) == 3
    for (lo, hi), c in zip(windows, centers):
        i_min = lo + int(np.argmin(trace.transmission[lo:hi]))
        i_true = int(np.argmin(np.abs(lam - c)))
        assert abs(i_min - i_true) <= 1
    # flat trace and an impossible prominence floor both yield nothing
    flat = TransmissionTrace(lam, np.ones_like(lam))
    assert detect_resonances(flat, 0.05) == []
    assert detect_resonances(trace, 0.5) == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_detect_resonances_window_rule(data):
    import squeezesim.traces as traces

    n = data.draw(st.integers(3, 3000), label="n")
    # dips as _find_dips finds them: off both ends, at least 2 samples apart
    gaps = data.draw(st.lists(st.integers(2, 80), max_size=12), label="gaps")
    peaks = np.cumsum([1] + gaps)
    peaks = peaks[peaks <= n - 2]
    widths = np.array(data.draw(
        st.lists(st.floats(1.0, 60.0), min_size=peaks.size, max_size=peaks.size), label="widths"
    ))
    trace = TransmissionTrace(np.arange(1.0, n + 1.0), np.ones(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traces, "_find_dips", lambda *args: (peaks, widths))
        windows = detect_resonances(trace, 0.05)
    assert len(windows) == peaks.size
    for j, ((lo, hi), p, w) in enumerate(zip(windows, peaks.tolist(), widths.tolist())):
        reach = max(10, round(6.0 * w))
        assert lo <= p < hi
        # the full reach on each side, unless a trace end or the
        # midpoint to a neighbour cuts it
        left_cuts = [0] + ([(peaks[j - 1] + p) // 2 + 1] if j > 0 else [])
        right_cuts = [n] + ([(p + peaks[j + 1]) // 2] if j + 1 < peaks.size else [])
        assert p - lo == reach or (p - lo < reach and lo in left_cuts)
        assert hi - 1 - p == reach or (hi - 1 - p < reach and hi in right_cuts)
    assert all(a_hi <= b_lo for (_, a_hi), (b_lo, _) in zip(windows, windows[1:]))


def test_analyze_noisy_trace_with_fringes():
    centers = frequency_comb_centers(4, start_nm=1560.3)
    lam = np.arange(1558.7, 1560.5, 5e-5)

    def background(x):
        return 0.97 + 0.04 * np.cos(2.0 * math.pi * (x - lam[0]) / 0.9)

    tr = synthesize_trace(
        lam, [(c, KAPPA0, T_FLOOR0) for c in centers],
        baseline=background, noise_rms=0.004, seed=42,
    )
    report = analyze_trace(TransmissionTrace(lam, tr))
    assert report.n_detected == 4
    assert report.n_rejected == 0
    assert len(report.resonances) == 4
    assert report.trace.metadata["normalized"] is True
    for fit, center in zip(report.resonances, sorted(centers)):
        assert fit.center_nm == pytest.approx(center, abs=0.1 * fit.fwhm_pm * 1e-3)
        assert fit.kappa == pytest.approx(KAPPA0, rel=0.02)
        assert fit.t_floor == pytest.approx(T_FLOOR0, abs=0.02)
        assert fit.eta == pytest.approx(ETA0, abs=0.01)
    assert report.fsr_hz == pytest.approx(59.3e9, rel=2e-3)


def test_analyze_flat_trace_without_detrend():
    lam = dense_grid(half_widths=25.0, n=3001)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    report = analyze_trace(TransmissionTrace(lam, tr), detrend=False)
    assert "normalized" not in report.trace.metadata
    assert len(report.resonances) == 1
    assert report.fsr_hz is None
    assert report.resonances[0].kappa == pytest.approx(KAPPA0, rel=1e-6)


def test_noise_monte_carlo_recovery():
    lam = dense_grid(half_widths=12.0, n=3001)
    clean = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    for seed in range(10):
        noisy = clean + np.random.default_rng(seed).normal(0.0, 0.01, lam.shape)
        fit = fit_resonance(lam, noisy)
        assert fit.q_loaded == pytest.approx(0.83e6, rel=0.02)
        assert fit.q_intrinsic == pytest.approx(10.1e6, rel=0.02)


def test_q_statistics():
    lam = dense_grid(half_widths=12.0, n=2001)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    single = q_statistics([fit_resonance(lam, tr)])
    assert single.n_fits == 1
    assert single.q_loaded.mode == pytest.approx(0.83e6, rel=1e-6)
    assert sum(1 for c in single.q_loaded.counts if c) == 1
    rng = np.random.default_rng(7)
    fits = []
    for _ in range(30):
        q_i = 9.2e6 * (1.0 + 0.03 * rng.standard_normal())
        q_l = 0.9e6 * (1.0 + 0.03 * rng.standard_normal())
        kappa = OMEGA0 / q_l
        eta = 1.0 - q_l / q_i
        floor = (2.0 * eta - 1.0) ** 2
        grid = dense_grid(kappa=kappa, half_widths=12.0, n=2001)
        data = synthesize_trace(grid, [(LAMBDA0, kappa, floor)])
        fits.append(fit_resonance(grid, data))
    stats = q_statistics(fits, bins=10)
    assert stats.n_fits == 30
    assert stats.q_intrinsic.mode == pytest.approx(9.2e6, rel=0.1)
    assert stats.q_loaded.mode == pytest.approx(0.9e6, rel=0.1)
    assert stats.eta.mode == pytest.approx(0.902, abs=0.02)
    assert stats.q_loaded.min < stats.q_loaded.mode < stats.q_loaded.max
    with pytest.raises(DomainError):
        q_statistics([])


def test_q_statistics_mode_among_equal_bins_is_nearest_the_median():
    # with no repeated value every occupied bin ties; the mode was the
    # lowest of them, the comb's edge rather than its centre
    def fits(values):
        return [SimpleNamespace(q_intrinsic=v, q_loaded=v, q_coupling=v, eta=v) for v in values]

    # bins of width 1 on [1, 9]: the median 3.5 is the centre of [3, 4)
    spread = q_statistics(fits([1.0, 2.0, 3.5, 4.0, 9.0]), bins=8)
    for summary in (spread.q_intrinsic, spread.q_loaded, spread.q_coupling, spread.eta):
        assert summary.counts == (1, 1, 1, 1, 0, 0, 0, 1)
        assert summary.mode == 3.5
    # a single tallest bin is the mode however far it is from the median
    assert q_statistics(fits([1.0, 1.0, 4.5, 5.5, 6.5, 7.5, 9.0]), bins=8).eta.mode == 1.5
    # of two tallest bins (centres 1.5 and 8.5), the one nearer the median 6.0
    assert q_statistics(fits([1.0, 1.0, 5.0, 7.0, 9.0, 9.0]), bins=8).eta.mode == 8.5


def test_fit_refuses_a_dip_that_is_not_physical():
    # an inverted dip converges to a negative depth at the window centre,
    # and a flat window to a centre outside it; neither is a resonance
    lam = dense_grid(half_widths=8.0)
    peak = 2.0 - synthesize_trace(lam, [(LAMBDA0, KAPPA0, 0.3)])
    for tr in (peak, np.ones_like(lam)):
        with pytest.raises(DomainError, match="did not converge to a physical dip"):
            fit_resonance(lam, tr)


def test_synthesize_deterministic():
    lam = dense_grid(n=512)
    a = synthesize_trace(lam, [(LAMBDA0, KAPPA0, 0.5)], noise_rms=0.01, seed=9)
    b = synthesize_trace(lam, [(LAMBDA0, KAPPA0, 0.5)], noise_rms=0.01, seed=9)
    c = synthesize_trace(lam, [(LAMBDA0, KAPPA0, 0.5)], noise_rms=0.01, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=15, deadline=None)
@given(
    kappa=st.floats(3e8, 6e9),
    t_floor=st.floats(0.01, 0.9),
    offset=st.floats(-2.0, 2.0),
)
def test_fit_recovers_random_dips(kappa, t_floor, offset):
    center = LAMBDA0 + offset * fwhm_pm(kappa, LAMBDA0) * 1e-3
    lam = dense_grid(center=center, kappa=kappa, half_widths=12.0, n=3001)
    tr = synthesize_trace(lam, [(center, kappa, t_floor)])
    fit = fit_resonance(lam, tr)
    assert fit.kappa == pytest.approx(kappa, rel=1e-6)
    assert fit.t_floor == pytest.approx(t_floor, abs=1e-7)
    assert fit.center_nm == pytest.approx(
        center, abs=1e-6 * fwhm_pm(kappa, center) * 1e-3
    )


# ---- the numpy dip finder against scipy.signal.find_peaks, its reference


def assert_same_dips(x, prominence, distance=None):
    from scipy.signal import find_peaks

    from squeezesim.traces import _find_dips

    want, props = find_peaks(x, prominence=prominence, width=1, distance=distance)
    peaks, widths = _find_dips(x, prominence, distance)
    assert np.array_equal(peaks, want)
    np.testing.assert_allclose(widths, props["widths"], rtol=1e-12, atol=0.0)


@st.composite
def dip_combs(draw):
    """1 - transmission of a few Lorentzian dips on sample centers.

    Dips may sit on either end sample, repeat one shape (exact height
    ties), be clipped flat or quantized (plateaus), and carry noise.
    """
    n = draw(st.integers(3, 2000))
    i = np.arange(n)
    tr = np.ones(n)
    width, depth = 8.0, 0.5
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):  # otherwise repeat the last shape
            width = draw(st.floats(0.5, 40.0))
            depth = draw(st.floats(0.02, 0.9))
        center = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
        tr *= 1.0 - depth / (1.0 + ((i - center) / (0.5 * width)) ** 2)
    noise = draw(st.sampled_from([0.0, 1e-3, 1e-2]))
    if noise:
        tr += np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(0.0, noise, n)
    step = draw(st.sampled_from([0.0, 1e-3, 0.02]))
    if step:
        tr = np.round(tr / step) * step
    if draw(st.booleans()):
        tr = np.maximum(tr, draw(st.floats(0.1, 0.9)))
    return 1.0 - tr


@settings(max_examples=300, deadline=None)
@given(
    x=dip_combs(),
    prominence=st.sampled_from([0.01, 0.05, 0.2]),
    distance=st.sampled_from([None, 2, 7, 40.5]),
)
def test_find_dips_matches_find_peaks(x, prominence, distance):
    assert_same_dips(x, prominence, distance)


def test_find_dips_edge_cases_match_find_peaks():
    tie = np.zeros(40)
    tie[[10, 14, 30]] = 1.0  # equal heights, two of them within distance
    plateau = np.array([0.0, 0.2, 0.7, 0.7, 0.7, 0.7, 0.1, 0.7, 0.7, 0.0, 0.3, 0.3])
    edges = np.array([0.9, 0.5, 0.1, 0.0, 0.2, 0.6, 0.8])  # rises into both ends
    exact = np.array([0.0, 0.05, 0.0, 0.5, 0.0])  # a prominence of exactly 0.05 is kept
    for x in (np.zeros(500), np.ones(3), np.array([0.0, 1.0]), tie, plateau, edges, exact):
        for distance in (None, 1, 5):
            assert_same_dips(x, 0.05, distance)


def bench_sized_comb():
    """1,000,001 samples, 208 dips 19 samples wide and 4807 apart, noise 0.005."""
    n = 1_000_001
    x = np.random.default_rng(11).normal(0.0, 0.005, n)
    offsets = np.arange(-5000, 5001)
    shape = 0.3 / (1.0 + (offsets / 9.5) ** 2)
    for center in 2500 + 4807 * np.arange(208):
        lo, hi = max(0, center - 5000), min(n, center + 5001)
        x[lo:hi] += shape[lo - center + 5000:hi - center + 5000]
    return x


def test_find_dips_visits_only_maxima_that_can_reach_the_prominence(monkeypatch):
    from scipy.signal import find_peaks

    import squeezesim.traces as traces

    x = bench_sized_comb()
    visited = []

    def spy(x, barriers, peaks):
        visited.append((barriers.size, peaks.size))
        return prominences(x, barriers, peaks)

    prominences = traces._prominences
    monkeypatch.setattr(traces, "_prominences", spy)
    peaks, widths = traces._find_dips(x, 0.05)
    high, _ = find_peaks(x, height=float(np.min(x)) + 0.05)
    every, _ = find_peaks(x)
    # prominences are computed for, and bounded by, the local maxima at
    # least min(x) + 0.05 high: under 2 % of all local maxima
    assert visited == [(high.size, high.size)]
    assert high.size < 0.02 * every.size
    want, props = find_peaks(x, prominence=0.05, width=1)
    assert peaks.size == 208 and np.array_equal(peaks, want)
    np.testing.assert_allclose(widths, props["widths"], rtol=1e-12, atol=0.0)


# ---- the batched Levenberg-Marquardt fit


@pytest.mark.parametrize("n_windows", [1, 2, 3, 200])
def test_normal_equations_sum_each_window_in_sample_order(n_windows):
    from squeezesim.traces import _dip_jacobian_m, _dip_model_m, _normal_equations

    rng = np.random.default_rng(n_windows)
    # a few long windows or many short ones, every row padded past its own
    # samples with values that must not reach its sums
    lo, hi = (500, 3001) if n_windows <= 3 else (20, 151)
    size = rng.integers(lo, hi, n_windows)
    samples = int(size.max()) + 7
    center = (LAMBDA0 + rng.uniform(-1.0, 1.0, n_windows)) * 1e-9
    step = rng.uniform(0.5, 2.0, n_windows) * 1e-4 * 1e-9 * 150 / size
    lam = center[:, None] + step[:, None] * (np.arange(samples) - size[:, None] / 2)
    kappa = KAPPA0 * rng.uniform(0.5, 2.0, n_windows)
    depth, scale = rng.uniform(0.1, 0.9, n_windows), rng.uniform(0.9, 1.1, n_windows)
    p = np.array([center, kappa, depth, scale])
    y = _dip_model_m(lam, *p[:, :, None]) + rng.normal(0.0, 0.01, lam.shape)
    p *= 1.0 + rng.normal(0.0, 1e-6, p.shape)  # off the optimum: nonzero gradient
    ssr, d, scaled, grad, ok = _normal_equations(lam, y, size, p)
    assert ok.all()
    for j, n in enumerate(size):
        own = (lam[j:j + 1, :n], *p[:, j:j + 1, None])
        cols = [c.ravel().tolist() for c in _dip_jacobian_m(*own)]
        cols.append((_dip_model_m(*own) - y[j, :n]).ravel().tolist())
        sums = np.empty((5, 5))
        for a in range(5):
            for b in range(5):
                total = 0.0
                for u, v in zip(cols[a], cols[b]):
                    total += u * v
                sums[a, b] = total
        d_j = np.sqrt(np.diag(sums[:4, :4]))
        assert np.array_equal(d[j], d_j)
        assert np.array_equal(scaled[j], sums[:4, :4] / np.outer(d_j, d_j))
        assert np.array_equal(grad[j], sums[:4, 4] / d_j)
        assert ssr[j] == sums[4, 4]


def test_fit_holds_each_trace_column_once(tmp_path):
    import tracemalloc

    # 200,001 samples of a comb like the benchmark's: 0.1 pm steps, dips
    # about 18 samples wide and 4,807 apart, noise 0.005
    n = 200_001
    lam = np.linspace(1510.0, 1530.0, n)
    centers = lam[2500::4807]
    kappas = 2.0 * math.pi * C_LIGHT / (centers * 1e-9) / 0.83e6
    tr = synthesize_trace(lam, [(c, k, T_FLOOR0) for c, k in zip(centers, kappas)],
                          noise_rms=0.005, seed=9)
    path = tmp_path / "comb.csv"
    np.savetxt(path, np.column_stack([lam, tr]), fmt="%.4f,%.9f",
               header="wavelength_nm,transmission", comments="")
    column = 8 * n
    tracemalloc.start()
    try:
        trace = load_trace(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        report = analyze_trace(trace)
        fit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_rejected == 0 and len(report.resonances) == centers.size
    # the rows and one copy of each column; then the raw and the
    # normalized trace, and at most about two more columns of scratch
    assert load_peak <= 4.5 * column
    assert fit_peak <= 5.75 * column


def test_batched_and_single_window_fits_are_bit_identical(monkeypatch):
    import squeezesim.traces as traces

    # dips of three linewidths, one cut by the trace end, give windows of
    # different lengths, so every batch is padded
    lam = np.arange(1559.0, 1561.0, 5e-5)
    dips = [(1559.002, KAPPA0, 0.5), (1559.5, 2.0 * KAPPA0, 0.3),
            (1560.0, KAPPA0, T_FLOOR0), (1560.5, 0.7 * KAPPA0, 0.1)]
    tr = synthesize_trace(lam, dips, noise_rms=0.002, seed=5)
    report = analyze_trace(TransmissionTrace(lam, tr), detrend=False)
    windows = detect_resonances(report.trace, 0.05)
    assert len({hi - lo for lo, hi in windows}) == 4
    assert report.n_rejected == 0 and len(report.resonances) == 4
    for (lo, hi), fit in zip(windows, report.resonances):
        assert fit_resonance(lam[lo:hi], tr[lo:hi]) == fit
    # batches of one or two windows give the same fits as one batch
    monkeypatch.setattr(traces, "_LM_BATCH", 1000)
    split = analyze_trace(TransmissionTrace(lam, tr), detrend=False)
    assert split.resonances == report.resonances


def test_fit_stderr_is_the_curve_fit_covariance():
    from scipy.optimize import curve_fit

    from squeezesim.traces import _dip_jacobian_m, _dip_model_m

    lam = dense_grid(half_widths=12.0, n=3001)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)], noise_rms=0.01, seed=2)
    fit = fit_resonance(lam, tr)
    p0 = (fit.center_nm * 1e-9, fit.kappa, 1.0 - fit.t_floor, fit.scale)

    def stderr(**options):
        _, pcov = curve_fit(_dip_model_m, lam * 1e-9, tr, p0=p0, absolute_sigma=False,
                            xtol=1e-15, ftol=1e-15, **options)
        err = np.sqrt(np.diag(pcov))
        err[0] /= 1e-9
        return err

    # with the same Jacobian, s^2 (J^T J)^-1 at the same optimum agrees to
    # well inside 1e-6 (1e-9 seen)
    exact = stderr(jac=lambda x, *p: np.stack(_dip_jacobian_m(x, *p), axis=1))
    np.testing.assert_allclose(fit.stderr, exact, rtol=1e-6, atol=0.0)
    # MINPACK's forward differences step the center by sqrt(eps) of itself,
    # about 1 % of this linewidth, which moves its stderr by ~3e-4
    np.testing.assert_allclose(fit.stderr, stderr(), rtol=1e-3, atol=0.0)


def test_noise_free_fit_has_finite_stderr():
    lam = dense_grid(half_widths=12.0, n=2001)
    fit = fit_resonance(lam, synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)]))
    assert all(math.isfinite(e) and e >= 0.0 for e in fit.stderr)


def test_pure_noise_window_is_rejected(monkeypatch):
    import squeezesim.traces as traces

    lam = dense_grid(half_widths=40.0, n=8001)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)], noise_rms=0.01, seed=4)
    # pure noise on which curve_fit ran out of evaluations (a RuntimeError);
    # other draws fit an insignificant noise dip, then as now
    tr[:1500] = np.random.default_rng(6).normal(1.0, 0.01, 1500)
    with pytest.raises(DomainError, match="did not converge"):
        fit_resonance(lam[:1500], tr[:1500])
    monkeypatch.setattr(traces, "detect_resonances", lambda *args: [(3000, 5001), (0, 1500)])
    report = analyze_trace(TransmissionTrace(lam, tr), detrend=False)
    assert (report.n_detected, report.n_rejected, len(report.resonances)) == (2, 1, 1)
    assert report.resonances[0] == fit_resonance(lam[3000:5001], tr[3000:5001])


def test_insignificant_noise_dip_is_rejected(monkeypatch):
    import squeezesim.traces as traces

    # pure noise on a 0.019 pm grid: these seeds converge to a "dip" whose
    # depth is 0.04, 1.3 and 0.18 of its standard error; real dips sit
    # hundreds of standard errors deep
    lam = LAMBDA0 + 0.019e-3 * np.arange(6000)
    tr = synthesize_trace(lam, [(lam[4500], KAPPA0, T_FLOOR0)], noise_rms=0.002, seed=1)
    for seed in (0, 1, 4):
        tr[:1500] = np.random.default_rng(seed).normal(1.0, 0.01, 1500)
        with pytest.raises(DomainError, match="noise, not a dip"):
            fit_resonance(lam[:1500], tr[:1500])
        monkeypatch.setattr(traces, "detect_resonances", lambda *args: [(3000, 6000), (0, 1500)])
        report = analyze_trace(TransmissionTrace(lam, tr), detrend=False)
        assert (report.n_detected, report.n_rejected, len(report.resonances)) == (2, 1, 1)
        fit = report.resonances[0]
        assert (1.0 - fit.t_floor) >= 5.0 * fit.stderr[2]


def test_trace_wavelengths_must_be_finite_and_positive():
    lam = dense_grid(n=128)
    tr = synthesize_trace(lam, [(LAMBDA0, KAPPA0, T_FLOOR0)])
    for index, bad in ((-1, math.inf), (0, -math.inf), (0, 0.0), (0, -1.0)):
        spoiled = lam.copy()
        spoiled[index] = bad
        with pytest.raises(DomainError, match="wavelength must be finite and positive"):
            TransmissionTrace(spoiled, tr)


@st.composite
def level_traces(draw):
    """A trace of 1-400 samples on 3-5 levels (ties, constant runs), and a
    window from 3 to two samples past the trace."""
    n = draw(st.integers(1, 400))
    levels = sorted(draw(st.sets(st.integers(0, 21), min_size=3, max_size=5)))
    x = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))) / 20.0
    return x, draw(st.integers(3, n + 2))


def assert_same_percentiles(x, window):
    from scipy.ndimage import percentile_filter

    from squeezesim.traces import _edge_padded, _rolling_p95

    want = percentile_filter(x, percentile=95, size=window, mode="nearest")
    got = _rolling_p95(_edge_padded(x, window), window, np.empty(x.size))
    # selection copies a sample, so the bits agree, not just the values
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


STAIRS = np.repeat([0.2, 0.9, 0.5, 0.9, 0.2], [3, 1, 4, 2, 7])


@settings(max_examples=200, deadline=None)
@given(case=level_traces())
@example(case=(STAIRS, 3))
@example(case=(STAIRS, STAIRS.size))
@example(case=(STAIRS, STAIRS.size + 1))
@example(case=(np.full(12, 0.65), 4))
def test_rolling_p95_matches_percentile_filter(case):
    assert_same_percentiles(*case)


def test_rolling_p95_matches_percentile_filter_on_a_bench_sized_comb():
    assert_same_percentiles(1.0 - bench_sized_comb(), 199)
