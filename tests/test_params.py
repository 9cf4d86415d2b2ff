import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squeezesim.params import (
    HBAR,
    C_LIGHT,
    DomainError,
    MaterialParams,
    PumpDrive,
    ResonatorModel,
    detection_chain_total,
    escape_efficiency,
    g0_from_material,
    kappa_from_q,
    max_onchip_squeezing_db,
    photon_flux,
    wavelength_to_omega,
)
from squeezesim.traces import coupling_rates_from_dip, resonance_t_min, synthesize_trace

# Frozen anchors, computed by hand from the defining formulas:
#   omega0 = 2 pi c / lambda          at lambda = 1560 nm
#   kappa  = omega0 / Q_loaded        at Q_loaded = 0.83e6
#   flux   = P / (hbar omega0)        at P = 50 mW
OMEGA0_1560 = 1.2074690e15
KAPPA_Q083 = 1.4547819e9
FLUX_50MW = 3.926619e17


def test_wavelength_to_omega_anchor():
    assert wavelength_to_omega(1560e-9) == pytest.approx(OMEGA0_1560, rel=1e-6)


def test_kappa_from_loaded_q_anchor():
    omega0 = wavelength_to_omega(1560e-9)
    assert kappa_from_q(omega0, 0.83e6) == pytest.approx(KAPPA_Q083, rel=1e-6)
    # round half-width in MHz for a sanity check against typical lab numbers
    assert kappa_from_q(omega0, 0.83e6) / (2 * math.pi) == pytest.approx(
        231.5e6, rel=1e-3
    )


def test_photon_flux_anchor():
    omega0 = wavelength_to_omega(1560e-9)
    assert photon_flux(0.050, omega0) == pytest.approx(FLUX_50MW, rel=1e-5)


def test_escape_efficiency_anchor():
    # 1 - 0.83/10.1, by long division
    assert escape_efficiency(10.1e6, 0.83e6) == pytest.approx(0.9178217822, rel=1e-9)


def test_max_onchip_squeezing_anchors():
    # -10 log10(1 - eta)
    assert max_onchip_squeezing_db(0.91) == pytest.approx(10.4575749, rel=1e-7)
    assert max_onchip_squeezing_db(0.75) == pytest.approx(6.0205999, rel=1e-7)
    assert max_onchip_squeezing_db(0.0) == 0.0


def test_detection_chain_total_anchor():
    # 0.75 * 0.95 * 0.98^2 * 0.88, visibility squared
    assert detection_chain_total(0.75, 0.95, 0.98, 0.88) == pytest.approx(
        0.6021708, abs=1e-7
    )


@given(st.floats(min_value=1e3, max_value=1e12), st.floats(min_value=1e12, max_value=1e16))
def test_q_kappa_round_trip(q, omega0):
    kappa = kappa_from_q(omega0, q)
    # Q = omega0 / kappa inverts it
    assert omega0 / kappa == pytest.approx(q, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=0.999))
def test_squeezing_bound_monotone(eta):
    lo = max_onchip_squeezing_db(eta)
    hi = max_onchip_squeezing_db(min(eta + 5e-4, 0.9995))
    assert hi >= lo >= 0.0


@given(
    st.floats(min_value=1e4, max_value=1e9),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_escape_efficiency_bounds(q_i, ratio):
    q_l = q_i * ratio
    eta = escape_efficiency(q_i, q_l)
    assert 0.0 <= eta < 1.0
    # more overcoupled (smaller loaded Q) always escapes more
    assert escape_efficiency(q_i, q_l * 0.5) > eta or ratio == 1.0


def test_escape_efficiency_rejects_inverted_qs():
    with pytest.raises(DomainError):
        escape_efficiency(0.83e6, 10.1e6)


@pytest.mark.parametrize("omega0", [OMEGA0_1560, 1e15])
def test_escape_efficiency_matches_the_model(omega0):
    # one quantity, two formulas: 1 - Q_L/Q_i here, kappa_e/kappa on the model,
    # with kappa_e = kappa - kappa_i from the rounded rates; each rounds a few
    # times, so on eta in (0, 1) they agree to 4 units of 2**-52
    worst = 0.0
    for q_i in np.geomspace(1e4, 1e9, 21):
        for ratio in np.linspace(0.001, 0.999, 37):
            q_i, q_l = float(q_i), float(q_i * ratio)
            model = ResonatorModel.from_quality_factors(omega0, q_i, q_l)
            worst = max(worst, abs(escape_efficiency(q_i, q_l) - model.eta_escape))
    assert worst <= 4 * 2.0 ** -52


def test_resonator_from_quality_factors():
    omega0 = wavelength_to_omega(1560e-9)
    res = ResonatorModel.from_quality_factors(omega0, q_intrinsic=10.1e6, q_loaded=0.83e6)
    assert res.kappa == pytest.approx(KAPPA_Q083, rel=1e-6)
    assert res.kappa == pytest.approx(res.kappa_i + res.kappa_e, rel=1e-15)
    assert res.eta_escape == pytest.approx(0.9178217822, rel=1e-9)
    # each rate is omega0/Q of its channel; the loaded rate is their sum
    assert res.kappa == pytest.approx(omega0 / 0.83e6, rel=1e-12)
    assert res.kappa_i == pytest.approx(omega0 / 10.1e6, rel=1e-12)
    assert res.kappa_e == pytest.approx(omega0 / 0.83e6 - omega0 / 10.1e6, rel=1e-12)


def test_resonator_allows_lossless_limit():
    res = ResonatorModel(omega0=1e15, kappa_i=0.0, kappa_e=1e9)
    assert res.eta_escape == 1.0
    assert escape_efficiency(math.inf, 0.83e6) == 1.0
    assert kappa_from_q(OMEGA0_1560, math.inf) == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: wavelength_to_omega(math.nan), "wavelength must be positive"),
    (lambda: kappa_from_q(math.nan, 0.83e6), "omega0 must be positive"),
    (lambda: kappa_from_q(OMEGA0_1560, math.nan), "quality factor must be positive"),
    (lambda: photon_flux(50e-3, math.nan), "omega0 must be positive"),
    (lambda: escape_efficiency(math.nan, 0.83e6), "quality factors must be positive"),
    (lambda: escape_efficiency(10.1e6, math.nan), "quality factors must be positive"),
    (lambda: g0_from_material(math.nan, MaterialParams(2.4e-19, 1.996, 1.0e-16)),
     "omega0 must be positive"),
    (lambda: coupling_rates_from_dip(math.nan, 0.1), "kappa must be positive"),
    (lambda: resonance_t_min(math.nan, 1e8), "total linewidth must be positive"),
    (lambda: wavelength_to_omega(math.inf), "wavelength must be positive"),
    (lambda: kappa_from_q(math.inf, 0.83e6), "omega0 must be positive"),
    (lambda: photon_flux(50e-3, math.inf), "omega0 must be positive"),
    (lambda: g0_from_material(math.inf, MaterialParams(2.4e-19, 1.996, 1.0e-16)),
     "omega0 must be positive"),
    (lambda: escape_efficiency(math.inf, math.inf), "quality factors must be positive"),
    (lambda: coupling_rates_from_dip(math.inf, 0.1), "kappa must be positive"),
    (lambda: resonance_t_min(math.inf, 1e8), "total linewidth must be positive"),
    (lambda: resonance_t_min(-1.0, 2.0), "kappa_e must be positive, got -1.0"),
    (lambda: resonance_t_min(0.0, 2.0), "kappa_e must be positive, got 0.0"),
    (lambda: resonance_t_min(3.0, -1.0), "kappa_i must be non-negative, got -1.0"),
    (lambda: synthesize_trace([1560.0], [(1560.0, math.nan, 0.5)]),
     "dip kappa must be positive and finite, got nan"),
    (lambda: synthesize_trace([1560.0], [(1560.0, math.inf, 0.5)]),
     "dip kappa must be positive and finite, got inf"),
    (lambda: synthesize_trace([1560.0], [(math.inf, 1e9, 0.5)]),
     "dip center_nm must be finite, got inf"),
    (lambda: synthesize_trace([1560.0], [(math.nan, 1e9, 0.5)]),
     "dip center_nm must be finite, got nan"),
    (lambda: synthesize_trace([1560.0], [], noise_rms=math.nan),
     "noise_rms must be non-negative and finite, got nan"),
    (lambda: synthesize_trace([1560.0], [], noise_rms=math.inf),
     "noise_rms must be non-negative and finite, got inf"),
    (lambda: max_onchip_squeezing_db(1.0), r"eta_escape must lie in \[0, 1\), got 1.0"),
    (lambda: MaterialParams(0.0, 1.996, 1.0e-16), "material parameters must be positive"),
    (lambda: ResonatorModel(omega0=1e15, kappa_i=1e8, kappa_e=1e9, g0=-0.5),
     "g0 must be non-negative, got -0.5"),
    (lambda: ResonatorModel.from_quality_factors(OMEGA0_1560, 0.83e6, 10.1e6),
     r"loaded Q \(1.01e\+07\) must be below intrinsic Q \(830000\)"),
    (lambda: PumpDrive(power_on_chip=-1e-3, flux=4.0, a_in=2.0),
     "pump power and flux must be non-negative"),
    (lambda: PumpDrive(power_on_chip=1e-3, flux=4.0, a_in=-2.0),
     "a_in is defined real non-negative"),
], ids=["wavelength", "kappa_omega0", "kappa_q", "flux_omega0", "escape_qi", "escape_ql",
        "g0_omega0", "dip_kappa", "t_min_kappa_e", "wavelength_inf", "kappa_omega0_inf",
        "flux_omega0_inf", "g0_omega0_inf", "escape_both_inf", "dip_kappa_inf",
        "t_min_kappa_e_inf", "t_min_negative_kappa_e", "t_min_zero_kappa_e",
        "t_min_negative_kappa_i", "synth_kappa_nan", "synth_kappa_inf", "synth_center_inf",
        "synth_center_nan", "synth_noise_nan", "synth_noise_inf", "squeezing_bound_eta_one",
        "material_zero_n2", "negative_g0", "inverted_qs", "negative_power", "negative_a_in"])
def test_scalar_helpers_refuse_nan(call, message):
    # NaN fails every comparison, so a check written as x <= 0 let it through;
    # an infinite argument passed it and came back as 0, inf or NaN; a
    # negative rate gave a floor above 1, and a NaN noise level no noise
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


def test_resonator_rejects_bad_rates():
    with pytest.raises(DomainError):
        ResonatorModel(omega0=1e15, kappa_i=-1.0, kappa_e=1e9)
    with pytest.raises(DomainError):
        ResonatorModel(omega0=1e15, kappa_i=1e8, kappa_e=0.0)
    with pytest.raises(DomainError):
        ResonatorModel(omega0=-1e15, kappa_i=1e8, kappa_e=1e9)


RESONATOR_FIELDS = dict(omega0=1e15, kappa_i=1e8, kappa_e=1e9, delta=2e8, d2=1e5, g0=0.5)
PUMP_FIELDS = {"power_on_chip": 1e-3, "flux": 7.9e15, "a_in": math.sqrt(7.9e15)}


@pytest.mark.parametrize("field", list(RESONATOR_FIELDS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_resonator_rejects_non_finite_fields_by_name(field, bad):
    # NaN passed every sign check, and failed only later, as "alpha"
    with pytest.raises(DomainError, match=rf"^{field} must be finite, got {bad}$"):
        ResonatorModel(**{**RESONATOR_FIELDS, field: bad})


@pytest.mark.parametrize("field", ["power_on_chip", "flux", "a_in"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pump_drive_rejects_non_finite_fields_by_name(field, bad):
    with pytest.raises(DomainError, match=rf"^{field} must be finite, got {bad}$"):
        PumpDrive(**{**PUMP_FIELDS, field: bad})


def test_pump_drive_refuses_an_a_in_that_misses_its_flux():
    # the solve takes its roots from flux and its field from a_in: at g0 = 0
    # this drive gave rho = 1.65e7 beside |a0|^2 = 3.3e-9 and residual 0.0
    with pytest.raises(DomainError, match=r"^a_in must be the square root of flux, got 1\.0 "):
        PumpDrive(power_on_chip=1e-3, flux=5e15, a_in=1.0)
    a_in = math.sqrt(PUMP_FIELDS["flux"])
    for off in (1.0 + 1e-12, 1.0 - 1e-12, 0.0):
        with pytest.raises(DomainError, match=r"^a_in must be the square root of flux"):
            PumpDrive(**{**PUMP_FIELDS, "a_in": a_in * off})
    # every drive built by from_power passes, whatever the flux's last bits
    for flux in np.exp(np.random.default_rng(5).uniform(-70.0, 70.0, 10_000)).tolist():
        PumpDrive(power_on_chip=1e-3, flux=flux, a_in=math.sqrt(flux))


# valid fields of each parameter class, then valid integral ones; the
# four detection stages, which detection_chain_total checks as the
# classes check their fields, keep the ids they had as the fields of the
# former DetectionChain class
REAL_FIELDS = {
    ResonatorModel: (RESONATOR_FIELDS, dict(omega0=10**15, kappa_i=0, kappa_e=10**9)),
    PumpDrive: (PUMP_FIELDS, {"power_on_chip": 1, "flux": 4, "a_in": 2}),
    MaterialParams: (
        {"n2": 2.4e-19, "n0": 1.996, "v_eff": 1.0e-16},
        {"n2": 1, "n0": 2, "v_eff": 3},
    ),
    detection_chain_total: (
        {"eta_couple": 0.75, "eta_prop": 0.95, "visibility": 0.98, "eta_pd": 0.88},
        {"eta_couple": 1, "eta_prop": 1, "visibility": 1, "eta_pd": 1},
    ),
}


def row_id(cls):
    return "DetectionChain" if cls is detection_chain_total else cls.__name__


FIELD_CASES = [
    pytest.param(cls, name, id=f"{row_id(cls)}.{name}")
    for cls, (fields, _) in REAL_FIELDS.items()
    for name in fields
]
NON_REAL = {
    "str": "x",
    "numeric str": "1e15",
    "complex": 1 + 0j,
    "None": None,
    "bool": True,
    "sized array": np.array([1e9]),
    "numpy bool": np.bool_(True),
    "numpy complex": np.complex128(1.0),
    "0-d complex array": np.array(1.0 + 0j),
}


@pytest.mark.parametrize("cls, field", FIELD_CASES)
@pytest.mark.parametrize("bad", list(NON_REAL.values()), ids=list(NON_REAL))
def test_non_real_fields_are_refused_by_name(cls, field, bad):
    # bools were stored; the rest raised a TypeError naming no field
    with pytest.raises(DomainError, match=rf"^{field} must be a real number, got "):
        cls(**{**REAL_FIELDS[cls][0], field: bad})


FROM_POWER = {"power_w": 1e-3, "omega0": 1.2e15}


@pytest.mark.parametrize("field", list(FROM_POWER))
@pytest.mark.parametrize("bad", list(NON_REAL.values()), ids=list(NON_REAL))
def test_from_power_refuses_non_real_arguments_by_name(field, bad):
    # a str, None or complex power raised a bare TypeError inside photon_flux
    with pytest.raises(DomainError, match=rf"^{field} must be a real number, got "):
        PumpDrive.from_power(**{**FROM_POWER, field: bad})


def test_from_power_takes_any_real_number():
    pump = PumpDrive.from_power(1e-3, 1.2e15)
    for power, omega0 in ((np.float64(1e-3), np.array(1.2e15)), (1e-3, 12 * 10**14)):
        built = PumpDrive.from_power(power, omega0)
        assert built == pump
        assert all(type(getattr(built, f.name)) is float for f in dataclasses.fields(built))


@pytest.mark.parametrize("cls", list(REAL_FIELDS), ids=row_id)
@pytest.mark.parametrize(
    "number, integral",
    [(np.float64, False), (np.array, False), (int, True), (np.int64, True)],
    ids=["float64", "0-d array", "int", "int64"],
)
def test_real_fields_are_stored_as_python_floats(cls, number, integral):
    fields = REAL_FIELDS[cls][integral]
    built = cls(**{name: number(value) for name, value in fields.items()})
    if dataclasses.is_dataclass(built):
        stored = {f.name: getattr(built, f.name) for f in dataclasses.fields(built)}
    else:  # detection_chain_total returns its one float
        stored = {"result": built}
    for name, value in stored.items():
        assert type(value) is float, name
    assert built == cls(**{name: float(value) for name, value in fields.items()})


def test_an_int_too_large_for_a_float_is_refused_by_name():
    with pytest.raises(DomainError, match=r"^omega0 must be finite, got 1000"):
        ResonatorModel(**{**RESONATOR_FIELDS, "omega0": 10**400})


def test_pump_drive_from_power():
    omega0 = wavelength_to_omega(1560e-9)
    pump = PumpDrive.from_power(0.050, omega0)
    assert pump.flux == pytest.approx(FLUX_50MW, rel=1e-5)
    assert pump.a_in == pytest.approx(math.sqrt(pump.flux), rel=1e-15)
    assert PumpDrive.from_power(0.0, omega0).a_in == 0.0
    with pytest.raises(DomainError):
        PumpDrive.from_power(-1e-3, omega0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="power"):
            PumpDrive.from_power(bad, omega0)


def test_detection_chain_total_and_from_total():
    # the per-stage product; a lumped total enters the config as given
    assert detection_chain_total(1, 1, 1, 1) == 1.0
    assert detection_chain_total(0.61, 1.0, 1.0, 1.0) == 0.61
    stages = {"eta_couple": 0.75, "eta_prop": 0.95, "visibility": 0.98, "eta_pd": 0.88}
    for name in stages:
        for bad in (0.0, 1.2, -0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match=rf"^{name} must lie in \(0, 1\], got "):
                detection_chain_total(**{**stages, name: bad})


def test_g0_material_scaling():
    mat = MaterialParams(n2=2.4e-19, n0=1.996, v_eff=1.0e-16)
    omega0 = wavelength_to_omega(1560e-9)
    base = g0_from_material(omega0, mat)
    # with n2 in m^2/W, hbar*omega0^2*c*n2/(n0^2*V) is in rad/s
    assert base == pytest.approx(
        HBAR * omega0 ** 2 * C_LIGHT * 2.4e-19 / (1.996 ** 2 * 1.0e-16), rel=1e-12
    )
    # doubling the mode volume halves the shift
    assert g0_from_material(omega0, MaterialParams(2.4e-19, 1.996, 2.0e-16)) == pytest.approx(
        base / 2, rel=1e-12
    )
    assert 1.0 < base < 100.0


def test_hbar_and_c_values():
    assert HBAR == pytest.approx(1.0545718e-34, rel=1e-6)
    assert C_LIGHT == 299792458.0
