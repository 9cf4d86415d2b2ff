"""Outputs do not depend on the numeric type that built the parameters.

The parameter dataclasses store every field as a Python float, so a
model and pump built from numpy scalars, 0-d arrays or ints run every
scalar route in float arithmetic and give the float-built bits.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from squeezesim.params import DomainError, PumpDrive, ResonatorModel
from squeezesim.spectra import (
    calibrate_g0_to_optimum,
    pair_moments,
    pair_scattering,
    power_sweep,
    spectrum_grid,
)
from squeezesim.steady_state import (
    BRANCH_POLICIES,
    bistable_flux_window,
    solve_steady_state,
    steady_state_on_branch,
    steady_state_roots,
    threshold_power,
)

OMEGA0 = 1.2074690e15

# each maps a float value to the type under test; an int is used only
# where the value is integral
NUMBERS = {
    "float64": np.float64,
    "0-d array": np.array,
    "int": lambda v: int(v) if v.is_integer() else v,
}


def bits(value):
    """Bit pattern of an output, with the type of every scalar in it."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, complex):
        return (type(value).__name__, value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    return (type(value).__name__, value)


def outcome(route, *args, **kwargs):
    """Bits of a route's result, or the error it raised."""
    try:
        return bits(route(*args, **kwargs))
    except (DomainError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc))


def build(cls, number, **values):
    built = cls(**{name: number(v) for name, v in values.items()})
    for f in dataclasses.fields(built):
        assert type(getattr(built, f.name)) is float, f.name
    return built


def calibration(model, pump, **kwargs):
    """``calibrate_g0_to_optimum``; each of its numeric fields is a Python float."""
    result = calibrate_g0_to_optimum(model, pump, **kwargs)
    for name in ("g0", "x_opt", "rho", "var_min", "var_max", "theta_opt"):
        assert type(getattr(result, name)) is float, name
    return result


def reachable_power(model, fallback):
    """Threshold power of pair 1, or ``fallback`` where there is none."""
    try:
        p_th = threshold_power(model)
    except DomainError:  # g0 = 0
        return fallback
    return p_th if math.isfinite(p_th) else fallback


def outputs(rates, pump_fields, omega, eta, number):
    """Every route's bits for the model and pump built with ``number``."""
    model = build(ResonatorModel, number, **rates)
    pump = build(PumpDrive, number, **pump_fields)
    out = {}
    for policy in BRANCH_POLICIES:
        out[policy] = outcome(solve_steady_state, model, pump, policy)
    for index in range(len(steady_state_roots(model, pump))):
        out[f"branch {index}"] = outcome(steady_state_on_branch, model, pump, index)
    out["threshold_power"] = outcome(threshold_power, model)
    out["bistable_flux_window"] = outcome(bistable_flux_window, model)
    powers = reachable_power(model, 0.05) * np.array([0.0, 0.3, 0.7, 0.95, 1.2])
    out["power_sweep"] = outcome(power_sweep, model, powers, omega=omega, eta_total=eta)
    try:
        steady = solve_steady_state(model, pump)
    except RuntimeError as exc:
        out["steady"] = str(exc)
    else:
        omegas = 0.5 * model.kappa * np.array([0.0, 0.1, 0.5, 2.0])
        thetas = np.linspace(0.0, math.pi, 7)
        out["spectrum_grid"] = outcome(spectrum_grid, model, steady, omegas, thetas, eta_total=eta)
        out["pair_moments"] = outcome(pair_moments, model, steady.rho, steady.a0, omega)
        out["pair_scattering"] = outcome(pair_scattering, model, steady, omega)
    out["calibration"] = outcome(calibration, model, pump, omega=omega, eta_total=eta)
    flat = build(ResonatorModel, number, **{**rates, "delta": 0.0, "d2": 0.0})  # b = 0
    out["calibration b = 0"] = outcome(calibration, flat, pump, omega=omega, eta_total=eta)
    return out


@pytest.mark.parametrize("number", list(NUMBERS.values()), ids=list(NUMBERS))
@settings(max_examples=40, deadline=None)
@given(
    kappa=st.floats(1e8, 1e10),
    eta_esc=st.floats(0.05, 0.99),
    alpha=st.floats(-1.0, 5.0),
    dispersion=st.floats(-0.5, 0.5),
    g0=st.floats(0.05, 20.0),
    fraction=st.floats(0.0, 1.2),
    w=st.floats(0.0, 2.0),
    eta=st.floats(0.05, 1.0),
    integral=st.booleans(),
)
# in numpy-scalar arithmetic var_min here is 0x1.5913b921dd6cbp-1, in floats ...6ccp-1
@example(kappa=1.2e9, eta_esc=0.8123456789, alpha=0.0, dispersion=0.0, g0=1.0,
         fraction=0.5, w=0.3, eta=0.602, integral=False)
@example(kappa=1.2e9, eta_esc=0.9, alpha=2.5, dispersion=0.1, g0=1.0,
         fraction=0.5, w=0.3, eta=0.602, integral=True)  # bistable
def test_outputs_do_not_depend_on_the_scalar_type(
    number, kappa, eta_esc, alpha, dispersion, g0, fraction, w, eta, integral
):
    hk = 0.5 * kappa
    rates = dict(
        omega0=OMEGA0,
        kappa_i=(1.0 - eta_esc) * kappa,
        kappa_e=eta_esc * kappa,
        delta=alpha * hk,
        d2=dispersion * hk,
        g0=g0,
    )
    if integral:
        rates = {name: float(round(v)) for name, v in rates.items()}
    model = ResonatorModel(**rates)
    power = fraction * reachable_power(model, 0.05)
    pump = PumpDrive.from_power(power, OMEGA0)
    pump_fields = {f.name: getattr(pump, f.name) for f in dataclasses.fields(pump)}
    assert PumpDrive.from_power(np.float64(power), OMEGA0) == pump
    omega = w * 0.5 * model.kappa
    assert outputs(rates, pump_fields, omega, eta, number) == outputs(
        rates, pump_fields, omega, eta, float
    )
