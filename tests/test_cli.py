"""Config parsing and command-line behavior, including byte determinism."""

import ast
import errno
import importlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezesim
from squeezesim import cli
from squeezesim.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main
from squeezesim import config as config_module
from squeezesim.config import (
    ConfigError,
    format_config,
    load_config,
    parse_config_text,
    resolve_config,
)
from squeezesim.langevin import load_series
from squeezesim.params import (
    C_LIGHT, HBAR, MaterialParams, PumpDrive, detection_chain_total, g0_from_material,
)
from squeezesim.steady_state import (
    bistable_flux_window,
    steady_state_roots,
    threshold_gain,
    threshold_power,
)
from squeezesim.traces import TransmissionTrace, save_trace, synthesize_trace
from test_reference_outputs import write_fit_trace

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"

MINIMAL = """
resonator.wavelength_nm = 1560.0
resonator.q_intrinsic = 10.1e6
resonator.q_loaded = 0.83e6
resonator.g0_rad_s = 0.5
detection.eta_total = 0.602
drive.power_mw = 0.0
"""


def resolve_text(text):
    return resolve_config(parse_config_text(text))


def override(text, base=MINIMAL):
    """Config text of ``base`` with the keys of ``text`` set to its values."""
    return format_config({**parse_config_text(base), **parse_config_text(text)})


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config


def test_minimal_config_defaults():
    cfg = resolve_text(MINIMAL)
    assert cfg.model.kappa == pytest.approx(1.4547818715700133e9, rel=1e-12)
    assert cfg.model.eta_escape == pytest.approx(0.9178217821782178, rel=1e-12)
    assert cfg.eta_total == pytest.approx(0.602)
    assert cfg.omega == pytest.approx(2 * math.pi * 7.0e6)
    assert cfg.branch_policy == "lowest"
    assert cfg.seed == 0
    assert cfg.powers_w == ()
    assert cfg.values["resonator.fsr_hz"] == 59.3e9
    # scalar omega -> single-point grid
    assert cfg.omega_grid == (cfg.omega,)


def test_eta_end_to_end_is_chain_times_escape():
    cfg = resolve_text(MINIMAL)
    # the escape efficiency lives on the model alone: eta_total is the off-chip
    # part, the lumped key as given or the per-stage product, bit for bit
    assert cfg.eta_end_to_end == cfg.eta_total * cfg.model.eta_escape
    assert cfg.eta_end_to_end == pytest.approx(0.602 * 0.9178217821782178, rel=1e-12)
    for lumped in (0.602, 0.6021708, 1.0, 5e-324):
        given = resolve_text(MINIMAL.replace("0.602", repr(lumped))).eta_total
        assert type(given) is float and given.hex() == lumped.hex()
    stages = (0.75, 0.95, 0.98, 0.88)
    per_stage = MINIMAL.replace(
        "detection.eta_total = 0.602",
        "".join(f"detection.{key} = {value!r}\n" for key, value in
                zip(("eta_couple", "eta_prop", "visibility", "eta_pd"), stages)),
    )
    assert resolve_text(per_stage).eta_total.hex() == detection_chain_total(*stages).hex()


def test_parse_errors_name_key_and_line():
    with pytest.raises(ConfigError, match=r"unknown key 'resonator.qq'"):
        parse_config_text("resonator.qq = 1.0")
    with pytest.raises(ConfigError, match=r"line 1"):
        parse_config_text("no equals sign here")
    with pytest.raises(ConfigError, match=r"seed \(line 2\).*integer"):
        parse_config_text("# c\nseed = 1.5")
    with pytest.raises(ConfigError, match=r"expected a number"):
        parse_config_text("drive.power_mw = ten")
    with pytest.raises(ConfigError, match=r"duplicate key"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match=r"true or false"):
        parse_config_text("fit.detrend = yes")
    with pytest.raises(ConfigError, match=r"one of"):
        parse_config_text("solver.branch_policy = sideways")
    with pytest.raises(ConfigError, match=r"must be finite"):
        parse_config_text("drive.power_mw = inf")
    with pytest.raises(ConfigError, match=r"^drive.powers_mw \(line 1\): empty element in list$"):
        parse_config_text("drive.powers_mw = 1.0, , 2.0")
    with pytest.raises(ConfigError, match=r"^unknown key 'resonator.qq'$"):
        resolve_config({**parse_config_text(MINIMAL), "resonator.qq": 1.0})


def test_one_of_group_errors_cite_field_paths():
    with pytest.raises(ConfigError, match="resonator.wavelength_nm"):
        resolve_text("seed = 1")
    both_loss = MINIMAL + "resonator.kappa_i_rad_s = 1e8\n"
    with pytest.raises(ConfigError, match="resonator loss"):
        resolve_text(both_loss)
    no_detection = MINIMAL.replace("detection.eta_total = 0.602", "")
    with pytest.raises(ConfigError, match="detection"):
        resolve_text(no_detection)
    partial = MINIMAL.replace(
        "detection.eta_total = 0.602", "detection.eta_couple = 0.75"
    )
    with pytest.raises(ConfigError, match="detection.eta_pd"):
        resolve_text(partial)
    mixed = MINIMAL + "detection.eta_pd = 0.88\n"
    with pytest.raises(ConfigError, match=r"\(got detection\.eta_total, detection\.eta_pd\)$"):
        resolve_text(mixed)
    two_g0 = MINIMAL + "calibration.power_mw = 50.0\n"
    with pytest.raises(ConfigError, match="kerr rate"):
        resolve_text(two_g0)
    no_g0 = MINIMAL.replace("resonator.g0_rad_s = 0.5", "")
    with pytest.raises(ConfigError, match="kerr rate"):
        resolve_text(no_g0)
    frac_only = MINIMAL.replace(
        "resonator.g0_rad_s = 0.5", "calibration.threshold_fraction = 0.5"
    )
    with pytest.raises(ConfigError, match="calibration.power_mw"):
        resolve_text(frac_only)
    partial_mat = MINIMAL.replace(
        "resonator.g0_rad_s = 0.5", "material.n0 = 2.0"
    )
    with pytest.raises(ConfigError, match="material"):
        resolve_text(partial_mat)


# a valid value for every key of config._GROUPS
GROUP_VALUES = {
    "resonator.q_intrinsic": 10.1e6,
    "resonator.kappa_i_rad_s": 1.1955e8,
    "resonator.q_loaded": 0.83e6,
    "resonator.kappa_e_rad_s": 1.34e9,
    "detection.eta_total": 0.602,
    "detection.eta_couple": 0.75,
    "detection.eta_prop": 0.95,
    "detection.visibility": 0.97,
    "detection.eta_pd": 0.88,
    "resonator.g0_rad_s": 0.5,
    "material.n2_m2_per_w": 2.4e-19,
    "material.n0": 1.99,
    "material.v_eff_m3": 1.0e-16,
    "calibration.power_mw": 50.0,
    "calibration.threshold_fraction": 0.5,
    "analysis.omega_min_hz": 1e6,
    "analysis.omega_max_hz": 1e9,
}


def _group_cases(group):
    """(config, expected error or None) for every subset of ``group``'s keys."""
    alternatives = config_module._GROUPS[group]
    keys = [key for needs, may in alternatives for key in needs + may]
    base = {k: v for k, v in parse_config_text(MINIMAL).items() if k not in keys}
    # a threshold fraction needs a reachable pair threshold, which the
    # detuned, dispersive resonator has and MINIMAL's lacks
    detuned = {"resonator.d2_rad_s": 1.5e9, "drive.detuning_rad_s": 6.0e8}
    for n in range(len(keys) + 1):
        for subset in map(set, itertools.combinations(keys, n)):
            values = {**base, **{key: GROUP_VALUES[key] for key in subset}}
            if "calibration.threshold_fraction" in subset:
                values.update(detuned)
            if any(set(needs) <= subset <= set(needs + may) for needs, may in alternatives):
                yield values, None
                continue
            touched = [(needs, may) for needs, may in alternatives if subset & set(needs + may)]
            if len(touched) == 1:
                named = [key for key in touched[0][0] if key not in subset]
                yield values, (f"{group}: missing ", named)
            else:
                yield values, (f"{group}: supply exactly one of ", keys)


@pytest.mark.parametrize("group", sorted(config_module._GROUPS))
def test_each_group_accepts_exactly_one_whole_alternative(tmp_path, group):
    # exhaustive over the subsets of the group's keys: a whole alternative
    # resolves; anything else names each missing or conflicting key
    refused = []
    for values, expected in _group_cases(group):
        if expected is None:
            resolve_config(values)
            continue
        start, named = expected
        with pytest.raises(ConfigError) as info:
            resolve_config(values)
        message = str(info.value)
        assert message.startswith(start), message
        assert all(key in message for key in named), message
        refused.append(values)
    path = write_cfg(tmp_path, format_config(refused[0]))
    assert main(["threshold", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_validate_options_name_their_keys():
    for text, key in (
        ("validate.batch_size = 0", "validate.batch_size"),
        ("validate.batch_size = -2", "validate.batch_size"),
        ("validate.n_segments = 1", "validate.n_segments"),
        ("validate.n_segments = 0", "validate.n_segments"),
        ("validate.n_random = -1", "validate.n_random"),
    ):
        with pytest.raises(ConfigError, match=key):
            resolve_text(MINIMAL + text + "\n")
    cfg = resolve_text(
        MINIMAL + "validate.batch_size = 1\nvalidate.n_segments = 2\nvalidate.n_random = 0\n"
    )
    assert cfg.values["validate.batch_size"] == 1
    assert cfg.values["validate.n_segments"] == 2
    assert cfg.values["validate.n_random"] == 0


@pytest.mark.parametrize(
    "text, key",
    [
        ("analysis.samples_per_period = 401", "analysis.samples_per_period"),
        ("analysis.samples_per_period = 2", "analysis.samples_per_period"),
        ("analysis.periods = 0", "analysis.periods"),
        ("analysis.scan_time_s = 0.0", "analysis.scan_time_s"),
        ("analysis.vbw_hz = 400e3", "analysis.vbw_hz"),
        ("validate.min_pass_fraction = 0.0", "validate.min_pass_fraction"),
        ("validate.n_sigma = 0.0", "validate.n_sigma"),
        ("validate.max_db_err = -0.1", "validate.max_db_err"),
        ("fit.min_prominence = 0.0", "fit.min_prominence"),
        ("fit.min_spacing_nm = -0.01", "fit.min_spacing_nm"),
        ("fit.min_samples_per_fwhm = -1", "fit.min_samples_per_fwhm"),
        ("resonator.wavelength_nm = -1560", "resonator.wavelength_nm"),
        ("resonator.q_intrinsic = -1", "resonator.q_intrinsic"),
        ("resonator.q_loaded = 0", "resonator.q_loaded"),
        ("resonator.kappa_i_rad_s = -1", "resonator.kappa_i_rad_s"),
        ("resonator.fsr_hz = -5", "resonator.fsr_hz"),
        ("resonator.g0_rad_s = -0.5", "resonator.g0_rad_s"),
        ("material.n2_m2_per_w = -2.4e-19", "material.n2_m2_per_w"),
        ("material.n0 = 0", "material.n0"),
        ("material.v_eff_m3 = -1e-16", "material.v_eff_m3"),
        ("calibration.power_mw = 0", "calibration.power_mw"),
        ("calibration.threshold_fraction = 1.5", "calibration.threshold_fraction"),
        ("calibration.threshold_fraction = 1.0", "calibration.threshold_fraction"),
        ("detection.eta_total = 1.5", "detection.eta_total"),
        ("detection.eta_couple = 1.5", "detection.eta_couple"),
        ("detection.eta_prop = 0", "detection.eta_prop"),
        ("detection.visibility = 1.01", "detection.visibility"),
        ("detection.eta_pd = -0.5", "detection.eta_pd"),
        ("analysis.rbw_hz = -1", "analysis.rbw_hz"),
        ("analysis.n_omega = 1", "analysis.n_omega"),
        ("drive.powers_mw = 1.0, -1.0", "drive.powers_mw"),
        ("analysis.omega_min_hz = 1e6", "analysis"),
        ("analysis.omega_max_hz = 1e9", "analysis"),
        ("analysis.omega_min_hz = 2e6\nanalysis.omega_max_hz = 1e6", "analysis.omega_min_hz"),
    ],
)
def test_out_of_range_option_names_its_key_and_exits_2(tmp_path, text, key):
    text = override(text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}:"):
        resolve_text(text)
    path = write_cfg(tmp_path, text)
    assert main(["phase-scan", "--config", path, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_option_range_ends_are_accepted():
    cfg = resolve_text(
        MINIMAL
        + "analysis.samples_per_period = 4\nanalysis.periods = 1\n"
        + "analysis.vbw_hz = 300e3\nvalidate.min_pass_fraction = 1.0\n"
        + "fit.min_spacing_nm = 0.0\nfit.min_samples_per_fwhm = 0\n"
    )
    assert cfg.values["analysis.vbw_hz"] == cfg.values["analysis.rbw_hz"]
    assert cfg.values["validate.min_pass_fraction"] == 1.0
    lossless = MINIMAL.replace(
        "resonator.q_intrinsic = 10.1e6", "resonator.kappa_i_rad_s = 0.0"
    )
    cfg = resolve_text(
        override(
            "resonator.g0_rad_s = 0.0\ndetection.eta_total = 1.0\n"
            "analysis.vbw_hz = 0.0\ndrive.powers_mw = 0.0\n"
            "analysis.omega_min_hz = 1e6\nanalysis.omega_max_hz = 1e9\n"
            "analysis.n_omega = 2\nanalysis.n_theta = 3\n",
            base=lossless,
        )
    )
    assert (cfg.model.kappa_i, cfg.model.g0, cfg.eta_total) == (0.0, 0.0, 1.0)
    assert (cfg.power_w, cfg.powers_w, len(cfg.omega_grid)) == (0.0, (0.0,), 2)
    per_stage = MINIMAL.replace(
        "detection.eta_total = 0.602",
        "detection.eta_couple = 1\ndetection.eta_prop = 1\n"
        "detection.visibility = 1\ndetection.eta_pd = 1",
    )
    assert resolve_text(per_stage).eta_total == 1.0


def test_rate_combination_and_ordering():
    text = MINIMAL.replace(
        "resonator.q_intrinsic = 10.1e6", "resonator.kappa_i_rad_s = 1.1955e8"
    )
    cfg = resolve_text(text)
    # loaded Q fixes the total; external = total - intrinsic
    assert cfg.model.kappa == pytest.approx(1.4547818715700133e9, rel=1e-6)
    assert cfg.model.kappa_i == pytest.approx(1.1955e8)
    swapped = MINIMAL.replace("resonator.q_loaded = 0.83e6", "resonator.q_loaded = 20e6")
    with pytest.raises(ConfigError, match="positive"):
        resolve_text(swapped)
    no_escape = MINIMAL.replace("resonator.q_loaded = 0.83e6", "resonator.kappa_e_rad_s = 0.0")
    with pytest.raises(ConfigError, match="resonator.kappa_e_rad_s"):
        resolve_text(no_escape)


def test_echo_roundtrip_is_identity():
    cfg = resolve_text(MINIMAL + "drive.powers_mw = 0.0, 1.5, 3.0\nseed = 11\n")
    echo = format_config(cfg.values)
    again = resolve_config(parse_config_text(echo))
    assert dict(again.values) == dict(cfg.values)
    assert format_config(again.values) == echo
    # empty list round-trips too
    empty = resolve_text(MINIMAL)
    assert "drive.powers_mw =" in format_config(empty.values)
    assert resolve_config(parse_config_text(format_config(empty.values))).powers_w == ()


def _wrong_typed(kind):
    """Values of the wrong type for a ``_SCHEMA`` kind."""
    if kind == "float":
        return ["0.5", True, None, [0.5], 1j, math.nan, math.inf, 10**400]
    if kind == "int":
        return [4.5, 3.0, True, "3", None]
    if kind == "bool":
        return ["false", "true", 0, 1, None, np.bool_(True)]
    if kind == "floats":
        return [1.0, "1.0, 2.0", None, [1.0, "2"], [True], (math.inf,), np.array([1.0])]
    first = kind.split(":", 1)[1].split("|")[0]
    return [first.upper(), " " + first, 1, None, [first]]


SCHEMA_KINDS = sorted({kind for kind, _, _ in config_module._SCHEMA.values()})


@pytest.mark.parametrize("kind", SCHEMA_KINDS)
def test_hand_built_config_refuses_a_wrong_type_by_key(kind):
    key = next(k for k, row in config_module._SCHEMA.items() if row[0] == kind)
    for bad in _wrong_typed(kind):
        values = {**parse_config_text(MINIMAL), key: bad}
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            resolve_config(values)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            format_config(values)


@pytest.mark.parametrize("key, bad, base", [
    ("fit.detrend", "false", MINIMAL),
    ("analysis.n_theta", 91.7, MINIMAL),
    ("seed", 4.5, MINIMAL),
    ("drive.power_mw", "50", MINIMAL),
], ids=["detrend", "n_theta", "seed", "power_mw"])
def test_hand_built_config_is_not_misread(key, bad, base):
    # each would be read as another value (detrending on, 91, seed 4) or raise a TypeError
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected"):
        resolve_config({**parse_config_text(base), key: bad})


def test_an_int_for_a_float_key_resolves_as_the_equal_float():
    floats = {**parse_config_text(MINIMAL), "drive.powers_mw": (0.0, 1.0, 3.0)}
    ints = {k: int(v) if type(v) is float and v.is_integer() else v for k, v in floats.items()}
    ints["drive.powers_mw"] = [0, 1, np.int64(3)]
    assert ints["resonator.q_loaded"] == 830000 and type(ints["resonator.q_loaded"]) is int
    a, b = resolve_config(floats), resolve_config(ints)
    assert {k: (type(v), v) for k, v in b.values.items()} == {
        k: (type(v), v) for k, v in a.values.items()
    }
    assert format_config(b.values) == format_config(a.values)
    assert (b.model, b.eta_total, b.power_w, b.powers_w) == (
        a.model, a.eta_total, a.power_w, a.powers_w
    )
    assert type(b.seed) is int and type(b.n_theta) is int
    stages = ("eta_couple", "eta_prop", "visibility", "eta_pd")
    per_stage = {**ints, **{f"detection.{key}": 1 for key in stages}}
    del per_stage["detection.eta_total"]
    eta_total = resolve_config(per_stage).eta_total
    assert eta_total == 1.0 and type(eta_total) is float


def test_library_defaults_are_the_config_defaults():
    # the CLI passes each of these keys' values, so a library call that
    # leaves them out must run as a config that leaves the keys out
    from squeezesim import langevin, spectra, steady_state, traces

    fed = {
        spectra.phase_scan_trace: {
            "periods": "analysis.periods", "samples_per_period": "analysis.samples_per_period",
            "scan_time": "analysis.scan_time_s", "rbw": "analysis.rbw_hz",
            "vbw": "analysis.vbw_hz",
        },
        langevin.cross_validate: {
            "n_segments": "validate.n_segments", "batch_size": "validate.batch_size",
            "n_sigma": "validate.n_sigma", "max_db_err": "validate.max_db_err",
            "min_pass_fraction": "validate.min_pass_fraction",
        },
        traces.analyze_trace: {
            "detrend": "fit.detrend", "min_prominence": "fit.min_prominence",
            "min_spacing_nm": "fit.min_spacing_nm", "regime": "fit.regime",
            "min_samples_per_fwhm": "fit.min_samples_per_fwhm",
        },
    }
    solver_keys = {"rtol": "solver.residual_rtol", "branch_policy": "solver.branch_policy"}
    for module in (steady_state, spectra):
        for _, func in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(func).parameters
            keys = {
                name: key for name, key in solver_keys.items()
                if name in params and params[name].default is not inspect.Parameter.empty
            }
            if func.__module__ == module.__name__ and keys:
                fed[func] = keys
    assert {f.__name__ for f in fed} >= {
        "solve_steady_state", "operating_points", "power_sweep"
    }
    differ = [
        f"{func.__name__}({name}={inspect.signature(func).parameters[name].default!r}): "
        f"{key} = {config_module._SCHEMA[key][1]!r}"
        for func, keys in fed.items()
        for name, key in keys.items()
        if inspect.signature(func).parameters[name].default != config_module._SCHEMA[key][1]
    ]
    assert differ == []


def test_seed_override(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "seed = 3\n")
    cfg = load_config(path, seed_override=9)
    assert cfg.seed == 9
    assert "seed = 9" in format_config(cfg.values)
    with pytest.raises(ConfigError, match="seed"):
        load_config(path, seed_override=-1)


def test_material_route_matches_direct_formula():
    text = MINIMAL.replace(
        "resonator.g0_rad_s = 0.5",
        "material.n2_m2_per_w = 2.4e-19\nmaterial.n0 = 1.99\nmaterial.v_eff_m3 = 1.0e-16",
    )
    cfg = resolve_text(text)
    omega0 = 2 * math.pi * C_LIGHT / 1560e-9
    expected = g0_from_material(omega0, MaterialParams(n2=2.4e-19, n0=1.99, v_eff=1.0e-16))
    assert cfg.model.g0 == pytest.approx(expected, rel=1e-12)
    # g0 is always in rad/s: no key selects another unit
    with pytest.raises(ConfigError, match="unknown key 'material.include_c'"):
        parse_config_text(text + "\nmaterial.include_c = true\n")


def test_threshold_fraction_calibration_hits_fraction():
    text = MINIMAL.replace(
        "resonator.g0_rad_s = 0.5",
        "calibration.power_mw = 50.0\ncalibration.threshold_fraction = 0.59",
    )
    text += "resonator.d2_rad_s = 1.5e9\ndrive.detuning_rad_s = 6.0e8\n"
    text = text.replace("drive.power_mw = 0.0", "drive.power_mw = 50.0")
    cfg = resolve_text(text)
    assert cfg.model.g0 > 0
    from squeezesim.params import PumpDrive
    from squeezesim.steady_state import solve_steady_state

    pump = PumpDrive.from_power(0.050, cfg.model.omega0)
    steady = solve_steady_state(cfg.model, pump, cfg.branch_policy)
    gain = cfg.model.g0 * steady.rho
    gain_th = threshold_gain(cfg.model, 1)
    assert gain / gain_th == pytest.approx(0.59, rel=1e-9)
    # with delta = d2 = 0 the pair offset never lets the gain catch up
    unreachable = MINIMAL.replace(
        "resonator.g0_rad_s = 0.5",
        "calibration.power_mw = 50.0\ncalibration.threshold_fraction = 0.59",
    )
    with pytest.raises(ConfigError, match="^pair threshold is unreachable at this detuning"):
        resolve_text(unreachable)


def test_optimum_calibration_route_records_result():
    text = MINIMAL.replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
    text += "drive.detuning_rad_s = 4.0e8\n"
    cfg = resolve_text(text)
    assert cfg.calibration is not None
    assert cfg.model.g0 == pytest.approx(cfg.calibration.g0)
    assert 0 < cfg.calibration.x_opt < 3


# ------------------------------------------------------------------- cli


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_vacuum_all_zero_db(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["omega_hz", "theta_rad", "variance_db"]
    assert rows and all(float(r[2]) == 0.0 for r in rows)
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["squeezing_db"] == 0.0
    assert summary["anti_squeezing_db"] == 0.0
    assert (out / "effective_config.cfg").exists()


def test_spectrum_reference_config_summary(tmp_path):
    out = tmp_path / "ref"
    code = main(["spectrum", "--config", str(REFERENCE_CFG), "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert 2.5 < summary["squeezing_db"] < 3.1
    assert 5.9 < summary["anti_squeezing_db"] < 6.6
    assert summary["threshold_margin_rad_s"] > 0
    assert summary["eta_end_to_end"] == pytest.approx(0.5527, rel=1e-3)
    # grid file covers n_omega x n_theta points
    _, rows = read_csv(out / "spectrum.csv")
    assert len(rows) == summary["n_omega"] * summary["n_theta"]


def test_spectrum_summary_records_the_optimum_calibration(tmp_path):
    # with delta = d2 = 0 the optimum is x_opt = sqrt((1 + w^2)/3), where the
    # pair term G is 12 and var_min = 1 - (2/3) eta_escape eta_chain
    text = override("calibration.power_mw = 50.0\ndrive.power_mw = 50.0\n")
    text = text.replace("resonator.g0_rad_s = 0.5\n", "")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "spectrum_summary.json").read_text())
    cfg = load_config(path)
    w = cfg.omega / (0.5 * cfg.model.kappa)
    calibration = summary["calibration"]
    assert calibration["x_opt"] == pytest.approx(math.sqrt((1 + w * w) / 3), rel=1e-12)
    assert calibration["g0_rad_s"] == summary["g0_rad_s"] == cfg.model.g0
    assert calibration["branch"] == "single"
    assert calibration["rho"] == pytest.approx(summary["rho"], rel=1e-12)
    assert summary["squeezing_db"] == pytest.approx(
        -10 * math.log10(1 - 2 / 3 * cfg.eta_end_to_end), rel=1e-9
    )
    assert summary["squeezing_db"] == pytest.approx(1.9953, abs=1e-4)


def test_spectrum_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(["spectrum", "--config", str(REFERENCE_CFG), "--out", str(out)])
            == EXIT_OK
        )
        outs.append(out)
    for fname in ("spectrum.csv", "spectrum_summary.json", "effective_config.cfg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_fsr_hz_is_recorded_only(tmp_path):
    # the key is echoed into effective_config.cfg and feeds no computation
    text = REFERENCE_CFG.read_text(encoding="utf-8")
    assert text.count("resonator.fsr_hz = 59.3e9\n") == 1
    other = write_cfg(tmp_path, text.replace("resonator.fsr_hz = 59.3e9\n", "resonator.fsr_hz = 1e9\n"))
    for command in ("threshold", "spectrum"):
        outs = [tmp_path / command / name for name in ("ref", "other")]
        for cfg, out in zip((str(REFERENCE_CFG), other), outs):
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert "effective_config.cfg" in names and len(names) > 1
        for name in names:
            ref, got = ((out / name).read_bytes() for out in outs)
            if name != "effective_config.cfg":
                assert got == ref, (command, name)
                continue
            changed = [
                (a, b) for a, b in zip(ref.splitlines(), got.splitlines(), strict=True) if a != b
            ]
            assert [(a.split(b" = ")[0], b.split(b" = ")[0]) for a, b in changed] == [
                (b"resonator.fsr_hz", b"resonator.fsr_hz")
            ]
            assert float(changed[0][1].split(b" = ")[1]) == 1e9


def test_spectrum_above_threshold_aborts(tmp_path):
    # toy scale: kappa = 1 rad/s, pair offset 2.5 half-linewidths, driven
    # to twice the threshold power on the monostable pump curve
    from squeezesim.params import ResonatorModel

    model = ResonatorModel(
        omega0=2 * math.pi * C_LIGHT / 1560e-9,
        kappa_i=0.1,
        kappa_e=0.9,
        delta=0.0,
        d2=2.5,
        g0=1.0,
    )
    p_th = threshold_power(model)
    text = f"""
resonator.wavelength_nm = 1560.0
resonator.kappa_i_rad_s = 0.1
resonator.kappa_e_rad_s = 0.9
resonator.d2_rad_s = 2.5
resonator.g0_rad_s = 1.0
detection.eta_total = 0.602
drive.power_mw = {2.0 * p_th * 1e3!r}
"""
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_FAIL
    assert not (out / "spectrum.csv").exists()


def test_sweep_empty_powers_header_only(tmp_path):
    path = write_cfg(tmp_path, MINIMAL + "drive.powers_mw =\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["power_mw", "s_min_db", "s_max_db", "rho", "threshold_flag"]
    assert rows == []


def sweep_rows(tmp_path, name, powers):
    text = (
        MINIMAL.replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
        + "drive.detuning_rad_s = 4.0e8\n"
        + f"drive.powers_mw = {', '.join(repr(p) for p in powers)}\n"
    )
    path = write_cfg(tmp_path, text, name + ".cfg")
    out = tmp_path / name
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "sweep.csv")
    return rows


def test_sweep_order_and_jobs_invariance(tmp_path):
    powers = [0.0, 10.0, 20.0, 30.0]
    rows = sweep_rows(tmp_path, "fwd", powers)
    assert [float(r[0]) for r in rows] == powers  # input order preserved
    shuffled = sweep_rows(tmp_path, "shuf", [30.0, 0.0, 20.0, 10.0])
    by_power = {r[0]: r for r in rows}
    assert all(by_power[r[0]] == r for r in shuffled)  # same row per power
    # sweeps run in process, so there is no worker count to set
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(REFERENCE_CFG), "--out", str(tmp_path), "--jobs", "2"])
    assert info.value.code == EXIT_CONFIG


def test_sweep_flags_above_threshold(tmp_path):
    text = f"""
resonator.wavelength_nm = 1560.0
resonator.kappa_i_rad_s = 0.1
resonator.kappa_e_rad_s = 0.9
resonator.d2_rad_s = 2.5
resonator.g0_rad_s = 1.0
detection.eta_total = 0.602
"""
    from squeezesim.params import ResonatorModel

    model = ResonatorModel(
        omega0=2 * math.pi * C_LIGHT / 1560e-9,
        kappa_i=0.1,
        kappa_e=0.9,
        d2=2.5,
        g0=1.0,
    )
    p_th_mw = threshold_power(model) * 1e3
    text += f"drive.powers_mw = {0.5 * p_th_mw!r}, {2.0 * p_th_mw!r}\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "sweep.csv")
    assert [r[4] for r in rows] == ["0", "1"]
    assert rows[1][1] == "nan"
    assert float(rows[0][1]) < 0.0


def test_phase_scan_zero_jitter_flat(tmp_path):
    text = (
        MINIMAL.replace("drive.power_mw = 0.0", "drive.power_mw = 30.0")
        .replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
        + "drive.detuning_rad_s = 4.0e8\nanalysis.vbw_hz = 0.0\n"
    )
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["phase-scan", "--config", path, "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "phase_scan.csv")
    assert header == ["time_s", "theta_rad", "measured_db", "shot_db", "true_db"]
    assert all(r[2] == r[4] for r in rows)  # measured == true, no jitter
    assert all(float(r[3]) == 0.0 for r in rows)  # shot reference at 0 dB
    # scan starts at the squeezed angle and repeats every half-turn period
    assert float(rows[0][2]) == min(float(r[2]) for r in rows)
    n_per = 400
    assert float(rows[0][4]) == pytest.approx(float(rows[n_per][4]), abs=1e-12)


def test_threshold_command_reports(tmp_path):
    text = MINIMAL.replace("drive.power_mw = 0.0", "drive.power_mw = 30.0")
    text = text.replace("resonator.g0_rad_s = 0.5", "resonator.g0_rad_s = 0.4620629\n")
    text += "drive.detuning_rad_s = 6.0e8\nresonator.d2_rad_s = 1.5e9\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["threshold", "--config", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    cfg = load_config(path)
    assert report["threshold_power_mw"] == pytest.approx(
        threshold_power(cfg.model) * 1e3, rel=1e-12
    )
    assert report["bistable"] is False
    assert report["at_power"]["below_threshold"] is True


def test_threshold_command_reports_the_bistable_window(tmp_path):
    text = override("resonator.g0_rad_s = 0.3\ndrive.detuning_rad_s = 2.0e9\n")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["threshold", "--config", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    model = load_config(path).model
    lo, hi = bistable_flux_window(model)
    assert report["bistable"] is True
    assert report["bistable_window_mw"] == [
        flux * HBAR * model.omega0 * 1e3 for flux in (lo, hi)
    ]
    assert report["bistable_window_mw"] == pytest.approx([324.39, 500.88], abs=0.01)

    def n_roots(power_mw):
        pump = PumpDrive.from_power(power_mw * 1e-3, model.omega0)
        return len(steady_state_roots(model, pump))

    lo_mw, hi_mw = report["bistable_window_mw"]
    assert [n_roots(p) for p in (0.99 * lo_mw, 0.5 * (lo_mw + hi_mw), 1.01 * hi_mw)] == [
        1, 3, 1
    ]


def make_trace_file(tmp_path, name="trace.csv", n_dips=3, noise=0.002, seed=3):
    nu0 = C_LIGHT / 1560.3e-9
    centers = [C_LIGHT / (nu0 + k * 59.3e9) * 1e9 for k in range(n_dips)]
    grid = np.arange(1559.2, 1560.5, 5e-5)
    kappa = 1.4547818715700133e9
    values = synthesize_trace(
        grid,
        [(c, kappa, 0.69830017) for c in centers],
        baseline=lambda w: 0.97 + 0.03 * np.cos(2 * np.pi * (w - 1559.2) / 0.9),
        noise_rms=noise,
        seed=seed,
    )
    path = tmp_path / name
    save_trace(TransmissionTrace(grid, np.clip(values, 0.0, 1.05)), path)
    return str(path), centers


def test_fit_and_stats_commands(tmp_path):
    trace_path, centers = make_trace_file(tmp_path)
    out = tmp_path / "out"
    assert main(["fit", trace_path, "--out", str(out)]) == EXIT_OK
    fits = json.loads((out / "fits.json").read_text())
    assert len(fits) == len(centers)
    expected_fields = {
        "center_nm",
        "fwhm_pm",
        "t_floor",
        "kappa",
        "kappa_e",
        "kappa_i",
        "q_loaded",
        "q_coupling",
        "q_intrinsic",
        "eta",
        "regime",
        "fit_rms",
        "scale",
        "n_samples_fwhm",
        "stderr",
        "source",
    }
    assert expected_fields <= set(fits[0])
    assert all(f["regime"] == "overcoupled" for f in fits)
    for fit in fits:
        assert fit["q_intrinsic"] == pytest.approx(10.1e6, rel=0.05)
        assert fit["q_loaded"] == pytest.approx(0.83e6, rel=0.02)
    stats = json.loads((out / "fit_stats.json").read_text())
    assert stats["n_fits"] == len(centers)
    assert stats["traces"][0]["fsr_hz"] == pytest.approx(59.3e9, rel=1e-3)
    assert stats["eta"]["mode"] == pytest.approx(0.918, abs=0.02)

    # stats command aggregates saved fit records
    out2 = tmp_path / "out2"
    assert main(["stats", str(out / "fits.json"), "--out", str(out2)]) == EXIT_OK
    agg = json.loads((out2 / "fit_stats.json").read_text())
    assert agg["n_fits"] == len(centers)
    assert agg["q_loaded"]["mode"] == pytest.approx(0.83e6, rel=0.05)


def test_fit_config_options_reach_the_fits(tmp_path):
    trace_path, centers = make_trace_file(tmp_path)
    runs = {}
    for name, text in (
        ("ambiguous", "fit.regime = ambiguous\n"),
        ("spaced", "fit.min_spacing_nm = 1.0\n"),
    ):
        out = tmp_path / name
        path = write_cfg(tmp_path, MINIMAL + text, name=name + ".cfg")
        assert main(["fit", trace_path, "--config", path, "--out", str(out)]) == EXIT_OK
        assert text in (out / "effective_config.cfg").read_text()
        runs[name] = (
            json.loads((out / "fits.json").read_text()),
            json.loads((out / "fit_stats.json").read_text()),
        )
    fits, _ = runs["ambiguous"]
    assert [f["regime"] for f in fits] == ["ambiguous"] * len(centers)
    # the three dips sit 0.48 nm apart, so a 1 nm spacing keeps one of them
    fits, stats = runs["spaced"]
    assert len(fits) == stats["traces"][0]["n_detected"] == 1
    assert stats["traces"][0]["fsr_hz"] is None


FIT_ECHO = (
    "fit.detrend = true\n"
    "fit.min_prominence = 0.05\n"
    "fit.min_samples_per_fwhm = 15\n"
    "fit.min_spacing_nm = 0.0\n"
    "fit.regime = ambiguous\n"
)


def test_fit_and_stats_read_only_the_fit_keys(tmp_path, caplog):
    # no resonator, detection or Kerr group: fit and stats resolve the
    # fit.* keys alone, and echo those five
    trace_path, centers = make_trace_file(tmp_path)
    path = write_cfg(tmp_path, "fit.regime = ambiguous\n", name="fit_only.cfg")
    out = tmp_path / "fit"
    assert main(["fit", trace_path, "--config", path, "--out", str(out)]) == EXIT_OK
    assert (out / "effective_config.cfg").read_text() == FIT_ECHO
    fits = json.loads((out / "fits.json").read_text())
    assert [f["regime"] for f in fits] == ["ambiguous"] * len(centers)
    stats = tmp_path / "stats"
    fits_json = str(out / "fits.json")
    assert main(["stats", fits_json, "--config", path, "--out", str(stats)]) == EXIT_OK
    assert (stats / "effective_config.cfg").read_text() == FIT_ECHO
    # the fit.* ranges and the parser still apply
    for text, message in (
        ("fit.min_prominence = 0.0\n", "fit.min_prominence: must be positive"),
        ("fit.regime = sideways\n", "fit.regime (line 1)"),
        ("fit.typo = 1\n", "unknown key 'fit.typo'"),
    ):
        caplog.clear()
        bad = write_cfg(tmp_path, text, name="bad.cfg")
        for command, target in (("fit", trace_path), ("stats", fits_json)):
            assert main([command, target, "--config", bad, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
            assert message in caplog.text


_TRACES_PROBE = """
import json, sys
from squeezesim.cli import main
code = main(["threshold", "--config", sys.argv[1], "--out", "out"])
print(json.dumps({"code": code, "traces": "squeezesim.traces" in sys.modules}))
"""


def test_only_fit_and_stats_import_traces(tmp_path):
    # a fresh interpreter, so no earlier test has imported squeezesim.traces
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACES_PROBE, str(REFERENCE_CFG)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": EXIT_OK, "traces": False}


def test_fit_maps_a_trace_parse_error_to_exit_1(tmp_path, caplog):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength_nm,transmission\n1550.0,abc\n")
    assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
    assert "line 2" in caplog.text


def test_fit_nothing_found_fails(tmp_path):
    grid = np.linspace(1559.0, 1560.0, 2000)
    flat = TransmissionTrace(grid, np.full(grid.size, 0.99))
    path = tmp_path / "flat.csv"
    save_trace(flat, path)
    out = tmp_path / "out"
    assert main(["fit", str(path), "--out", str(out)]) == EXIT_FAIL
    assert json.loads((out / "fits.json").read_text()) == []


def test_fit_short_trace_names_its_length(tmp_path, caplog):
    path = tmp_path / "two.csv"
    save_trace(TransmissionTrace(np.array([1550.0, 1550.1]), np.array([0.9, 0.8])), path)
    assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
    assert "cannot detrend a trace of 2 samples" in caplog.text



def test_fit_and_stats_on_a_directory_fail_with_one_line(tmp_path, caplog):
    for command in ("fit", "stats"):
        caplog.clear()
        assert main([command, str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert str(tmp_path) in errors[0] and "\n" not in errors[0], errors[0]


def test_stats_names_file_and_record_of_a_bad_fit_file(tmp_path, caplog):
    good = {"q_intrinsic": 1e7, "q_loaded": 8e5, "q_coupling": 9e5, "eta": 0.9}
    cases = (
        ("broken.json", b"[{", "not valid JSON"),
        ("latin1.json", b"\xff[]", "not valid JSON"),
        ("text_q.json", json.dumps([good, {**good, "q_intrinsic": "abc"}]), "fit record 1"),
        ("scalar.json", json.dumps([good, good, 5]), "fit record 2 is not a JSON object"),
        ("object.json", json.dumps(good), "expected a JSON list of fit records"),
        (
            "no_eta.json",
            json.dumps([{k: v for k, v in good.items() if k != "eta"}]),
            "fit record 0: missing field 'eta'",
        ),
    )
    for name, text, message in cases:
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        caplog.clear()
        assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1, errors
        assert str(path) in errors[0] and message in errors[0], errors[0]
        assert "\n" not in errors[0]
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    caplog.clear()
    assert main(["stats", str(empty), "--out", str(tmp_path / "out")]) == EXIT_FAIL
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["no fit records found"]


def test_stats_refuses_fit_fields_that_are_not_finite_numbers(tmp_path, caplog):
    # float() read true as 1.0 and the string "1.01e7" as a number, and binned both
    good = {"q_intrinsic": 1e7, "q_loaded": 8e5, "q_coupling": 9e5, "eta": 0.9}
    path = tmp_path / "fits.json"
    path.write_text(json.dumps([good, {**good, "q_loaded": True, "q_intrinsic": "1.01e7"}]))
    assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f'{path}: fit record 1: q_intrinsic must be a number, got "1.01e7"']
    bad = (True, False, "1.01e7", None, [1.0], {"v": 1.0}, math.nan, math.inf, 10 ** 400)
    shown = ("true", "false", '"1.01e7"', "null", "[1.0]", '{"v": 1.0}', "NaN", "Infinity",
             "1" + "0" * 400)
    for field in good:
        for value, text in zip(bad, shown):
            if field == "q_intrinsic" and value is None:
                continue  # fit's lossless limit
            path.write_text(json.dumps([good, {**good, field: value}]))
            caplog.clear()
            assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAIL
            errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
            assert errors == [f"{path}: fit record 1: {field} must be a number, got {text}"]
    # integers and a null q_intrinsic are numbers
    path.write_text(json.dumps([good, {**good, "q_intrinsic": None, "q_loaded": 800000}]))
    assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    stats = json.loads((tmp_path / "out" / "fit_stats.json").read_text())
    assert stats["n_fits"] == 2 and stats["q_loaded"]["min"] == 8e5
    # with every q_intrinsic null there is nothing to bin
    path.write_text(json.dumps([{**good, "q_intrinsic": None}] * 2))
    assert main(["stats", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    stats = json.loads((tmp_path / "out" / "fit_stats.json").read_text())
    assert stats["q_intrinsic"] == {
        "mode": None, "min": None, "max": None, "counts": [], "bin_edges": []
    }
    assert stats["eta"]["min"] == stats["eta"]["max"] == 0.9


VALIDATE_FAST = (
    "validate.n_segments = 400\nvalidate.n_sigma = 4.5\n"
    "validate.max_db_err = 0.6\nvalidate.n_random = 40\n"
)


def test_zero_kerr_commands_have_no_threshold(tmp_path, monkeypatch):
    # g0 = 0: no pump power reaches threshold, so spectrum reports none,
    # validate draws its random powers below twice the largest stated
    # power, and threshold has nothing to report
    from squeezesim import validation

    text = override(
        "resonator.g0_rad_s = 0.0\ndrive.power_mw = 30.0\ndrive.powers_mw = 10.0, 20.0\n"
        + VALIDATE_FAST
    )
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["threshold_power_mw"] is None
    assert summary["squeezing_db"] == 0.0

    drawn, points = [], validation.operating_points

    def operating_points(model, powers, *args):
        drawn.append(powers)
        return points(model, powers, *args)

    monkeypatch.setattr(validation, "operating_points", operating_points)
    assert main(["validate", "--config", path, "--out", str(out)]) == EXIT_OK
    cap = 2.0 * 30.0e-3
    expected = np.random.default_rng(0).uniform([0.0, -3.0], [cap, math.log10(3.0)], (40, 2))
    assert len(drawn) == 1 and np.array_equal(drawn[0], expected[:, 0])
    assert main(["threshold", "--config", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "threshold.json").read_text())
    assert report["threshold_power_mw"] is None
    assert report["threshold_intracavity_photons"] is None


def test_threshold_writes_null_wherever_no_power_reaches_it(tmp_path):
    # the reference config without its calibration: at g0 = 0 threshold
    # exited 1, while an unreachable threshold at g0 > 0 wrote null
    base = {
        key: value for key, value in parse_config_text(REFERENCE_CFG.read_text()).items()
        if not key.startswith("calibration.")
    }
    cases = {
        "no_kerr": {"resonator.g0_rad_s": 0.0},
        "unreachable": {
            "resonator.g0_rad_s": 0.5, "resonator.d2_rad_s": 0.0, "drive.detuning_rad_s": 0.0,
        },
    }
    for name, keys in cases.items():
        path = write_cfg(tmp_path, format_config({**base, **keys}), name=f"{name}.cfg")
        out = tmp_path / name
        assert main(["threshold", "--config", path, "--out", str(out)]) == EXIT_OK, name
        report = json.loads((out / "threshold.json").read_text())
        assert report["threshold_power_mw"] is None, name
        assert report["threshold_intracavity_photons"] is None, name
        assert report["bistable"] is False, name
        assert report["at_power"]["power_mw"] == 50.0, name


def test_validate_passes_on_sane_config(tmp_path):
    text = (
        MINIMAL.replace("drive.power_mw = 0.0", "drive.power_mw = 40.0")
        .replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
        + "drive.detuning_rad_s = 4.0e8\ndrive.powers_mw = 0.0, 40.0\n"
        + VALIDATE_FAST
    )
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "config_roundtrip" in names
    assert "physicality_random" in names
    assert "stochastic_crossval" in names
    phys = next(c for c in report["checks"] if c["name"] == "physicality_random")
    assert phys["min_symplectic_eigenvalue"] >= 1.0 - 1e-9
    assert phys["vacuum_deviation"] <= 1e-12
    cv = next(c for c in report["checks"] if c["name"] == "stochastic_crossval")
    assert 0.0 <= cv["max_exact_bin_dev_db"] < 1e-10
    assert 0.0 <= cv["bogoliubov_defect"] <= 1e-12
    assert 0.0 < cv["max_abs_z_gamma"] < 6.0


def test_validate_fails_above_threshold(tmp_path):
    from squeezesim.params import ResonatorModel

    model = ResonatorModel(
        omega0=2 * math.pi * C_LIGHT / 1560e-9,
        kappa_i=0.1,
        kappa_e=0.9,
        d2=2.5,
        g0=1.0,
    )
    p_th_mw = threshold_power(model) * 1e3
    text = f"""
resonator.wavelength_nm = 1560.0
resonator.kappa_i_rad_s = 0.1
resonator.kappa_e_rad_s = 0.9
resonator.d2_rad_s = 2.5
resonator.g0_rad_s = 1.0
detection.eta_total = 0.602
drive.powers_mw = {2.0 * p_th_mw!r}
{VALIDATE_FAST}"""
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["validate", "--config", path, "--out", str(out)]) == EXIT_FAIL
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "below_threshold" in failed


def test_validate_dump_series_roundtrip(tmp_path):
    text = (
        MINIMAL.replace("drive.power_mw = 0.0", "drive.power_mw = 30.0")
        .replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
        + "drive.detuning_rad_s = 4.0e8\n"
        + VALIDATE_FAST
    )
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = main(["validate", "--config", path, "--out", str(out), "--dump-series"])
    assert code == EXIT_OK
    series, dt = load_series(out / "series.bin")
    assert series.shape[0] == 3  # three homodyne angles
    assert series.shape[1] >= 8 and dt > 0
    assert np.isfinite(series).all()


@pytest.mark.parametrize("omega_hz", [0.0, -7.0e6])
def test_validate_dump_series_refuses_an_unplannable_frequency_first(
    tmp_path, monkeypatch, caplog, omega_hz
):
    # the schema takes a signed analysis.omega_hz, which only the series plan refuses
    from squeezesim import validation

    def cross_validate(*args, **kwargs):
        raise AssertionError("simulated before the series plan was checked")

    monkeypatch.setattr(validation, "cross_validate", cross_validate)
    data = Path(__file__).resolve().parent / "data" / "validate_fast.cfg"
    path = write_cfg(tmp_path, override(f"analysis.omega_hz = {omega_hz!r}", data.read_text()))
    out = tmp_path / "out"
    code = main(["validate", "--config", path, "--out", str(out), "--dump-series"])
    assert code == EXIT_CONFIG
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [
        f"config error: analysis.omega_hz: cannot plan the series dump: analysis frequency "
        f"omega must be positive and finite, got {2.0 * math.pi * omega_hz!r}"
    ]
    assert not (out / "validate_report.json").exists()
    assert not (out / "series.bin").exists()


def test_exit_codes(tmp_path):
    # config required for physics commands
    assert main(["spectrum", "--out", str(tmp_path)]) == EXIT_CONFIG
    # spectrum needs a single operating power
    no_power = write_cfg(tmp_path, MINIMAL.replace("drive.power_mw = 0.0\n", ""), "no_power.cfg")
    assert main(["spectrum", "--config", no_power, "--out", str(tmp_path)]) == EXIT_CONFIG
    # unreadable config path
    assert main(
        ["spectrum", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    ) == EXIT_CONFIG
    # unknown key
    bad = write_cfg(tmp_path, MINIMAL + "resonator.bogus = 1\n", "bad.cfg")
    assert main(["spectrum", "--config", bad, "--out", str(tmp_path)]) == EXIT_CONFIG
    # missing trace file is a runtime failure, not a config error
    assert main(["fit", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]) == EXIT_FAIL
    # argparse rejects a missing subcommand with its own exit(2)
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize("command", [["threshold"], ["fit", "trace.csv"]])
def test_every_loader_refuses_an_unreadable_config_alike(tmp_path, caplog, command):
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"seed = 1 # \xb5m\n")
    for path in (tmp_path / "nope.cfg", tmp_path, not_utf8):
        caplog.clear()
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == (
            EXIT_CONFIG
        )
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith("config error: cannot read config: ")


def test_json_format_switch(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(
        ["spectrum", "--config", path, "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    records = json.loads((out / "spectrum.json").read_text())
    assert records and set(records[0]) == {"omega_hz", "theta_rad", "variance_db"}
    assert not (out / "spectrum.csv").exists()


def test_module_entry_point(tmp_path):
    # a fresh interpreter, so logging is configured anew: an unknown level
    # falls back to warnings, and spectrum's info lines stay off stderr
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "squeezesim",
            "spectrum",
            "--config",
            str(REFERENCE_CFG),
            "--out",
            str(out),
        ],
        env={**os.environ, "SQUEEZESIM_LOG": "no-such-level"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert (out / "spectrum_summary.json").exists()


REWRITE_CFG = (
    MINIMAL.replace("drive.power_mw = 0.0", "drive.power_mw = 30.0")
    .replace("resonator.g0_rad_s = 0.5", "calibration.power_mw = 50.0")
    + "drive.detuning_rad_s = 4.0e8\ndrive.powers_mw = 0.0, 10.0, 20.0\n"
)


def run_each_command(cfg_path, trace_path, root):
    """Every file the four config commands and ``fit`` write, one directory each."""
    for command in ("threshold", "spectrum", "sweep", "phase-scan"):
        argv = [command, "--config", cfg_path, "--out", str(root / command)]
        assert main(argv) == EXIT_OK, command
    assert main(["fit", trace_path, "--out", str(root / "fit")]) == EXIT_OK
    return {
        str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def test_a_rerun_into_the_same_out_rewrites_every_file_exactly(tmp_path):
    write_fit_trace(tmp_path)
    trace = str(tmp_path / "trace.csv")
    cfg = write_cfg(tmp_path, REWRITE_CFG)
    fresh = run_each_command(cfg, trace, tmp_path / "fresh")
    assert len(fresh) == 11
    # longer junk at every output name: each rewrite must cut the old tail
    again = tmp_path / "again"
    for name, data in fresh.items():
        (again / name).parent.mkdir(parents=True, exist_ok=True)
        (again / name).write_bytes(b"#" * (len(data) + 4096))
    assert run_each_command(cfg, trace, again) == fresh

    # README's workflow: stats into fit's own --out rewrites a shorter fit_stats.json
    fit_dir = again / "fit"
    assert main(["stats", str(fit_dir / "fits.json"), "--out", str(fit_dir)]) == EXIT_OK
    assert main(["stats", str(fit_dir / "fits.json"), "--out", str(tmp_path / "stats")]) == (
        EXIT_OK
    )
    shrunk = (fit_dir / "fit_stats.json").read_bytes()
    assert len(shrunk) < len(fresh["fit/fit_stats.json"])
    assert shrunk == (tmp_path / "stats" / "fit_stats.json").read_bytes()


class HalfWrite(io.TextIOWrapper):
    """A text stream whose write stops halfway on a full disk."""

    def write(self, text):
        super().write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_rewrite_leaves_no_old_byte_past_what_it_wrote(tmp_path, monkeypatch, caplog):
    cfg = write_cfg(tmp_path, REWRITE_CFG)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == EXIT_OK
    written = (out / "effective_config.cfg").read_bytes()
    (out / "effective_config.cfg").write_bytes(b"#" * (len(written) + 4096))

    def half_open(file, mode, **kwargs):
        return HalfWrite(open(file, mode + "b"), **kwargs)

    monkeypatch.setattr(cli, "open", half_open, raising=False)
    caplog.clear()
    assert main(["threshold", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
    left = (out / "effective_config.cfg").read_bytes()
    assert left == written[: len(written) // 2]
    # the log names the step that failed and the file, not an open
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [
        f"cannot write {out / 'effective_config.cfg'}: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}"
    ]


def test_outputs_reach_symlinks_and_directories_as_open_does(tmp_path):
    # twin trees whose output names are symlinks or a directory: one is
    # written by the builtin open(path, "w"), the other by the command line
    def write_open(root, name, text):
        with open(root / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    seen = {}
    for how, write in (("open", write_open), ("cli", cli._write)):
        root = tmp_path / how
        root.mkdir()
        (root / "target.txt").write_text("#" * 4096)
        os.symlink(root / "target.txt", root / "to_file")
        os.symlink(root / "missing.txt", root / "dangling")
        os.symlink(os.devnull, root / "to_devnull")
        (root / "directory").mkdir()
        outcomes = {}
        for name in ("to_file", "dangling", "to_devnull", "directory"):
            try:
                write(root, name, "x = 1\n")
                outcomes[name] = "written"
            except OSError as exc:
                outcomes[name] = type(exc).__name__
        files = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}
        seen[how] = outcomes, files
    assert seen["cli"][0]["directory"] == "IsADirectoryError"
    assert seen["cli"][1]["target.txt"] == b"x = 1\n"
    assert seen["cli"] == seen["open"]


_IMPORT_PROBE = """
import json, sys
import squeezesim.cli
heavy = ("scipy.signal", "scipy.optimize", "scipy.ndimage", "scipy.linalg")
loaded = [name for name in heavy if name in sys.modules]
# the stochastic oracle may use scipy.linalg, but nothing heavier
import squeezesim.langevin
oracle_loaded = [name for name in heavy[:3] if name in sys.modules]
import squeezesim
unresolved = [name for name in squeezesim.__all__ if not hasattr(squeezesim, name)]
namespace = {}
exec("from squeezesim import *", namespace)
unbound = [name for name in squeezesim.__all__ if name not in namespace]
undir = sorted(set(squeezesim.__all__) - set(dir(squeezesim)))
print(json.dumps({"loaded": loaded, "oracle_loaded": oracle_loaded,
                  "unresolved": unresolved, "unbound": unbound, "undir": undir}))
"""


def test_cli_import_defers_scipy_and_package_exports_resolve():
    # a fresh interpreter, so no earlier test has imported scipy already
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {
        "loaded": [], "oracle_loaded": [], "unresolved": [], "unbound": [], "undir": []
    }
    # README's Public API list names every export under its module, and nothing else
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed, module = {}, None
    for line in section.splitlines():
        if line.startswith("### "):
            module = re.fullmatch(r"### `squeezesim\.(\w+)`", line).group(1)
        elif line.startswith("- "):
            listed[re.match(r"- `(\w+)` — ", line).group(1)] = module
    assert listed == squeezesim._EXPORTS
    # the same lookups in this interpreter
    with pytest.raises(AttributeError, match="^module 'squeezesim' has no attribute 'nope'$"):
        squeezesim.nope
    assert set(squeezesim.__all__) <= set(dir(squeezesim))


def test_bench_traced_names_resolve():
    # the traced bench swaps each (module, name) for a timing wrapper through
    # getattr, so a deleted name would break it without failing anything else;
    # read from the source, so the bench itself is not imported
    layers = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(layers.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    names = [(module, name) for module, names in traced.items() for name in names]
    assert len(names) > 20
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def _squeezesim_imports(tree):
    """Local name -> object for every ``from squeezesim... import`` in ``tree``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("squeezesim"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:  # a submodule, as in ``from squeezesim import cli``
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = obj
    return bound


def _callee(func, bound):
    """The object a call's ``Name`` or ``Name.attr...`` resolves to, or None."""
    if isinstance(func, ast.Name):
        return bound.get(func.id)
    if isinstance(func, ast.Attribute):
        base = _callee(func.value, bound)
        return None if base is None else getattr(base, func.attr)
    return None


def test_bench_calls_into_squeezesim_bind():
    # the bench builds squeezesim objects field by field and calls functions
    # by keyword, outside tier-1; a renamed, added or dropped parameter must
    # fail here rather than only when the bench runs
    checked, unbound = 0, []
    for path in sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _squeezesim_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _callee(node.func, bound)
            if target is None or inspect.ismodule(target):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                continue  # *args or **kwargs: the count is not known here
            try:
                inspect.signature(target).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords}
                )
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno}: {exc}")
            checked += 1
    assert unbound == []
    assert checked > 10


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore marks a name as its module's own; a module that
    # needs another's private name needs a public route to it instead
    package = Path(__file__).resolve().parent.parent / "src" / "squeezesim"
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "squeezesim")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _defined_names(node):
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _read_names(node):
    """The names read anywhere inside ``node``, bare or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_every_public_name_is_exported_or_used():
    # a public name that is neither exported, nor a command handler, nor read
    # by other package code is undeclared or dead: export it with its README
    # line, or delete it
    package = Path(__file__).resolve().parent.parent / "src" / "squeezesim"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    unreached = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in _defined_names(stmt)
        if not name.startswith("_")
        and squeezesim._EXPORTS.get(name) != module
        and not (module == "cli" and name.startswith("cmd_"))
        and not any(name in names for other, names in reads if other is not stmt)
    ]
    assert unreached == []


class _MemberReads(ast.NodeVisitor):
    """The (class, member) pairs a tree reads, each read charged to its owner.

    A read's owner is resolved where the AST shows it: ``self`` (or ``cls``)
    in a method, a parameter annotated with the class, the class itself, or
    the result of a constructor call.  A read whose owner is not resolved
    counts only when exactly one package class has a member of that name;
    one on ``self`` of a class outside the package counts for none.  A
    member's reads inside its own body do not count.
    """

    def __init__(self, classes):
        self.classes = classes  # class name -> (package bases, member names)
        owners = {}
        for cls, (_, names) in classes.items():
            for name in names:
                owners.setdefault(name, []).append(cls)
        self.sole = {name: found[0] for name, found in owners.items() if len(found) == 1}
        self.env = {}  # local name -> class of the object it holds ("" if not ours)
        self.own = None  # (class, member) whose body is being visited
        self.reads = set()

    def owner(self, node):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            return name if name in self.classes else None
        if isinstance(node, ast.Name):
            return self.env.get(node.id, node.id if node.id in self.classes else None)
        if isinstance(node, ast.Attribute) and node.attr in self.classes:
            return node.attr  # module.Class
        return None

    def lineage(self, cls):
        return [cls] + [a for base in self.classes[cls][0] if base in self.classes
                        for a in self.lineage(base)]

    def visit_ClassDef(self, node):
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.function(stmt, node.name)
            else:
                self.visit(stmt)

    def visit_FunctionDef(self, node):
        self.function(node, None)

    visit_AsyncFunctionDef = visit_FunctionDef

    def function(self, node, cls):
        saved = self.env, self.own
        self.env = dict(self.env)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if cls is not None:
            self.own = (cls, node.name)
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if args and not static:
                self.env[args[0].arg] = cls if cls in self.classes else ""
        for arg in args:
            ann = arg.annotation
            name = getattr(ann, "id", None) or getattr(ann, "value", None)
            if isinstance(name, str) and name in self.classes:
                self.env[arg.arg] = name
        self.generic_visit(node)
        self.env, self.own = saved

    def visit_Assign(self, node):
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                owner = self.owner(node.value)
                if owner is None:
                    self.env.pop(target.id, None)
                else:
                    self.env[target.id] = owner

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load):
            return
        owner = self.owner(node.value)
        if owner is None:
            owners = [self.sole.get(node.attr)]
        else:
            owners = self.lineage(owner) if owner else []
        self.reads.update((cls, node.attr) for cls in owners if cls and (cls, node.attr) != self.own)


def _class_members(root):
    """Every public method and property of a package class, and those no code reads.

    The code is the package, the bench and README's Python blocks.
    """
    package = [ast.parse(p.read_text()) for p in sorted((root / "src" / "squeezesim").glob("*.py"))]
    readme = (root / "README.md").read_text()
    outside = [ast.parse(block.split("```", 1)[0]) for block in readme.split("```python\n")[1:]]
    outside += [ast.parse(path.read_text()) for path in sorted((root / "bench").glob("*.py"))]
    classes, members = {}, []
    for tree in package:
        for stmt in tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            names = {name for node in stmt.body for name in _defined_names(node)}
            names |= {
                n.attr for n in ast.walk(stmt)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and getattr(n.value, "id", None) == "self"
            }
            classes[stmt.name] = ([getattr(b, "id", None) for b in stmt.bases], names)
            members += [
                (stmt.name, node.name) for node in stmt.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
            ]
    visitor = _MemberReads(classes)
    for tree in package + outside:
        visitor.visit(tree)
    names = [f"{cls}.{name}" for cls, name in members]
    unread = [f"{cls}.{name}" for cls, name in members if (cls, name) not in visitor.reads]
    return names, unread


def test_every_public_class_member_is_read():
    # a public method or property that no package code, bench file or README
    # code block reads restates another route or is dead: delete it
    members, unread = _class_members(Path(__file__).resolve().parent.parent)
    assert {"RunConfig.require_power", "PairMoments.require_below_threshold"} <= set(members)
    assert unread == []


def load_mutate():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutate", root / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate


def test_every_mutation_row_applies_exactly_once():
    # tools/mutate.py finds a stale row only when it is run, which takes
    # minutes; apply every row here and run no suite
    root = Path(__file__).resolve().parent.parent
    mutate = load_mutate()
    stale = []
    for name in mutate.MUTANTS:
        try:
            path, text = mutate.mutated(name)
        except ValueError as exc:
            stale.append(str(exc))
            continue
        assert text != (root / path).read_text(encoding="utf-8"), name
    assert len(mutate.MUTANTS) >= 63
    assert stale == []


def test_mutation_trials_clone_one_snapshot_of_the_checkout(tmp_path, monkeypatch, capsys):
    # a checkout edited while the mutants run must not reach a later trial
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "m.py").write_text("x = 1\n")
    (root / "tests" / "test_m.py").write_text("def test_m(): pass\n")
    mutate = load_mutate()
    monkeypatch.setattr(mutate, "ROOT", root)
    monkeypatch.setattr(mutate, "MUTANTS", {
        "two": ("src/m.py", "x = 1", "x = 2"),
        "three": ("src/m.py", "x = 1", "x = 3"),
    })
    seen = []

    def run_suite(tree, tests):
        seen.append({str(p.relative_to(tree)): p.read_text()
                     for p in sorted(tree.rglob("*")) if p.is_file()})
        (root / "tests" / "test_m.py").write_text("def test_m(): assert False\n")
        (root / "tests" / f"test_added_{len(seen)}.py").write_text("")
        (root / "src" / "m.py").write_text(f"x = 1\ny = {len(seen)}\n")
        return {"killed": len(seen) > 1, "by": None, "seconds": 0.0}

    monkeypatch.setattr(mutate, "run_suite", run_suite)
    assert mutate.main([]) == 0
    assert json.loads(capsys.readouterr().out)["killed"] == 2
    tests = {"tests/test_m.py": "def test_m(): pass\n"}
    assert seen == [
        {"src/m.py": "x = 1\n", **tests},
        {"src/m.py": "x = 2\n", **tests},
        {"src/m.py": "x = 3\n", **tests},
    ]


def test_mutation_score_names_the_failing_test_not_a_log_line():
    output = (
        "F\n=== FAILURES ===\n------ Captured log call ------\n"
        "ERROR    squeezesim:cli.py:447 fits.json: fit record 1: bad\n"
        "=== short test summary info ===\n"
        "FAILED tests/test_cli.py::test_stats - AssertionError: no\n"
        "ERROR tests/test_x.py::test_y\n"
    )
    mutate = load_mutate()
    assert mutate.first_failure(output) == "tests/test_cli.py::test_stats"
    assert mutate.first_failure(output.split("=== short")[0]) is None


_FIT_PROBE = """
import json, sys
from squeezesim.cli import main


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


codes = [main(["fit", "trace.csv", "--out", "out"])]
after_fit = scipy_loaded()
codes.append(main(["stats", "out/fits.json", "--out", "stats"]))
after_stats = scipy_loaded()
import scipy.ndimage
print(json.dumps({"codes": codes, "after_fit": after_fit, "after_stats": after_stats,
                  "control": "scipy.ndimage" in scipy_loaded()}))
"""


def test_fit_and_stats_load_no_scipy(tmp_path):
    from test_reference_outputs import write_fit_trace

    # a fresh interpreter, so no earlier test has imported scipy already
    write_fit_trace(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FIT_PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # the probe's own closing scipy.ndimage import shows that it sees imports
    assert report == {
        "codes": [EXIT_OK, EXIT_OK], "after_fit": [], "after_stats": [], "control": True,
    }
