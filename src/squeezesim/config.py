"""Run configuration for the command-line tools.

Config files are flat ``section.key = value`` pairs, one per line, with
``#`` comments.  Every alternative parameterization (quality factors vs
decay rates, lumped vs per-stage detection efficiency, explicit vs
material-derived vs power-calibrated Kerr rate) must be supplied exactly
once; the resolver rejects ambiguous or incomplete combinations and
out-of-range values, and reports the offending field paths.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .params import (
    DomainError,
    MaterialParams,
    PumpDrive,
    ResonatorModel,
    detection_chain_total,
    g0_from_material,
    kappa_from_q,
    wavelength_to_omega,
)
from .spectra import CalibrationResult, PowerSweepResult, calibrate_g0_to_optimum, power_sweep
from .steady_state import (
    BRANCH_POLICIES, SteadyState, g0_for_threshold_fraction, solve_steady_state,
)


class ConfigError(ValueError):
    """A config file failed to parse or resolve; message carries the field path."""


_REQUIRED = object()
_OPTIONAL = object()

# A range rule is (wording, test): a value v is valid when test(v) holds,
# and is refused as "<key>: must be <wording>, got <v>".
_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
_EFFICIENCY = ("in (0, 1]", lambda v: 0 < v <= 1)
_OPEN_FRACTION = ("in (0, 1)", lambda v: 0 < v < 1)
_EVEN_AT_LEAST_4 = ("even and at least 4", lambda v: v >= 4 and v % 2 == 0)


def _at_least(n: int):
    return (f"at least {n}", lambda v: v >= n)


# key -> (type tag, default, range rule).  _REQUIRED keys must appear;
# _OPTIONAL keys may be absent and are then omitted from the echo.  The
# tag is enforced by _typed, on parsed text and hand-built maps alike.  The
# rule (None for a signed quantity) applies to each element of a list;
# which keys may appear together is declared in _GROUPS.
_SCHEMA: dict[str, tuple[str, object, tuple | None]] = {
    "seed": ("int", 0, _NON_NEGATIVE),
    "resonator.wavelength_nm": ("float", _REQUIRED, _POSITIVE),
    "resonator.q_intrinsic": ("float", _OPTIONAL, _POSITIVE),
    "resonator.kappa_i_rad_s": ("float", _OPTIONAL, _NON_NEGATIVE),
    "resonator.q_loaded": ("float", _OPTIONAL, _POSITIVE),
    "resonator.kappa_e_rad_s": ("float", _OPTIONAL, None),
    "resonator.fsr_hz": ("float", 59.3e9, _POSITIVE),
    "resonator.d2_rad_s": ("float", 0.0, None),
    "resonator.g0_rad_s": ("float", _OPTIONAL, _NON_NEGATIVE),
    "material.n2_m2_per_w": ("float", _OPTIONAL, _POSITIVE),
    "material.n0": ("float", _OPTIONAL, _POSITIVE),
    "material.v_eff_m3": ("float", _OPTIONAL, _POSITIVE),
    "calibration.power_mw": ("float", _OPTIONAL, _POSITIVE),
    "calibration.threshold_fraction": ("float", _OPTIONAL, _OPEN_FRACTION),
    "drive.power_mw": ("float", _OPTIONAL, _NON_NEGATIVE),
    "drive.powers_mw": ("floats", (), _NON_NEGATIVE),
    "drive.detuning_rad_s": ("float", 0.0, None),
    "detection.eta_total": ("float", _OPTIONAL, _EFFICIENCY),
    "detection.eta_couple": ("float", _OPTIONAL, _EFFICIENCY),
    "detection.eta_prop": ("float", _OPTIONAL, _EFFICIENCY),
    "detection.visibility": ("float", _OPTIONAL, _EFFICIENCY),
    "detection.eta_pd": ("float", _OPTIONAL, _EFFICIENCY),
    "analysis.omega_hz": ("float", 7.0e6, None),
    "analysis.omega_min_hz": ("float", _OPTIONAL, _POSITIVE),
    "analysis.omega_max_hz": ("float", _OPTIONAL, _POSITIVE),
    "analysis.n_omega": ("int", 25, _at_least(2)),
    "analysis.n_theta": ("int", 91, _at_least(3)),
    "analysis.rbw_hz": ("float", 300e3, _POSITIVE),
    "analysis.vbw_hz": ("float", 470.0, _NON_NEGATIVE),
    "analysis.scan_time_s": ("float", 1.0, _POSITIVE),
    "analysis.samples_per_period": ("int", 400, _EVEN_AT_LEAST_4),
    "analysis.periods": ("int", 2, _at_least(1)),
    "solver.branch_policy": ("choice:" + "|".join(BRANCH_POLICIES), "lowest", None),
    "solver.mode_index": ("int", 1, _at_least(1)),
    "solver.residual_rtol": ("float", 1e-10, _POSITIVE),
    "validate.n_segments": ("int", 17000, _at_least(2)),
    "validate.n_sigma": ("float", 3.0, _POSITIVE),
    "validate.max_db_err": ("float", 0.1, _POSITIVE),
    "validate.min_pass_fraction": ("float", 0.95, _EFFICIENCY),
    "validate.batch_size": ("int", 128, _at_least(1)),
    "validate.n_random": ("int", 200, _NON_NEGATIVE),
    "fit.regime": ("choice:overcoupled|undercoupled|ambiguous", "overcoupled", None),
    "fit.detrend": ("bool", True, None),
    "fit.min_prominence": ("float", 0.05, _POSITIVE),
    "fit.min_spacing_nm": ("float", 0.0, _NON_NEGATIVE),
    "fit.min_samples_per_fwhm": ("int", 15, _NON_NEGATIVE),
}

# group -> its alternatives, each (keys it needs, keys it may add).  A run
# gives exactly one alternative of each group, with all the keys it needs;
# any key of an alternative, optional ones included, chooses it.  A group
# with a keyless alternative may be left out.
_GROUPS: dict[str, tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]] = {
    "resonator loss": ((("resonator.q_intrinsic",), ()), (("resonator.kappa_i_rad_s",), ())),
    "resonator coupling": ((("resonator.q_loaded",), ()), (("resonator.kappa_e_rad_s",), ())),
    "detection": (
        (("detection.eta_total",), ()),
        (("detection.eta_couple", "detection.eta_prop", "detection.visibility",
          "detection.eta_pd"), ()),
    ),
    "kerr rate": (
        (("resonator.g0_rad_s",), ()),
        (("material.n2_m2_per_w", "material.n0", "material.v_eff_m3"), ()),
        (("calibration.power_mw",), ("calibration.threshold_fraction",)),
    ),
    "analysis": (((), ()), (("analysis.omega_min_hz", "analysis.omega_max_hz"), ())),
}


def _typed(where: str, kind: str, value):
    """``value`` as its kind's canonical type, or a ConfigError starting ``where``.

    ``float``: a finite real number other than a bool, stored as a float;
    ``int``: an integer other than a bool; ``bool``: a bool; ``floats``: a
    list or tuple of such floats, stored as a tuple; ``choice:a|b``: one
    of the listed strings.
    """
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value}")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    if kind == "floats":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
        return tuple(_typed(where, "float", item) for item in value)
    choices = kind.split(":", 1)[1].split("|")
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{where}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _number(text: str, cast):
    """``cast(text)``, or ``text`` itself for :func:`_typed` to refuse."""
    try:
        return cast(text)
    except ValueError:
        return text


def _parse_value(key: str, kind: str, text: str, line_no: int):
    where = f"{key} (line {line_no})"
    value = text
    if kind == "float" or kind == "int":
        value = _number(text, float if kind == "float" else int)
    elif kind == "bool":
        value = {"true": True, "false": False}.get(text, text)
    elif kind == "floats":
        parts = [part.strip() for part in text.split(",")] if text else []
        if "" in parts:
            raise ConfigError(f"{where}: empty element in list")
        value = [_number(part, float) for part in parts]
    return _typed(where, kind, value)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse config text into a typed key-value map (no defaults applied)."""
    values: dict[str, object] = {}
    seen_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r} (line {line_no})")
        if key in values:
            raise ConfigError(
                f"duplicate key {key!r} (lines {seen_line[key]} and {line_no})"
            )
        values[key] = _parse_value(key, _SCHEMA[key][0], value_text, line_no)
        seen_line[key] = line_no
    return values


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "floats":
        return ", ".join(map(repr, value))
    return repr(value) if kind == "float" else str(value)


def format_config(values: Mapping[str, object]) -> str:
    """Serialize a typed key map; parse_config_text inverts it exactly."""
    lines = []
    for key in sorted(values):
        kind = _SCHEMA[key][0]
        lines.append(f"{key} = {_format_value(kind, _typed(key, kind, values[key]))}")
    return "\n".join(lines) + "\n"


def _given(values: Mapping[str, object], group: str) -> tuple[str, ...]:
    """The keys ``values`` gives of the one alternative of ``group`` it chooses."""
    alternatives = _GROUPS[group]
    chosen = [alt for alt in alternatives if any(key in values for key in alt[0] + alt[1])]
    if not chosen:
        chosen = [alt for alt in alternatives if alt == ((), ())]
    if len(chosen) != 1:
        named = [" + ".join(needs) + "".join(f" [+ {key}]" for key in may)
                 for needs, may in alternatives]
        given = [key for needs, may in chosen for key in needs + may if key in values]
        raise ConfigError(
            f"{group}: supply exactly one of {', '.join(named)} (got {', '.join(given) or 'none'})"
        )
    needs, may = chosen[0]
    missing = [key for key in needs if key not in values]
    if missing:
        raise ConfigError(f"{group}: missing {', '.join(missing)}")
    return needs + tuple(key for key in may if key in values)


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: physics objects plus the echoed key map."""

    values: Mapping[str, object]
    model: ResonatorModel
    eta_total: float  # off-chip only; the cavity escape is model.eta_escape
    power_w: float | None
    powers_w: tuple[float, ...]
    omega: float
    omega_grid: tuple[float, ...]
    n_theta: int
    branch_policy: str
    mode_index: int
    residual_rtol: float
    seed: int
    calibration: CalibrationResult | None

    @property
    def eta_end_to_end(self) -> float:
        """Generation-to-detection efficiency: ``eta_total`` times the cavity escape."""
        return self.eta_total * self.model.eta_escape

    def require_power(self) -> float:
        if self.power_w is None:
            raise ConfigError(
                "drive.power_mw: this command needs a single operating power"
            )
        return self.power_w

    def solve(self, power_w: float) -> SteadyState:
        """The steady state at ``power_w`` on this run's branch policy and tolerance."""
        pump = PumpDrive.from_power(power_w, self.model.omega0)
        return solve_steady_state(self.model, pump, self.branch_policy, self.residual_rtol)

    def sweep(self, powers_w) -> PowerSweepResult:
        """Squeezing extrema at this run's analysis frequency over ``powers_w``."""
        return power_sweep(
            self.model, powers_w, omega=self.omega, l=self.mode_index,
            eta_total=self.eta_total, branch_policy=self.branch_policy, rtol=self.residual_rtol,
        )


def _resolve_rates(values: Mapping[str, object], omega0: float) -> tuple[float, float]:
    (key_i,) = _given(values, "resonator loss")
    (key_e,) = _given(values, "resonator coupling")
    if key_i == "resonator.q_intrinsic":
        kappa_i = kappa_from_q(omega0, values[key_i])
    else:
        kappa_i = values[key_i]
    if key_e == "resonator.kappa_e_rad_s":
        kappa_e = values[key_e]
    else:
        # loaded Q fixes the total rate; the external share is what remains
        kappa_e = kappa_from_q(omega0, values[key_e]) - kappa_i
    if kappa_e <= 0.0:
        raise ConfigError(
            f"{key_e}: external coupling resolves to {kappa_e:.6g} rad/s, "
            "must be positive (is the loaded Q below the intrinsic Q?)"
        )
    return kappa_i, kappa_e


def _resolve_detection(values: Mapping[str, object]) -> float:
    """The off-chip efficiency: ``detection.eta_total`` as given, or the four stages' product."""
    stages = [values[key] for key in _given(values, "detection")]
    return stages[0] if len(stages) == 1 else detection_chain_total(*stages)


def _resolve_g0(
    values: Mapping[str, object],
    model: ResonatorModel,
    omega: float,
    l: int,
    eta_total: float,
) -> tuple[ResonatorModel, CalibrationResult | None]:
    keys = _given(values, "kerr rate")
    if keys[0] == "resonator.g0_rad_s":
        return dataclasses.replace(model, g0=values["resonator.g0_rad_s"]), None
    if keys[0] == "material.n2_m2_per_w":
        mat = MaterialParams(*(values[key] for key in keys))
        return dataclasses.replace(model, g0=g0_from_material(model.omega0, mat)), None
    power_w = values["calibration.power_mw"] * 1e-3
    pump = PumpDrive.from_power(power_w, model.omega0)
    if "calibration.threshold_fraction" in keys:
        fraction = values["calibration.threshold_fraction"]
        g0 = g0_for_threshold_fraction(model, pump, fraction, l)
        return dataclasses.replace(model, g0=g0), None
    result = calibrate_g0_to_optimum(
        model, pump, omega=omega, l=l, eta_total=eta_total
    )
    return dataclasses.replace(model, g0=result.g0), result


def _apply_schema(values: Mapping[str, object], keys) -> dict[str, object]:
    """The given keys' effective values: types and range rules applied, defaults filled in."""
    effective: dict[str, object] = {}
    for key in keys:
        kind, default, rule = _SCHEMA[key]
        if key in values:
            value = effective[key] = _typed(key, kind, values[key])
            if rule is not None:
                wording, test = rule
                for item in value if kind == "floats" else (value,):
                    if not test(item):
                        raise ConfigError(f"{key}: must be {wording}, got {item}")
        elif default is _REQUIRED:
            raise ConfigError(f"{key}: required key is missing")
        elif default is not _OPTIONAL:
            effective[key] = default
    return effective


_FIT_KEYS = tuple(key for key in _SCHEMA if key.startswith("fit."))


def resolve_config(values: Mapping[str, object]) -> RunConfig:
    """Apply defaults and range rules, check the groups of _GROUPS, build the run."""
    effective = _apply_schema(values, _SCHEMA)
    for key in values:
        if key not in _SCHEMA:  # resolve() may be fed a hand-built dict
            raise ConfigError(f"unknown key {key!r}")

    try:
        omega0 = wavelength_to_omega(effective["resonator.wavelength_nm"] * 1e-9)
        kappa_i, kappa_e = _resolve_rates(effective, omega0)
        model = ResonatorModel(
            omega0=omega0,
            kappa_i=kappa_i,
            kappa_e=kappa_e,
            delta=effective["drive.detuning_rad_s"],
            d2=effective["resonator.d2_rad_s"],
            g0=0.0,
        )
        eta_total = _resolve_detection(effective)

        omega = 2.0 * math.pi * effective["analysis.omega_hz"]
        mode_index = effective["solver.mode_index"]
        model, calibration = _resolve_g0(
            effective, model, omega, mode_index, eta_total
        )

        if _given(effective, "analysis"):
            lo = effective["analysis.omega_min_hz"]
            hi = effective["analysis.omega_max_hz"]
            if not lo < hi:
                raise ConfigError(
                    "analysis.omega_min_hz: must be below analysis.omega_max_hz, "
                    f"got {lo} and {hi}"
                )
            n = effective["analysis.n_omega"]
            grid = tuple(2.0 * math.pi * f for f in np.geomspace(lo, hi, n))
        else:
            grid = (omega,)

        power_w = None
        if "drive.power_mw" in effective:
            power_w = effective["drive.power_mw"] * 1e-3
        powers_w = tuple(p * 1e-3 for p in effective["drive.powers_mw"])

        vbw, rbw = effective["analysis.vbw_hz"], effective["analysis.rbw_hz"]
        if vbw > rbw:
            raise ConfigError(
                f"analysis.vbw_hz: must not exceed analysis.rbw_hz, got {vbw} and {rbw}"
            )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        values=effective,
        model=model,
        eta_total=eta_total,
        power_w=power_w,
        powers_w=powers_w,
        omega=omega,
        omega_grid=grid,
        n_theta=effective["analysis.n_theta"],
        branch_policy=effective["solver.branch_policy"],
        mode_index=mode_index,
        residual_rtol=effective["solver.residual_rtol"],
        seed=effective["seed"],
        calibration=calibration,
    )


def _read_config(path) -> dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text)


def load_config(path, *, seed_override: int | None = None) -> RunConfig:
    """Read, parse, and resolve a config file."""
    values = _read_config(path)
    if seed_override is not None:
        values["seed"] = seed_override
    return resolve_config(values)


def load_fit_options(path=None) -> dict[str, object]:
    """A config file's ``fit.*`` keys alone, defaults and ranges applied; None: the defaults."""
    return _apply_schema({} if path is None else _read_config(path), _FIT_KEYS)
