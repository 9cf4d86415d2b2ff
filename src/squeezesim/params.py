"""Physical parameter containers and unit conversions.

Angular frequencies are radians per second, powers are watts, wavelengths
are meters.  Detunings follow the convention that positive values place
the pump laser on the red side of the cold cavity resonance, which is the
side a thermally locked resonator can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HBAR = 1.054571817e-34  # J s
C_LIGHT = 299792458.0  # m / s


class DomainError(ValueError):
    """Raised when a physical parameter is outside its meaningful range."""


def wavelength_to_omega(wavelength_m: float) -> float:
    """Angular frequency (rad/s) of light with the given vacuum wavelength."""
    if not 0.0 < wavelength_m < math.inf:
        raise DomainError(f"wavelength must be positive and finite, got {wavelength_m}")
    return 2.0 * math.pi * C_LIGHT / wavelength_m


def kappa_from_q(omega0: float, q: float) -> float:
    """Energy decay rate (rad/s) of a mode with quality factor ``q``; 0 for ``q = inf``."""
    if not 0.0 < omega0 < math.inf:
        raise DomainError(f"omega0 must be positive and finite, got {omega0}")
    if not q > 0.0:
        raise DomainError(f"quality factor must be positive, got {q}")
    return omega0 / q


def escape_efficiency(q_intrinsic: float, q_loaded: float) -> float:
    """Fraction of intracavity photons that leave through the bus waveguide.

    ``eta_esc = kappa_e / kappa = 1 - q_loaded / q_intrinsic``.  The loaded
    quality factor can never exceed the intrinsic one; equality means the
    resonator is not coupled at all (eta = 0).  An infinite intrinsic Q is
    the lossless limit (eta = 1); the loaded Q must be finite.
    """
    if not (q_intrinsic > 0.0 and 0.0 < q_loaded < math.inf):
        raise DomainError("quality factors must be positive, and the loaded Q finite")
    if q_loaded > q_intrinsic:
        raise DomainError(
            f"loaded Q ({q_loaded:g}) cannot exceed intrinsic Q ({q_intrinsic:g})"
        )
    return 1.0 - q_loaded / q_intrinsic


def max_onchip_squeezing_db(eta_escape: float) -> float:
    """Loss-limited squeezing bound, in dB below shot noise.

    An infinitely squeezed state transmitted with efficiency ``eta`` has
    residual variance ``1 - eta`` relative to vacuum, so the best
    observable squeezing is ``-10 log10(1 - eta)``.
    """
    if not 0.0 <= eta_escape < 1.0:
        raise DomainError(f"eta_escape must lie in [0, 1), got {eta_escape}")
    return -10.0 * math.log10(1.0 - eta_escape)


def photon_flux(power_w: float, omega0: float) -> float:
    """Photon arrival rate (1/s) of a beam with the given on-chip power."""
    if not (math.isfinite(power_w) and power_w >= 0.0):
        raise DomainError(f"power must be finite and non-negative, got {power_w}")
    if not 0.0 < omega0 < math.inf:
        raise DomainError(f"omega0 must be positive and finite, got {omega0}")
    return power_w / (HBAR * omega0)


def _as_float(name: str, value) -> float:
    """``value`` as a Python float; DomainError naming ``name`` unless it is real.

    Ints, floats, numpy real scalars and 0-d real arrays are real; str,
    complex, None, bool and sized arrays are not.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"{name} must be finite, got {value}") from None
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _real_fields(obj, names: tuple[str, ...]) -> None:
    """Store each of ``obj``'s fields ``names`` as a finite Python float.

    DomainError naming the first field that is not real or is NaN or
    infinite.  A field that is already a float is only checked.
    """
    for name in names:
        value = getattr(obj, name)
        if type(value) is not float:
            value = _as_float(name, value)
            object.__setattr__(obj, name, value)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MaterialParams:
    """Nonlinear-material figures entering the single-photon Kerr shift.

    n2 is the intensity-dependent refractive index (m^2/W), n0 the linear
    index, v_eff the effective mode volume (m^3).
    """

    n2: float
    n0: float
    v_eff: float

    def __post_init__(self):
        _real_fields(self, ("n2", "n0", "v_eff"))
        if self.n2 <= 0.0 or self.n0 <= 0.0 or self.v_eff <= 0.0:
            raise DomainError("material parameters must be positive")


def g0_from_material(omega0: float, material: MaterialParams) -> float:
    """Single-photon Kerr frequency shift (rad/s) from material figures.

    Evaluates ``hbar * omega0**2 * c * n2 / (n0**2 * v_eff)``: with n2 in
    m^2/W, the vacuum speed of light ``c`` makes the result rad/s.
    Calibration against a measured operating point is the more reliable
    route.
    """
    if not 0.0 < omega0 < math.inf:
        raise DomainError(f"omega0 must be positive and finite, got {omega0}")
    return HBAR * omega0 ** 2 * material.n2 / (material.n0 ** 2 * material.v_eff) * C_LIGHT


@dataclass(frozen=True)
class ResonatorModel:
    """A pumped Kerr resonator mode family.

    Parameters
    ----------
    omega0:
        Pump mode angular frequency (rad/s).
    kappa_i:
        Intrinsic energy decay rate (rad/s).  May be zero for the ideal
        lossless limit.
    kappa_e:
        External (bus waveguide) coupling rate (rad/s).
    delta:
        Cold-cavity pump detuning ``omega0 - omega_laser`` (rad/s).
    d2:
        Second-order dispersion step (rad/s); mode ``l`` sits ``d2*l**2/2``
        off the equidistant grid spaced by the free spectral range.
    g0:
        Single-photon Kerr shift (rad/s).

    Every field is stored as a Python float, so the scalar routes run in
    float arithmetic whatever numeric type built the model: ints, numpy
    real scalars and 0-d real arrays are converted.  Any other value
    (str, complex, None, bool, a sized array), and any NaN or infinite
    one, raises DomainError naming its field.
    """

    omega0: float
    kappa_i: float
    kappa_e: float
    delta: float = 0.0
    d2: float = 0.0
    g0: float = 0.0
    kappa: float = field(init=False)

    def __post_init__(self):
        _real_fields(self, ("omega0", "kappa_i", "kappa_e", "delta", "d2", "g0"))
        if self.omega0 <= 0.0:
            raise DomainError(f"omega0 must be positive, got {self.omega0}")
        if self.kappa_i < 0.0:
            raise DomainError(f"kappa_i must be non-negative, got {self.kappa_i}")
        if self.kappa_e <= 0.0:
            raise DomainError(f"kappa_e must be positive, got {self.kappa_e}")
        if self.g0 < 0.0:
            raise DomainError(f"g0 must be non-negative, got {self.g0}")
        object.__setattr__(self, "kappa", self.kappa_i + self.kappa_e)

    @classmethod
    def from_quality_factors(
        cls,
        omega0: float,
        q_intrinsic: float,
        q_loaded: float,
        **kwargs,
    ) -> "ResonatorModel":
        """Build from intrinsic and loaded quality factors."""
        kappa = kappa_from_q(omega0, q_loaded)
        kappa_i = kappa_from_q(omega0, q_intrinsic)
        if kappa_i >= kappa:
            raise DomainError(
                f"loaded Q ({q_loaded:g}) must be below intrinsic Q ({q_intrinsic:g})"
            )
        return cls(omega0=omega0, kappa_i=kappa_i, kappa_e=kappa - kappa_i, **kwargs)

    @property
    def eta_escape(self) -> float:
        return self.kappa_e / self.kappa


@dataclass(frozen=True)
class PumpDrive:
    """Classical pump field at the chip input.

    ``a_in`` is normalized so that ``a_in**2`` is the photon flux in 1/s;
    it is kept real and non-negative, the pump phase being the global
    phase reference.  Fields are stored as Python floats and refused by
    name, as :class:`ResonatorModel`'s are.  An ``a_in`` whose square
    misses ``flux`` by more than ``4 * 2**-52 * flux`` is refused too.
    """

    power_on_chip: float
    flux: float
    a_in: float

    @classmethod
    def from_power(cls, power_w: float, omega0: float) -> "PumpDrive":
        # refused by name before photon_flux compares them; a float passes as is
        if type(power_w) is not float:
            power_w = _as_float("power_w", power_w)
        if type(omega0) is not float:
            omega0 = _as_float("omega0", omega0)
        flux = photon_flux(power_w, omega0)
        return cls(power_on_chip=power_w, flux=flux, a_in=math.sqrt(flux))

    def __post_init__(self):
        _real_fields(self, ("power_on_chip", "flux", "a_in"))
        if self.power_on_chip < 0.0 or self.flux < 0.0:
            raise DomainError("pump power and flux must be non-negative")
        if self.a_in < 0.0:
            raise DomainError("a_in is defined real non-negative")
        # the solve takes its roots from flux and its field from a_in, so they
        # must agree; sqrt(flux)**2 misses flux by at most one ulp
        if not abs(self.a_in * self.a_in - self.flux) <= 4.0 * 2.0 ** -52 * self.flux:
            raise DomainError(
                f"a_in must be the square root of flux, got {self.a_in!r} for flux {self.flux!r}"
            )


def detection_chain_total(
    eta_couple: float,
    eta_prop: float,
    visibility: float,
    eta_pd: float,
) -> float:
    """Collection efficiency of the off-chip measurement path, a Python float.

    The homodyne visibility enters squared: an imperfect mode overlap
    behaves as a beamsplitter on the field amplitude.  The cavity escape
    efficiency is not part of it (:attr:`ResonatorModel.eta_escape`).
    Each stage must be real and lie in (0, 1]; DomainError names the
    first that is not.
    """
    stages = []
    for name, val in zip(("eta_couple", "eta_prop", "visibility", "eta_pd"),
                         (eta_couple, eta_prop, visibility, eta_pd)):
        val = _as_float(name, val)
        if not 0.0 < val <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1], got {val}")
        stages.append(val)
    eta_couple, eta_prop, visibility, eta_pd = stages
    return eta_couple * eta_prop * visibility ** 2 * eta_pd
