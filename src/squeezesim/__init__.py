"""Squeezed-light simulation toolkit for Kerr microresonators.

Models a pump mode driving a pair of signal/idler side modes below the
parametric oscillation threshold, and provides:

- resonator / pump / detection parameter containers and unit conversions
  (:mod:`squeezesim.params`),
- intracavity steady-state solutions of the Kerr-shifted pump mode,
  including the bistable regime (:mod:`squeezesim.steady_state`),
- analytic output-field covariance and homodyne noise spectra for a
  side-mode pair (:mod:`squeezesim.spectra`),
- a stochastic (Langevin) integrator used to cross-validate the analytic
  spectra (:mod:`squeezesim.langevin`),
- linewidth / coupling extraction from swept-wavelength transmission
  traces (:mod:`squeezesim.traces`),
- the checks behind ``validate`` as one report (:mod:`squeezesim.validation`),
- a command line front end (:mod:`squeezesim.cli`).
"""

import importlib

# Public name -> defining submodule.  Names resolve on first access
# (PEP 562), so importing the package, or just ``squeezesim.cli``, does
# not load scipy sub-packages that only some commands use.
_EXPORTS = {
    "HBAR": "params",
    "C_LIGHT": "params",
    "DomainError": "params",
    "MaterialParams": "params",
    "ResonatorModel": "params",
    "PumpDrive": "params",
    "escape_efficiency": "params",
    "max_onchip_squeezing_db": "params",
    "SteadyState": "steady_state",
    "solve_steady_state": "steady_state",
    "steady_state_on_branch": "steady_state",
    "steady_state_roots": "steady_state",
    "cubic_roots_scaled": "steady_state",
    "threshold_power": "steady_state",
    "SingularSystemError": "spectra",
    "PairMoments": "spectra",
    "pair_moments": "spectra",
    "pair_scattering": "spectra",
    "output_covariance": "spectra",
    "homodyne_variance": "spectra",
    "optimal_quadratures_from_cov": "spectra",
    "spectrum_grid": "spectra",
    "power_sweep": "spectra",
    "symplectic_eigenvalues": "spectra",
    "simulate_pair": "langevin",
    "cross_validate": "langevin",
    "load_series": "langevin",
    "TransmissionTrace": "traces",
    "load_trace": "traces",
    "save_trace": "traces",
    "synthesize_trace": "traces",
    "fit_resonance": "traces",
    "resonance_t_min": "traces",
    "analyze_trace": "traces",
    "ConfigError": "config",
    "RunConfig": "config",
    "load_config": "config",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
