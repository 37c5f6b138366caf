"""Boosted almost-periodic fields.

A stable localized object is modeled as a superposition of harmonics with
smooth amplitude profiles in its rest frame.  This package maps those
fields into the lab frame, factors each harmonic into an envelope times a
carrier, certifies the exact equations the envelope and the full field
satisfy, extracts harmonics back out of sampled signals, and evolves the
associated dispersive and wave equations on periodic grids.

Importing the package loads none of its modules, and so not numpy.  Each
public name is imported from its module at its first lookup and then bound
here (PEP 562), so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.14.0"

_EXPORTS = {
    "fields": ("FieldSpec", "HarmonicComponent", "MassParameters", "dumps_spec", "loads_spec", "save_spec",
               "spec_from_dict"),
    "kinematics": ("ComovingCoords", "Event", "LorentzBoost", "boost_event", "comoving_coords", "compose_boosts",
                   "interval", "inverse_boost_event"),
    "pde": ("Grid", "GridState", "Observables", "SolverConfig", "SolverError", "evolve_kgf", "evolve_schrodinger",
            "evolve_wave", "measure_dispersion", "measure_observables", "periodic_laplacian"),
    "profiles": ("AmplitudeProfile", "ConstantProfile", "GaussHermiteProfile", "GaussianProfile",
                 "PlaneWaveProfile", "TabulatedProfile", "profile_from_dict"),
    "spectral": ("SampledSignal", "SpectrumEntry", "SpectrumEstimate", "extract_harmonic", "reconstruct",
                 "sample_rest_signal", "scan_spectrum", "time_average"),
    "verify": ("DerivativeBundle", "ResidualReport", "ScanResult", "derivative_slopes", "envelope_equation_residual",
               "fit_loglog_slope", "klein_gordon_residual", "neglected_term", "neglected_term_scan", "sample_events",
               "scalar_invariance_check", "schrodinger_residual", "separable_potential"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines a public name and bind the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
