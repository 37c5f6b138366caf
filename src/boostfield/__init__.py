"""Boosted almost-periodic fields.

A stable localized object is modeled as a superposition of harmonics with
smooth amplitude profiles in its rest frame.  This package maps those
fields into the lab frame, factors each harmonic into an envelope times a
carrier, certifies the exact equations the envelope and the full field
satisfy, extracts harmonics back out of sampled signals, and evolves the
associated dispersive and wave equations on periodic grids.
"""

from .fields import (
    FieldSpec,
    HarmonicComponent,
    MassParameters,
    dumps_spec,
    load_spec,
    loads_spec,
    save_spec,
    spec_from_dict,
)
from .kinematics import (
    ComovingCoords,
    Event,
    LorentzBoost,
    boost_event,
    comoving_coords,
    compose_boosts,
    interval,
    inverse_boost_event,
)
from .pde import (
    Grid,
    GridState,
    Observables,
    SolverConfig,
    SolverError,
    evolve_kgf,
    evolve_schrodinger,
    evolve_wave,
    measure_dispersion,
    measure_observables,
    periodic_laplacian,
)
from .profiles import (
    AmplitudeProfile,
    ConstantProfile,
    GaussHermiteProfile,
    GaussianProfile,
    PlaneWaveProfile,
    TabulatedProfile,
    profile_from_dict,
)
from .spectral import (
    SampledSignal,
    SpectrumEntry,
    SpectrumEstimate,
    extract_harmonic,
    reconstruct,
    sample_rest_signal,
    scan_spectrum,
    time_average,
)
from .verify import (
    DerivativeBundle,
    ResidualReport,
    ScanResult,
    derivative_slopes,
    envelope_equation_residual,
    fit_loglog_slope,
    klein_gordon_residual,
    neglected_term,
    neglected_term_scan,
    sample_events,
    scalar_invariance_check,
    schrodinger_residual,
    separable_potential,
)

__version__ = "0.3.0"

__all__ = [
    "AmplitudeProfile",
    "ComovingCoords",
    "ConstantProfile",
    "DerivativeBundle",
    "Event",
    "FieldSpec",
    "GaussHermiteProfile",
    "GaussianProfile",
    "Grid",
    "GridState",
    "HarmonicComponent",
    "LorentzBoost",
    "MassParameters",
    "Observables",
    "PlaneWaveProfile",
    "ResidualReport",
    "SampledSignal",
    "ScanResult",
    "SolverConfig",
    "SolverError",
    "SpectrumEntry",
    "SpectrumEstimate",
    "TabulatedProfile",
    "boost_event",
    "comoving_coords",
    "compose_boosts",
    "derivative_slopes",
    "dumps_spec",
    "envelope_equation_residual",
    "evolve_kgf",
    "evolve_schrodinger",
    "evolve_wave",
    "extract_harmonic",
    "fit_loglog_slope",
    "interval",
    "inverse_boost_event",
    "klein_gordon_residual",
    "load_spec",
    "loads_spec",
    "measure_dispersion",
    "measure_observables",
    "neglected_term",
    "neglected_term_scan",
    "periodic_laplacian",
    "profile_from_dict",
    "reconstruct",
    "sample_events",
    "sample_rest_signal",
    "save_spec",
    "scalar_invariance_check",
    "scan_spectrum",
    "schrodinger_residual",
    "separable_potential",
    "spec_from_dict",
    "time_average",
]
