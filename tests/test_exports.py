"""The package's public names: each resolves, each is listed once, in order, with the parameters listed for it, and each
loads its module on demand."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boostfield

PUBLIC_NAMES = [
    "AmplitudeProfile", "ComovingCoords", "ConstantProfile", "DerivativeBundle", "Event", "FieldSpec",
    "GaussHermiteProfile", "GaussianProfile", "Grid", "GridState", "HarmonicComponent", "LorentzBoost",
    "MassParameters", "Observables", "PlaneWaveProfile", "ResidualReport", "SampledSignal", "ScanResult",
    "SolverConfig", "SolverError", "SpectrumEntry", "SpectrumEstimate", "TabulatedProfile", "boost_event",
    "comoving_coords", "compose_boosts", "derivative_slopes", "dumps_spec", "envelope_equation_residual",
    "evolve_kgf", "evolve_schrodinger", "evolve_wave", "extract_harmonic", "fit_loglog_slope", "interval",
    "inverse_boost_event", "klein_gordon_residual", "loads_spec", "measure_dispersion",
    "measure_observables", "neglected_term", "neglected_term_scan", "periodic_laplacian", "profile_from_dict",
    "reconstruct", "sample_events", "sample_rest_signal", "save_spec", "scalar_invariance_check", "scan_spectrum",
    "schrodinger_residual", "separable_potential", "spec_from_dict", "time_average",
]

# every option a caller can set: the parameters of each public function and record constructor, as
# inspect.signature prints them without annotations (SolverError, an exception, has none of its own)
SIGNATURES = {
    "AmplitudeProfile": "()",
    "ComovingCoords": "(xi, eta)",
    "ConstantProfile": "(amplitude)",
    "DerivativeBundle": "(d_tau, d_z, d2_tau, d2_z)",
    "Event": "(x, y, z, tau)",
    "FieldSpec": "(components, boost)",
    "GaussHermiteProfile": "(amplitude, order, center, sigma)",
    "GaussianProfile": "(amplitude, center, sigma)",
    "Grid": "(extents, points)",
    "GridState": "(grid, field, pi=None, t=0.0, step_count=0)",
    "HarmonicComponent": "(omega, profile)",
    "LorentzBoost": "(beta)",
    "MassParameters": "(m, hbar, c=1.0)",
    "Observables": "(norm, energy, centroid, width)",
    "PlaneWaveProfile": "(amplitude, wavenumber)",
    "ResidualReport": "(equation_id, sample_count, max_abs, rms, stencil_spacing, metadata)",
    "SampledSignal": "(samples, dt, t0)",
    "ScanResult": "(points, fitted_slope, fit_range)",
    "SolverConfig": "(dt, steps, scheme, mass=None, mass_scalar=None, potential=None)",
    "SpectrumEntry": "(omega, q_hat, window_T)",
    "SpectrumEstimate": "(entries, residual_rms)",
    "TabulatedProfile": "(z_nodes, values)",
    "boost_event": "(e, b)",
    "comoving_coords": "(e, b)",
    "compose_boosts": "(b1, b2)",
    "derivative_slopes": "(spec, k, events, hs=None)",
    "dumps_spec": "(spec)",
    "envelope_equation_residual": "(spec, k, events, derivatives='analytic', h=None)",
    "evolve_kgf": "(initial, cfg, monitor=None)",
    "evolve_schrodinger": "(initial, cfg, monitor=None)",
    "evolve_wave": "(initial, cfg, monitor=None)",
    "extract_harmonic": "(sig, omega, T)",
    "fit_loglog_slope": "(xs, ys)",
    "interval": "(e)",
    "inverse_boost_event": "(e, b)",
    "klein_gordon_residual": "(spec, k, events)",
    "loads_spec": "(text)",
    "measure_dispersion": "(states, k)",
    "measure_observables": "(state, cfg)",
    "neglected_term": "(mass, beta)",
    "neglected_term_scan": "(mass, betas)",
    "periodic_laplacian": "(f, grid)",
    "profile_from_dict": "(d)",
    "reconstruct": "(est, times)",
    "sample_events": "(n, seed, z=(-1.0, 1.0), tau=(-1.0, 1.0))",
    "sample_rest_signal": "(spec, z, T, dt)",
    "save_spec": "(spec, path)",
    "scalar_invariance_check": "(spec, k, events)",
    "scan_spectrum": "(sig, omegas, T)",
    "schrodinger_residual": "(spec, k, mass, potential, events, gamma_mode='exact')",
    "separable_potential": "(spec, k)",
    "spec_from_dict": "(d)",
    "time_average": "(sig, T)",
}


def test_public_names_are_the_listed_ones():
    assert boostfield.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in boostfield.__all__ if not hasattr(boostfield, name)] == []


def test_public_names_are_sorted_without_duplicates():
    assert boostfield.__all__ == sorted(set(boostfield.__all__))


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(boostfield))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from boostfield import *", namespace)
    assert set(boostfield.__all__) <= set(namespace)


def test_from_import_binds_the_modules_object():
    from boostfield import FieldSpec, fields

    assert FieldSpec is fields.FieldSpec


def test_a_looked_up_name_is_bound_in_the_package(monkeypatch):
    calls = []
    lookup = boostfield.__getattr__
    monkeypatch.delitem(vars(boostfield), "scan_spectrum", raising=False)
    monkeypatch.setattr(boostfield, "__getattr__", lambda name: calls.append(name) or lookup(name))
    first = boostfield.scan_spectrum
    assert vars(boostfield)["scan_spectrum"] is first is boostfield.scan_spectrum
    assert calls == ["scan_spectrum"]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        boostfield.no_such_name


def test_fresh_import_loads_no_module_and_no_numpy():
    code = "import sys, boostfield; print(sorted(m for m in sys.modules if m.split('.')[0] in ('boostfield', 'numpy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(boostfield.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['boostfield']\n"


def test_one_number_reader_serves_every_module():
    from boostfield import kinematics, pde, profiles, spectral, verify

    assert profiles._real is spectral._real is pde._real is verify._real is kinematics._real
    assert profiles._read_field is spectral._read_field is pde._read_field is kinematics._read_field
    assert profiles._as_complex is kinematics._as_complex


def test_each_public_signature_is_the_listed_one():
    def bare(obj):
        sig = inspect.signature(obj)
        return str(sig.replace(parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                               return_annotation=sig.empty))

    assert {name: bare(getattr(boostfield, name)) for name in boostfield.__all__ if name != "SolverError"} == SIGNATURES
