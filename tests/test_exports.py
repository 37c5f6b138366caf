"""The package's public names: each resolves, each is listed once, in order, and each loads its module on demand."""

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
    "inverse_boost_event", "klein_gordon_residual", "load_spec", "loads_spec", "measure_dispersion",
    "measure_observables", "neglected_term", "neglected_term_scan", "periodic_laplacian", "profile_from_dict",
    "reconstruct", "sample_events", "sample_rest_signal", "save_spec", "scalar_invariance_check", "scan_spectrum",
    "schrodinger_residual", "separable_potential", "spec_from_dict", "time_average",
]


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
