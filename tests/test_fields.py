import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import PROFILES, catalog_profiles, spec_for
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from boostfield import (
    ConstantProfile,
    Event,
    FieldSpec,
    GaussianProfile,
    HarmonicComponent,
    LorentzBoost,
    MassParameters,
    boost_event,
    dumps_spec,
    loads_spec,
    save_spec,
    spec_from_dict,
)
from boostfield.profiles import _cmul


def two_harmonic_spec(beta=0.6):
    return FieldSpec(
        (
            HarmonicComponent(0.0, ConstantProfile(0.4)),
            HarmonicComponent(1.7, GaussianProfile(1.0 + 0.5j, 0.1, 0.9)),
        ),
        LorentzBoost(beta),
    )


def test_psi_rest_is_plain_harmonic_sum():
    # the rest frame is the same spec at beta = 0: xi = z and eta = 0
    spec = two_harmonic_spec(0.0)
    for e in (Event(0.0, 0.0, 0.3, 1.1), Event(0.0, 0.0, -0.8, -0.4)):
        manual = sum(c.profile.value(e.z) * np.exp(1j * c.omega * e.tau) for c in spec.components)
        assert spec.psi_lab(e) == manual


def test_lab_field_equals_rest_field_at_boosted_event():
    # the same number read off in either frame, for every profile kind
    rng = np.random.default_rng(9)
    for name, p in catalog_profiles().items():
        spec = spec_for(p, 0.6)
        rest = replace(spec, boost=LorentzBoost(0.0))
        for _ in range(50):
            e = Event(*rng.uniform(-1.0, 1.0, size=4))
            lab = spec.psi_lab(e)
            at_rest = rest.psi_lab(boost_event(e, spec.boost))
            assert abs(lab - at_rest) < 1e-12 * (1.0 + abs(lab)), name


def test_harmonic_lab_is_envelope_times_carrier():
    spec = two_harmonic_spec()
    e = Event(0.0, 0.0, -0.4, 0.8)
    for k, comp in enumerate(spec.components):
        expected = spec.envelope(k, e) * np.exp(1j * comp.omega * e.tau)
        assert spec.harmonic_on_axis(k, e.z, e.tau) == expected
    total = sum(spec.harmonic_on_axis(k, e.z, e.tau) for k in range(2))
    assert spec.psi_lab(e) == total


def test_scalar_density_is_frame_invariant_along_drift():
    # xi is constant along z = z0 + beta * tau, so the density rides along
    spec = two_harmonic_spec(0.7)
    beta = spec.boost.beta
    e0 = Event(0.0, 0.0, 0.25, 0.0)
    d0 = spec.scalar_density(e0)
    for dtau in (0.5, 2.0, -1.5):
        e1 = Event(0.0, 0.0, 0.25 + beta * dtau, dtau)
        assert spec.scalar_density(e1) == pytest.approx(d0, rel=1e-12)


def test_scalar_density_positive_and_summed():
    spec = two_harmonic_spec()
    e = Event(0.0, 0.0, 0.3, 0.9)
    xi = boost_event(e, spec.boost).z
    manual = sum(abs(c.profile.value(xi)) ** 2 for c in spec.components)
    assert spec.scalar_density(e) == pytest.approx(manual, rel=1e-13)


def test_on_axis_helpers_match_scalar_paths():
    spec = two_harmonic_spec()
    z = np.linspace(-1.0, 1.0, 17)
    tau = 0.45
    env = spec.envelope_on_axis(1, z, tau)
    har = spec.harmonic_on_axis(1, z, tau)
    psi = spec.psi_lab_on_axis(z, tau)
    for i, zi in enumerate(z):
        e = Event(0.0, 0.0, float(zi), tau)
        assert env[i] == pytest.approx(spec.envelope(1, e), rel=1e-13)
        assert har[i] == pytest.approx(spec.harmonic_on_axis(1, e.z, e.tau), rel=1e-13)
        assert psi[i] == pytest.approx(spec.psi_lab(e), rel=1e-13)


_PROFILES = catalog_profiles()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_PROFILES)),
    beta=st.floats(-0.99, 0.99),
    # |xi| <= gamma (1 + |beta|) < 15 stays inside the tabulated support [-20, 20]
    points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8),
)
def test_event_calls_are_elements_of_the_array_call(kind, beta, points):
    spec = FieldSpec(
        (
            HarmonicComponent(1.3, _PROFILES[kind]),
            HarmonicComponent(2.9, GaussianProfile(0.6 - 0.3j, -0.2, 0.9)),
        ),
        LorentzBoost(beta),
    )
    z, tau = np.array(points).T
    env = [spec.envelope_on_axis(k, z, tau) for k in range(2)]
    har = [spec.harmonic_on_axis(k, z, tau) for k in range(2)]
    psi = spec.psi_lab_on_axis(z, tau)
    bits = lambda v: np.asarray(v, dtype=complex).tobytes()  # == would hide a -0.0
    for i, (zi, ti) in enumerate(points):
        e = Event(0.0, 0.0, zi, ti)
        assert bits(spec.psi_lab(e)) == bits(psi[i])
        for k in range(2):
            assert bits(spec.envelope(k, e)) == bits(env[k][i])
            assert bits(spec.harmonic_on_axis(k, zi, ti)) == bits(har[k][i])


def test_cmul_rounds_scalars_as_arrays():
    rng = np.random.default_rng(4)
    for a, b in (rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))).tolist():
        assert _cmul(a, b) == _cmul(np.array([a]), np.array([b]))[0]



@pytest.mark.parametrize("kinds", [("complex", "complex"), ("float", "complex"), ("complex", "np"), ("np", "np")])
def test_cmul_of_one_point_is_its_product(kinds):
    # two Python complexes take the one type test; any other pair of scalars the two array tests, both a * b
    rng = np.random.default_rng(5)
    make = {"complex": complex, "float": lambda v: v.real, "np": np.complex128}
    for a, b in (rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))).tolist() + [(-0.0 + 1j, 1j)]:
        a, b = make[kinds[0]](a), make[kinds[1]](b)
        got = _cmul(a, b)
        assert type(got) is type(a * b) and np.asarray(got).tobytes() == np.asarray(a * b).tobytes()
        assert np.asarray(_cmul(np.array([a]), b)).tobytes() == np.asarray(_cmul(a, np.array([b]))).tobytes()

def test_harmonic_dtau_matches_stencil():
    spec = two_harmonic_spec(0.55)
    z = np.linspace(-0.8, 0.8, 9)
    h = 1e-6
    analytic = spec.harmonic_dtau_on_axis(1, z, 0.3)
    fd = (spec.harmonic_on_axis(1, z, 0.3 + h) - spec.harmonic_on_axis(1, z, 0.3 - h)) / (
        2.0 * h
    )
    assert_allclose(analytic, fd, rtol=1e-8, atol=1e-8)


def test_mean_component_must_be_real():
    with pytest.raises(ValueError, match="real profile"):
        HarmonicComponent(0.0, ConstantProfile(1.0j))
    HarmonicComponent(0.0, ConstantProfile(1.0))  # fine


def test_omega_validation():
    with pytest.raises(ValueError, match="omega"):
        HarmonicComponent(-1.0, ConstantProfile(1.0))
    with pytest.raises(ValueError, match="omega"):
        HarmonicComponent(np.nan, ConstantProfile(1.0))


def test_omegas_must_strictly_increase():
    comps = (
        HarmonicComponent(1.0, ConstantProfile(1.0)),
        HarmonicComponent(1.0, ConstantProfile(2.0)),
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        FieldSpec(comps, LorentzBoost(0.0))


def test_empty_spec_rejected():
    with pytest.raises(ValueError, match="at least one"):
        FieldSpec((), LorentzBoost(0.0))


def test_spec_json_round_trip():
    spec = two_harmonic_spec()
    again = loads_spec(dumps_spec(spec))
    assert again.boost == spec.boost
    assert again.components == spec.components
    e = Event(0.0, 0.0, 0.2, -0.7)
    assert again.psi_lab(e) == spec.psi_lab(e)


def test_spec_file_round_trip(tmp_path):
    spec = two_harmonic_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert loads_spec(path.read_text()).components == spec.components


@pytest.mark.parametrize(
    "mangle,err",
    [
        (lambda d: d.update(extra=1), "unknown field-spec keys"),
        (lambda d: d["boost"].update(gamma=1.25), "unknown boost keys"),
        (lambda d: d["components"][0].update(label="x"), "unknown component keys"),
        (lambda d: d.pop("boost"), "needs 'boost'"),
        (lambda d: d["components"][0].pop("omega"), "needs 'omega'"),
    ],
)
def test_strict_spec_parsing(mangle, err):
    d = two_harmonic_spec().to_dict()
    mangle(d)
    with pytest.raises(ValueError, match=err):
        spec_from_dict(d)


@pytest.mark.parametrize(
    "mangle,err",
    [
        (lambda d: d.update(components=5), "components must be a list"),
        (lambda d: d.update(boost=0.3), "boost record must be a mapping"),
        (lambda d: d.update(components=[5]), "component record must be a mapping"),
        (lambda d: d["components"][0].update(omega=[1]), "omega must be a real number"),
        (lambda d: d["boost"].update(beta=[1]), "beta must be a real number"),
    ],
)
def test_spec_records_of_the_wrong_shape(mangle, err):
    d = two_harmonic_spec().to_dict()
    mangle(d)
    with pytest.raises(ValueError, match=err):
        spec_from_dict(d)


@st.composite
def field_specs(draw):
    profiles = draw(st.lists(PROFILES, min_size=1, max_size=3))
    omegas = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=len(profiles), max_size=len(profiles), unique=True)))
    beta = draw(st.floats(-0.999, 0.999))
    return FieldSpec(tuple(map(HarmonicComponent, omegas, profiles)), LorentzBoost(beta))


@settings(max_examples=200, deadline=None)
@given(field_specs())
def test_spec_json_round_trips_to_the_same_bytes(spec):
    text = dumps_spec(spec)
    again = loads_spec(text)
    assert again.components == spec.components and again.boost == spec.boost
    assert dumps_spec(again) == text


def test_mass_parameters():
    mp = MassParameters(2.0, 0.5, c=3.0)
    assert mp.omega == pytest.approx(12.0)
    with pytest.raises(ValueError, match="positive"):
        MassParameters(-1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        MassParameters(1.0, 0.0)


@pytest.mark.parametrize(
    "m,hbar,c,quantity",
    [
        (1.0, 1.0, 1e200, "rest energy"),  # c^2 overflows
        (1e-300, 1.0, 1e200, "rest energy"),  # m c^2 is finite, yet c^2 alone overflows
        (1e300, 1.0, 1e10, "rest energy"),  # c^2 is finite, m c^2 is not
        (1e200, 1.0, 1.0, "mass scalar"),  # (m c / hbar)^2 overflows
        (1.0, 1e-300, 1.0, "mass scalar"),
        (1e200, 1e-200, 1.0, "mass scalar"),  # m c / hbar itself overflows
    ],
)
def test_mass_parameters_refuse_an_overflowing_quantity(m, hbar, c, quantity):
    with pytest.raises(ValueError, match=f"{quantity} .* overflows"):
        MassParameters(m, hbar, c)
    edge = MassParameters(1.0, 1.0, 1e154)  # c^2 = 1e308 and the scalar stay finite
    assert math.isfinite(edge.m * edge.c**2) and math.isfinite(edge.omega**2)
