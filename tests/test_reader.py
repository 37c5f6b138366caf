"""The one rule by which every record and function reads a caller's number: a real number is not a bool or a
string, an integer accepts an integral float and no other, and a numpy scalar is stored as a Python float."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from boostfield import (
    ConstantProfile,
    Event,
    FieldSpec,
    GaussHermiteProfile,
    GaussianProfile,
    Grid,
    HarmonicComponent,
    LorentzBoost,
    MassParameters,
    PlaneWaveProfile,
    SampledSignal,
    SolverConfig,
    boost_event,
    derivative_slopes,
    dumps_spec,
    envelope_equation_residual,
    extract_harmonic,
    klein_gordon_residual,
    loads_spec,
    neglected_term,
    neglected_term_scan,
    sample_events,
    sample_rest_signal,
    scan_spectrum,
)
from boostfield.fields import _check_spacing

_MASS = MassParameters(1.0, 1.0)
_SPEC = FieldSpec((HarmonicComponent(1.0, GaussianProfile(1.0, 0.0, 1.0)),), LorentzBoost(0.3))
_EVENTS = [Event(0.0, 0.0, 0.1 * i, 0.2 - 0.1 * i) for i in range(3)]
_SIGNAL = SampledSignal(np.ones(21), 0.1, -1.0)
_bound = lambda i, v: (v, 1.0) if i == 0 else (-1.0, v)  # a box bound pair with v in place i


def _profile_fields():
    """(id, name, kind, call) for every real and integer field of every catalog profile."""
    good = {"complex": 1.0, "float": 1.0, "int": 2}
    for cls in (ConstantProfile, PlaneWaveProfile, GaussianProfile, GaussHermiteProfile):
        for f in dataclasses.fields(cls):
            if f.type != "complex":
                others = {g.name: good[g.type] for g in dataclasses.fields(cls) if g is not f}
                yield f"{cls.__name__}.{f.name}", f.name, f.type, lambda v, cls=cls, n=f.name, o=others: cls(**o, **{n: v})


# (id, the name the message starts with, "float" or "int", a call that reads the value in that parameter)
_PARAMETERS = [
    ("LorentzBoost.beta", "beta", "float", LorentzBoost),
    *[(f"Event.{n}", n, "float", lambda v, i=i: Event(*[v if j == i else 0.5 for j in range(4)]))
      for i, n in enumerate(Event._fields)],
    ("HarmonicComponent.omega", "omega", "float", lambda v: HarmonicComponent(v, ConstantProfile(1.0))),
    *[(f"MassParameters.{n}", n, "float", lambda v, n=n: MassParameters(**{"m": 1.0, "hbar": 1.0, n: v}))
      for n in ("m", "hbar", "c")],
    ("Grid.extents", "extents", "float", lambda v: Grid((v,), (8,))),
    ("Grid.points", "points", "int", lambda v: Grid((8.0,), (v,))),
    ("SolverConfig.dt", "dt", "float", lambda v: SolverConfig(v, 1, "leapfrog", mass_scalar=1.0)),
    ("SolverConfig.steps", "steps", "int", lambda v: SolverConfig(0.1, v, "leapfrog", mass_scalar=1.0)),
    ("SolverConfig.mass_scalar", "mass scalar", "float", lambda v: SolverConfig(0.1, 1, "leapfrog", mass_scalar=v)),
    ("SampledSignal.dt", "dt", "float", lambda v: SampledSignal(np.ones(4), v, 0.0)),
    ("SampledSignal.t0", "t0", "float", lambda v: SampledSignal(np.ones(4), 0.1, v)),
    *_profile_fields(),
    ("_check_spacing", "stencil spacing", "float", lambda v: _check_spacing(v, "stencil")),
    ("envelope_equation_residual.h", "stencil spacing", "float",
     lambda v: envelope_equation_residual(_SPEC, 0, _EVENTS, derivatives="fd", h=v)),
    ("sample_events.n", "n", "int", lambda v: sample_events(v, 0)),
    *[(f"sample_events.{axis}[{i}]", axis, "float", lambda v, axis=axis, i=i: sample_events(3, 0, **{axis: _bound(i, v)}))
      for axis in ("z", "tau") for i in (0, 1)],
    ("derivative_slopes.hs", "hs", "float", lambda v: derivative_slopes(_SPEC, 0, _EVENTS, hs=[0.04, v, 0.01])),
    ("neglected_term.beta", "beta", "float", lambda v: neglected_term(_MASS, v)),
    ("neglected_term_scan.betas", "betas", "float", lambda v: neglected_term_scan(_MASS, [0.01, v, 0.04, 0.08])),
    ("klein_gordon_residual.mass_scalar", "mass_scalar", "float",
     lambda v: klein_gordon_residual(_SPEC, 0, _EVENTS, mass_scalar=v)),
    *[(f"sample_rest_signal.{n}", n, "float", lambda v, n=n: sample_rest_signal(_SPEC, 0.0, **{"T": 1.0, "dt": 0.1, n: v}))
      for n in ("T", "dt")],
    ("extract_harmonic.omega", "omega", "float", lambda v: extract_harmonic(_SIGNAL, v, 0.5)),
    ("extract_harmonic.T", "T", "float", lambda v: extract_harmonic(_SIGNAL, 1.0, v)),
    ("scan_spectrum.omegas", "omega", "float", lambda v: scan_spectrum(_SIGNAL, [1.0, v], 0.5)),
]
_BAD = {"float": [True, np.True_, "1", None, 1 + 0j, np.complex128(1.0)], "int": [True, np.True_, "1", None, 8.7, np.float32(8.5)]}
# where None is the documented default, it is not a bad value
_NONE_IS_DEFAULT = {"SolverConfig.mass_scalar", "envelope_equation_residual.h", "klein_gordon_residual.mass_scalar"}


@pytest.mark.parametrize("pid, name, kind, call", _PARAMETERS, ids=[p[0] for p in _PARAMETERS])
def test_each_parameter_refuses_what_is_not_its_kind_of_number_by_name(pid, name, kind, call):
    message = "a real number" if kind == "float" else "an integer"
    for bad in [v for v in _BAD[kind] if not (v is None and pid in _NONE_IS_DEFAULT)]:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {message}, got {re.escape(repr(bad))}$"):
            call(bad)


_FLOATS = [p for p in _PARAMETERS if p[2] == "float"]


@pytest.mark.parametrize("pid, name, kind, call", _FLOATS, ids=[p[0] for p in _FLOATS])
def test_an_integer_beyond_the_floats_reads_as_the_infinity_it_rounds_to(pid, name, kind, call):
    # so each parameter refuses 10**400 with the message it gives inf, where float() raises OverflowError
    for sign in (1, -1):
        with pytest.raises(ValueError) as inf:
            call(sign * math.inf)
        with pytest.raises(ValueError, match=f"^{re.escape(str(inf.value))}$"):
            call(sign * 10**400)


@pytest.mark.parametrize("amplitude", [10**400, -(10**400), [10**400, 0.0], [0.0, -(10**400)]],
                         ids=["10**400", "-10**400", "[10**400, 0]", "[0, -10**400]"])
def test_a_complex_amplitude_beyond_the_floats_is_refused_as_not_finite(amplitude):
    with pytest.raises(ValueError, match="^amplitude must be finite$"):
        ConstantProfile(amplitude)


@pytest.mark.parametrize("call", [lambda: Grid((8.0,), (8.0,)), lambda: Grid((np.float32(8.0),), (np.int64(8),))])
def test_a_grid_reads_integral_points_and_stores_python_numbers(call):
    g = call()
    assert g == Grid((8.0,), (8,)) and type(g.extents[0]) is float and type(g.points[0]) is int


def test_records_store_numpy_scalars_as_python_floats():
    mass = MassParameters(np.float32(2.0), np.float64(1.0), np.int64(1))
    assert [type(v) for v in (mass.m, mass.hbar, mass.c, mass.omega)] == [float] * 4
    assert type(HarmonicComponent(np.float32(1.5), ConstantProfile(1.0)).omega) is float
    cfg = SolverConfig(np.float32(0.125), np.int64(3), "leapfrog", mass_scalar=np.float16(1.0))
    assert (type(cfg.dt), type(cfg.steps), type(cfg.mass_scalar)) == (float, int, float)
    profile = GaussHermiteProfile(np.complex64(1.0), np.float64(3.0), np.float32(0.5), np.float32(1.0))
    assert [type(getattr(profile, f.name)) for f in dataclasses.fields(profile)] == [complex, int, float, float]
    assert [type(v) for v in Event(np.float32(0.5), np.int64(1), 2, np.float16(0.25))] == [float] * 4


@given(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([np.float16, np.float32, np.float64, np.longdouble]),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
)
def test_a_numpy_beta_boosts_as_its_python_float_bit_for_bit(beta, ftype, z, tau):
    x = ftype(beta)
    assume(abs(float(x)) < 1.0)  # a float16 rounds 0.9999 to 1
    b, ref = LorentzBoost(x), LorentzBoost(float(x))
    assert type(b.beta) is float and type(b.gamma) is float
    assert (b.beta.hex(), b.gamma.hex()) == (ref.beta.hex(), ref.gamma.hex())
    e = Event(0.0, 0.0, z, tau)
    assert [v.hex() for v in boost_event(e, b)] == [v.hex() for v in boost_event(e, ref)]
    e, ref_e = Event(0.0, 0.0, ftype(z), ftype(tau)), Event(0.0, 0.0, float(ftype(z)), float(ftype(tau)))
    assert [v.hex() for v in boost_event(e, ref)] == [v.hex() for v in boost_event(ref_e, ref)]  # so do coordinates
    spec = FieldSpec((HarmonicComponent(ftype(1.0), ConstantProfile(1.0)),), b)
    assert loads_spec(dumps_spec(spec)) == spec
