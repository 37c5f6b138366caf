import json
import math
import sys
import warnings

import numpy as np
import pytest
from conftest import JSON_VALUES, PROFILES, catalog_profiles, tabulated_profile
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from boostfield import (
    ConstantProfile,
    GaussHermiteProfile,
    GaussianProfile,
    PlaneWaveProfile,
    TabulatedProfile,
    profile_from_dict,
)
from boostfield.profiles import _cexp


def central_d1(f, z, h):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def central_d2(f, z, h):
    return (f(z + h) - 2.0 * f(z) + f(z - h)) / (h * h)


@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_derivatives_match_stencils(name):
    p = catalog_profiles()[name]
    h = p.characteristic_length * 1e-4
    rng = np.random.default_rng(5)
    for z in rng.uniform(-2.0, 2.0, size=12):
        assert p.dz(z) == pytest.approx(central_d1(p.value, z, h), abs=1e-5, rel=1e-5)
        assert p.dzz(z) == pytest.approx(central_d2(p.value, z, h), abs=1e-4, rel=1e-4)


@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_vectorized_evaluation(name):
    p = catalog_profiles()[name]
    z = np.linspace(-1.5, 1.5, 33)
    vals = p.value(z)
    assert vals.shape == z.shape
    assert_allclose(vals, [p.value(float(zi)) for zi in z], rtol=1e-14)


@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_serialization_round_trip(name):
    p = catalog_profiles()[name]
    again = profile_from_dict(p.to_dict())
    assert again == p
    z = np.linspace(-1.0, 1.0, 7)
    assert_allclose(again.value(z), p.value(z), rtol=0, atol=0)


@settings(max_examples=300, deadline=None)
@given(PROFILES)
def test_profile_record_round_trips(p):
    assert profile_from_dict(p.to_dict()) == p
    assert profile_from_dict(json.loads(json.dumps(p.to_dict()))) == p


# each kind's record keys, from a catalog profile's record
_RECORD_KEYS = {p.kind: sorted(set(p.to_dict()) - {"kind"}) for p in catalog_profiles().values()}


@st.composite
def profile_records(draw):
    kind = draw(st.sampled_from(sorted(_RECORD_KEYS)) | JSON_VALUES)
    keys = _RECORD_KEYS.get(kind, []) if isinstance(kind, str) else []
    record = {key: draw(JSON_VALUES) for key in keys if draw(st.integers(0, 9))}  # a key now and then missing
    record.update(draw(st.dictionaries(st.sampled_from(["kind", "order", "zeta"]), JSON_VALUES, max_size=1)))
    return dict(record, kind=kind) if draw(st.integers(0, 9)) else record


@settings(max_examples=500, deadline=None)
@given(profile_records())
def test_fuzzed_profile_records_raise_only_value_error(record):
    try:
        p = profile_from_dict(record)
    except ValueError:
        return
    assert profile_from_dict(p.to_dict()) == p


@pytest.mark.parametrize("order,read", [(2, 2), (2.0, 2), (np.int64(3), 3)])
def test_gauss_hermite_order_reads_integral_values(order, read):
    p = GaussHermiteProfile(1.0, order, 0.0, 1.0)
    assert p.order == read and type(p.order) is int


@pytest.mark.parametrize("order", [2.7, True, "2", None, float("inf")])
def test_gauss_hermite_order_must_be_an_integer(order):
    with pytest.raises(ValueError, match="order must be an integer"):
        GaussHermiteProfile(1.0, order, 0.0, 1.0)


@pytest.mark.parametrize("center", [[0, 1], "0", None, True])
def test_float_fields_must_be_real_numbers(center):
    with pytest.raises(ValueError, match="center must be a real number"):
        profile_from_dict({"kind": "gaussian", "amplitude": 1.0, "center": center, "sigma": 1.0})


def test_curvature_ratio_matches_quotient_away_from_nodes():
    for name, p in catalog_profiles().items():
        if name == "tabulated":
            continue
        z = np.array([0.37, -0.81, 1.23])
        assert_allclose(p.curvature_ratio(z), p.dzz(z) / p.value(z), rtol=1e-12)


def test_hermite_curvature_finite_at_nodes():
    # H_2(u) = 4u^2 - 2 vanishes at u = 1/sqrt(2); the closed-form well does not
    p = GaussHermiteProfile(1.0, 2, 0.0, 1.0)
    z_node = 1.0 / np.sqrt(2.0)
    assert abs(p.value(z_node)) < 1e-14
    ratio = p.curvature_ratio(z_node)
    assert np.isfinite(ratio)
    assert ratio == pytest.approx(z_node**2 - 5.0, rel=1e-12)


def test_gaussian_closed_forms():
    p = GaussianProfile(2.0, 0.5, 0.7)
    z = 1.1
    u = (z - 0.5) / 0.7
    val = 2.0 * np.exp(-0.5 * u * u)
    assert p.value(z) == pytest.approx(val, rel=1e-14)
    assert p.dz(z) == pytest.approx(-(u / 0.7) * val, rel=1e-14)
    assert p.dzz(z) == pytest.approx((u * u - 1.0) / 0.49 * val, rel=1e-14)


def test_plane_wave_closed_forms():
    p = PlaneWaveProfile(1.0 + 2.0j, 1.3)
    z = 0.4
    assert p.value(z) == pytest.approx((1 + 2j) * np.exp(1.3j * z), rel=1e-14)
    assert p.dz(z) == pytest.approx(1.3j * p.value(z), rel=1e-14)
    assert p.curvature_ratio(z) == pytest.approx(-1.69, rel=1e-14)
    assert p.characteristic_length == pytest.approx(2 * np.pi / 1.3)


def test_constant_profile():
    p = ConstantProfile(3.0 - 1.0j)
    assert p.value(17.0) == 3.0 - 1.0j
    assert p.dz(17.0) == 0.0
    assert p.dzz(-4.0) == 0.0
    assert p.curvature_ratio(2.0) == 0.0
    assert not p.is_real()
    assert ConstantProfile(3.0).is_real()


def test_amplitude_accepts_re_im_pair():
    p = ConstantProfile([0.3, -0.4])
    assert p.amplitude == 0.3 - 0.4j


def test_hermite_order_zero_is_gaussian():
    gh = GaussHermiteProfile(1.5, 0, 0.2, 0.8)
    g = GaussianProfile(1.5, 0.2, 0.8)
    z = np.linspace(-2, 2, 21)
    assert_allclose(gh.value(z), g.value(z), rtol=1e-14)
    assert_allclose(gh.dz(z), g.dz(z), rtol=0, atol=1e-13)


# the largest error of value, dz and dzz against mpmath, relative to the order's factor
# sqrt(2^n n!) (which bounds |H_n(u) exp(-u^2/2)| up to 1.09) times the size of the
# derivative's own factor: sqrt(2n) + |u| for dz, 1 + |u^2 - 2n - 1| for dzz
_HERMITE_RTOL = 1e-13


@pytest.mark.parametrize("order", [40, 100, 200])
def test_gauss_hermite_matches_mpmath(order):
    mpmath = pytest.importorskip("mpmath")
    amp, center, sigma = 0.9 - 0.4j, 0.3, 1.7
    p = GaussHermiteProfile(amp, order, center, sigma)
    us = np.concatenate((np.linspace(-40.0, 40.0, 161), [-0.37, 0.011, 2.5, 19.9]))
    with mpmath.workdps(40):
        scale = float(mpmath.sqrt(2**order * mpmath.factorial(order)))
        for u in us:
            z = center + sigma * u
            x = mpmath.mpf(float(u))
            e = mpmath.exp(-x * x / 2)
            h_n, h_prev = mpmath.hermite(order, x) * e, mpmath.hermite(order - 1, x) * e
            well = x * x - 2 * order - 1
            want = [h_n, (2 * order * h_prev - x * h_n) / sigma, h_n * well / sigma**2]
            sizes = [1.0, (math.sqrt(2.0 * order) + abs(u)) / sigma, (1.0 + abs(float(well))) / sigma**2]
            for f, w, size in zip((p.value, p.dz, p.dzz), want, sizes):
                got = complex(f(z)) / amp
                err = abs(got - complex(w)) / (scale * size)
                assert err <= _HERMITE_RTOL, (order, f.__name__, u, err)


def test_gauss_hermite_is_finite_and_quiet_far_out():
    # H_200(40) alone overflows; the normalized recurrence does not
    p = GaussHermiteProfile(1.0, 200, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (p.value, p.dz, p.dzz):
            assert np.isfinite(f(40.0)) and np.all(np.isfinite(f(np.linspace(-40.0, 40.0, 101))))


def test_gauss_hermite_order_whose_peak_overflows_is_refused():
    GaussHermiteProfile(0.01, 267, 0.0, 1.0)  # the last order; its q'' reaches about 500 |A| sqrt(2^n n!)
    for order in (268, 300):
        with pytest.raises(ValueError, match=f"order {order} is too high") as exc:
            GaussHermiteProfile(1.0, order, 0.0, 1.0)
        assert "\n" not in str(exc.value)


_LOG_MAX = math.log(sys.float_info.max)


@st.composite
def near_the_float_edge(draw):
    """(class, args, width, center) of a profile whose refusal bound is within a factor 8 of the float range."""
    kind = draw(st.sampled_from(["gaussian", "gauss_hermite", "plane_wave"]))
    center = draw(st.floats(-1.0, 1.0))
    if kind == "plane_wave":
        width, k = 1.0, 10.0 ** draw(st.one_of(st.floats(-3.0, 160.0), st.floats(153.8, 154.5)))
        log_top = 2.0 * math.log(max(1.0, k))
    else:
        # some sigmas near 60 / sqrt(max float), where the Gaussian's (u^2 - 1) / sigma^2 reaches the edge,
        # and near sqrt(max float), where sigma^2 does
        log_width = st.one_of(st.floats(-156.0, 160.0), st.floats(-152.5, -152.2), st.floats(153.8, 154.5))
        width = 10.0 ** draw(log_width)
        log_top = 2.0 * math.log(max(1.0, 1.0 / width))
        if kind == "gauss_hermite":
            n = draw(st.integers(0, 267))
            log_top += 0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) + math.log(1.09 * (4 * n + 2))
    log_modulus = _LOG_MAX - log_top + draw(st.floats(-3.0, 3.0)) * math.log(2.0)
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    amp = math.exp(min(log_modulus, _LOG_MAX - 2.0)) * complex(math.cos(phase), math.sin(phase))
    if kind == "plane_wave":
        return PlaneWaveProfile, (amp, k), width, center
    if kind == "gaussian":
        return GaussianProfile, (amp, center, width), width, center
    return GaussHermiteProfile, (amp, n, center, width), width, center


@settings(max_examples=150, deadline=None)
@given(near_the_float_edge(), st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=4))
def test_every_accepted_profile_is_finite_out_to_60_widths(case, us):
    cls, args, width, center = case
    try:
        p = cls(*args)
    except ValueError as exc:
        assert "would overflow a float" in str(exc) and "\n" not in str(exc)
        return
    z = center + width * np.concatenate([np.linspace(-60.0, 60.0, 241), us])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (p.value, p.dz, p.dzz):
            assert np.all(np.isfinite(f(z))), (p, f.__name__)
            assert all(np.isfinite(f(zi)) for zi in z[-len(us):].tolist()), (p, f.__name__)


def test_profiles_whose_derivatives_overflow_are_refused():
    big = sys.float_info.max / 2.0
    GaussianProfile(big, 0.0, 1.0)
    for args in [(1.0, 0.0, 1e-200), (1.0, 0.0, 1e-153), (big, 0.0, 0.5)]:  # 1/sigma^2, 60^2/sigma^2, |A|/sigma^2
        with pytest.raises(ValueError, match="would overflow a float"):
            GaussianProfile(*args)
    with pytest.raises(ValueError, match=r"^GaussHermiteProfile\(amplitude=\(0\.9\+0\.1j\), order=267, .*would overflow"):
        GaussHermiteProfile(0.9 + 0.1j, 267, 0.1, 1.1)
    PlaneWaveProfile(big, 1.0)
    for args in [(1.0, 1e160), (1e-300, 1e155)]:  # |A| k^2, and k^2 alone
        with pytest.raises(ValueError, match="would overflow a float"):
            PlaneWaveProfile(*args)
    with pytest.raises(ValueError, match="would overflow a float"):
        GaussianProfile(1.0, 0.0, 1e155)  # sigma^2


def test_is_real_rules():
    assert PlaneWaveProfile(1.0, 0.0).is_real()
    assert not PlaneWaveProfile(1.0, 0.1).is_real()
    assert not GaussianProfile(1.0j, 0.0, 1.0).is_real()
    assert tabulated_profile().is_real()


def test_tabulated_matches_sampled_function():
    p = tabulated_profile()
    z = np.linspace(-3.0, 3.0, 50)
    truth = np.exp(-(z**2) / 8.0) * (1.0 + 0.3 * np.cos(1.7 * z))
    assert_allclose(p.value(z), truth, atol=1e-8)
    d_truth = np.gradient(truth, z)
    assert_allclose(p.dz(z).real, d_truth, atol=2e-2)


def test_tabulated_outside_support_raises():
    p = tabulated_profile()
    with pytest.raises(ValueError, match="support"):
        p.value(25.0)
    with pytest.raises(ValueError, match="support"):
        p.dzz(np.array([0.0, -21.0]))


def test_tabulated_support_check_is_the_same_on_floats_and_arrays():
    p = tabulated_profile()  # support [-20, 20], slack 4e-8
    for z in (20.0 + 3e-8, -20.0 - 3e-8, float("nan")):
        assert np.isnan(p.value(z)) == np.isnan(z) and p.value(np.array([z])).shape == (1,)
    messages = set()
    for z in (20.0 + 5e-8, -20.0 - 5e-8):
        for arg in (z, np.array([0.0, z])):
            with pytest.raises(ValueError, match="support") as err:
                p.dz(arg)
            messages.add(str(err.value))
    assert messages == {"evaluation outside tabulated support [-20.0, 20.0]"}


def test_tabulated_validation():
    with pytest.raises(ValueError, match="4 nodes"):
        TabulatedProfile([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="increasing"):
        TabulatedProfile([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="shape"):
        TabulatedProfile([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        TabulatedProfile([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 3.0, 4.0])


@pytest.mark.parametrize("z", [[0.0, 5e-324, 1.0, 2.0], [0.0, 1e-300, 2e-300, 3e-300]])
def test_tabulated_nodes_too_close_for_a_spline(z):
    with pytest.raises(ValueError, match="too close"):
        TabulatedProfile(z, [0.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "bad,err",
    [
        ({"kind": "nope"}, "unknown profile kind"),
        ({"amplitude": [1, 0]}, "kind"),
        ({"kind": "gaussian", "amplitude": [1, 0], "sigma": 1.0}, "missing"),
        (
            {"kind": "constant", "amplitude": [1, 0], "extra": 5},
            "unknown",
        ),
    ],
)
def test_bad_profile_records_rejected(bad, err):
    with pytest.raises(ValueError, match=err):
        profile_from_dict(bad)


def test_constructor_validation():
    with pytest.raises(ValueError, match="sigma"):
        GaussianProfile(1.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="order"):
        GaussHermiteProfile(1.0, -2, 0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        PlaneWaveProfile(np.inf, 1.0)
    with pytest.raises(ValueError, match="finite"):
        ConstantProfile(np.nan)


# -- one point rounds as its element of the array call --------------------------

_CATALOG = catalog_profiles()
_METHODS = ("value", "dz", "dzz", "curvature_ratio")


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_CATALOG)), st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8), st.data())
def test_a_point_rounds_as_its_element_of_the_array_call(name, zs, data):
    p = _CATALOG[name]
    if name == "tabulated":  # inside the support [-20, 20]
        zs = [z / 50.0 for z in zs]
    k = data.draw(st.integers(0, len(zs) - 1))
    for method in _METHODS:
        f = getattr(p, method)
        want = np.asarray(f(np.array(zs)))[k]
        for point in (zs[k], np.float64(zs[k]), np.array(zs[k])):
            got = f(point)
            assert np.shape(got) == (), (method, type(point))
            assert _bits(got) == _bits(want), (method, type(point), got, want)


@pytest.mark.parametrize("order", [0, 1, 5, 60])
def test_gauss_hermite_point_rounds_as_its_array_element_at_any_order(order):
    # orders 0 and 1 skip the recurrence's loop; far out, psi_0 underflows
    p = GaussHermiteProfile(0.9 - 0.4j, order, 0.3, 1.7)
    zs = np.linspace(-70.0, 70.0, 141)
    for f in (p.value, p.dz, p.dzz):
        assert _bits(f(zs)) == b"".join(_bits(f(float(z))) for z in zs), f.__name__


# -- one phasor: cmath where it rounds as numpy does, numpy elsewhere ---------------

# numpy's complex exp rescales from Re w = log(DBL_MAX / 4) ~ 708.4 on and cmath.exp only
# above log(DBL_MAX) ~ 709.78, so that band is where cmath alone would differ in the last bits
_REAL_PARTS = st.one_of(st.floats(-760.0, 700.0), st.floats(700.0, 709.78))


@settings(max_examples=500, deadline=None)
@given(st.builds(complex, _REAL_PARTS, st.floats(-1e300, 1e300)))
def test_cexp_of_one_finite_phase_is_numpys_bit_for_bit(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _cexp(w)
    assert type(got) is complex or w.real > 700.0
    assert _bits(got) == _bits(np.exp(np.array([w]))[0]), (w, got)


_ANY = st.floats(allow_nan=True, allow_infinity=True)
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(complex, _NON_FINITE, _ANY),
        st.builds(complex, _ANY, _NON_FINITE),
        st.builds(complex, st.floats(709.79, 1e308), st.floats(-1e3, 1e3)),  # exp(Re w) overflows
    )
)
def test_cexp_of_a_non_finite_or_overflowing_phase_is_numpys_with_its_warning(w):
    def run(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = f()
        return _bits(out), [(m.category, str(m.message)) for m in caught]

    assert run(lambda: _cexp(w)) == run(lambda: np.exp(np.array([w]))[0])


# -- the numpy spline is scipy's CubicSpline to round-off ------------------------

# the largest difference from CubicSpline, relative to CubicSpline's largest modulus on the
# points, for value, dz and dzz; node spacings vary up to 20-fold within a table, and the
# table's scale from 1e-3 to 1e3
_SPLINE_RTOL = 1e-12


@st.composite
def _spline_tables(draw):
    n = draw(st.integers(4, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    z = draw(st.floats(-10.0, 10.0)) + scale * np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(z) > 0))
    parts = st.integers(-(10**6), 10**6).map(lambda k: k / 1e6)
    values = draw(st.lists(st.builds(complex, parts, parts), min_size=n, max_size=n))
    return z, values


@settings(max_examples=200, deadline=None)
@given(_spline_tables())
def test_spline_matches_scipy_cubic_spline(table):
    from scipy.interpolate import CubicSpline

    z, values = table
    p, ref = TabulatedProfile(z, values), CubicSpline(z, values)
    points = np.linspace(z[0], z[-1], 257)
    for order, f in enumerate((p.value, p.dz, p.dzz)):
        want = ref(points, order)
        assert np.max(np.abs(f(points) - want)) <= _SPLINE_RTOL * np.max(np.abs(want)), order
