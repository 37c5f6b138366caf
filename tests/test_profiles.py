import numpy as np
import pytest
from conftest import catalog_profiles, tabulated_profile
from numpy.testing import assert_allclose

from boostfield import (
    ConstantProfile,
    GaussHermiteProfile,
    GaussianProfile,
    PlaneWaveProfile,
    TabulatedProfile,
    profile_from_dict,
)


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
