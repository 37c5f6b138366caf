import dataclasses
import math
import operator
import pickle
import re

import numpy as np
import pytest
from conftest import COMPOSED_BETA_06_06, GAMMA_TABLE
from hypothesis import given
from hypothesis import strategies as st

from boostfield import (
    ComovingCoords,
    Event,
    LorentzBoost,
    boost_event,
    comoving_coords,
    compose_boosts,
    interval,
    inverse_boost_event,
)


@pytest.mark.parametrize("beta,gamma", sorted(GAMMA_TABLE.items()))
def test_gamma_reference_values(beta, gamma):
    assert LorentzBoost(beta).gamma == pytest.approx(gamma, rel=1e-13)


def test_gamma_is_one_at_rest():
    assert LorentzBoost(0.0).gamma == 1.0


def test_boost_example():
    out = boost_event(Event(0.0, 0.0, 1.0, 0.0), LorentzBoost(0.6))
    assert out.x == 0.0 and out.y == 0.0
    assert out.z == pytest.approx(1.25, abs=1e-15)
    assert out.tau == pytest.approx(-0.75, abs=1e-15)


def test_transverse_coordinates_untouched():
    out = boost_event(Event(3.5, -1.25, 0.7, 0.2), LorentzBoost(0.9))
    assert out.x == 3.5
    assert out.y == -1.25


def test_comoving_example():
    cc = comoving_coords(Event(0.0, 0.0, 1.0, 2.0), LorentzBoost(0.6))
    assert type(cc) is ComovingCoords
    assert cc.xi == pytest.approx(-0.25, abs=1e-15)
    assert cc.eta == pytest.approx(-0.25, abs=1e-15)


def test_comoving_matches_boost():
    # xi is z' and eta + tau is tau', by construction
    rng = np.random.default_rng(7)
    for _ in range(200):
        beta = rng.uniform(-0.95, 0.95)
        e = Event(*rng.uniform(-1.0, 1.0, size=4))
        b = LorentzBoost(beta)
        cc = comoving_coords(e, b)
        ep = boost_event(e, b)
        assert cc.xi == pytest.approx(ep.z, abs=1e-14)
        assert cc.eta + e.tau == pytest.approx(ep.tau, abs=1e-14)


def test_inverse_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(300):
        beta = rng.uniform(-0.99, 0.99)
        b = LorentzBoost(beta)
        e = Event(*rng.uniform(-1.0, 1.0, size=4))
        back = inverse_boost_event(boost_event(e, b), b)
        assert abs(back.z - e.z) < 1e-12
        assert abs(back.tau - e.tau) < 1e-12


def test_interval_invariance():
    rng = np.random.default_rng(3)
    for _ in range(300):
        beta = rng.uniform(-0.99, 0.99)
        e = Event(*rng.uniform(-1.0, 1.0, size=4))
        ep = boost_event(e, LorentzBoost(beta))
        assert interval(ep) == pytest.approx(interval(e), abs=1e-12)


def test_interval_near_the_light_cone():
    # tau^2 - z^2 rounds 1e16 + 2e8 + 1 - 1e16 to 2e8; the product form keeps the 1
    assert interval(Event(0.0, 0.0, 1e8, 1e8 + 1.0)) == 2e8 + 1.0
    assert interval(Event(3.0, 4.0, -1e8, 1e8 + 1.0)) == 2e8 + 1.0 - 25.0


def test_compose_reference_value():
    b = compose_boosts(LorentzBoost(0.6), LorentzBoost(0.6))
    assert b.beta == pytest.approx(COMPOSED_BETA_06_06, rel=1e-15)


def test_compose_matches_sequential_boosts():
    rng = np.random.default_rng(21)
    for _ in range(100):
        b1 = LorentzBoost(rng.uniform(-0.9, 0.9))
        b2 = LorentzBoost(rng.uniform(-0.9, 0.9))
        e = Event(*rng.uniform(-1.0, 1.0, size=4))
        two = boost_event(boost_event(e, b1), b2)
        one = boost_event(e, compose_boosts(b1, b2))
        assert abs(two.z - one.z) < 1e-11
        assert abs(two.tau - one.tau) < 1e-11


def test_compose_with_inverse_is_identity():
    b = LorentzBoost(0.77)
    assert compose_boosts(b, b.inverse()).beta == pytest.approx(0.0, abs=1e-16)


def test_inverse_flips_sign_keeps_gamma():
    b = LorentzBoost(0.4)
    inv = b.inverse()
    assert inv.beta == -0.4
    assert inv.gamma == b.gamma


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, float("nan"), float("inf")])
def test_superluminal_rejected(beta):
    with pytest.raises(ValueError, match="superluminal"):
        LorentzBoost(beta)


def test_boost_takes_no_speed_of_light():
    # the map is dimensionless: the one c is the carrier's, MassParameters.c
    with pytest.raises(TypeError):
        LorentzBoost(0.5, 2.0)
    with pytest.raises(TypeError):
        LorentzBoost(0.5, c=1.0)
    assert [f.name for f in dataclasses.fields(LorentzBoost)] == ["beta", "gamma"]


def test_event_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Event(0.0, 0.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        Event(0.0, math.nan, 0.0, 0.0)


def test_coords_are_a_named_pair():
    cc = ComovingCoords(1.0, -2.0)
    assert (cc.xi, cc.eta) == tuple(cc) == (1.0, -2.0)
    assert ComovingCoords._fields == ("xi", "eta")
    assert repr(cc) == "ComovingCoords(xi=1.0, eta=-2.0)"


# -- Event is a named 4-tuple that refuses a non-finite coordinate ----------------

_NAMES = ("x", "y", "z", "tau")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EVENTS = st.tuples(_FINITE, _FINITE, _FINITE, _FINITE)


@given(_EVENTS)
def test_an_event_is_its_four_coordinates(coords):
    e = Event(*coords)
    x, y, z, tau = e
    assert all(map(operator.is_, (x, y, z, tau), coords))
    assert (e.x, e.y, e.z, e.tau) == e == coords
    assert repr(e) == "Event(x={!r}, y={!r}, z={!r}, tau={!r})".format(*coords)
    again = pickle.loads(pickle.dumps(e))
    assert type(again) is Event and repr(again) == repr(e)
    for name in _NAMES:
        with pytest.raises(AttributeError):
            setattr(e, name, 0.0)
    assert e._replace(z=0.5) == (x, y, 0.5, tau)


@given(_EVENTS, st.sampled_from(range(4)), st.sampled_from([math.inf, -math.inf, math.nan]))
def test_a_non_finite_coordinate_is_refused_by_name(coords, i, bad):
    message = rf"^non-finite event coordinate {_NAMES[i]}={re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        Event(*coords[:i], bad, *coords[i + 1 :])
    with pytest.raises(ValueError, match=message):  # _replace checks as the constructor does
        Event(*coords)._replace(**{_NAMES[i]: bad})


@given(st.floats(1.2e308, 1.7e308), st.floats(0.5, 0.99), st.sampled_from([1.0, -1.0]))
def test_a_boost_whose_output_overflows_raises(s, beta, sign):
    # z' is gamma s (1 + beta) either way, more than the largest float
    b = LorentzBoost(sign * beta)
    with pytest.raises(ValueError, match=r"^non-finite event coordinate z=inf$"):
        boost_event(Event(0.0, 0.0, s, -sign * s), b)
    with pytest.raises(ValueError, match=r"^non-finite event coordinate z=inf$"):
        inverse_boost_event(Event(0.0, 0.0, s, sign * s), b)
    with pytest.raises(ValueError, match=r"^non-finite comoving coordinate xi=inf$"):  # xi is z'
        comoving_coords(Event(0.0, 0.0, s, -sign * s), b)
    e, b = Event(0.0, 0.0, -3e307, -1.7e308), LorentzBoost(-0.4)  # xi = -1.07e308, tau' overflows
    with pytest.raises(ValueError, match=r"^non-finite event coordinate tau=-inf$"):
        boost_event(e, b)
    with pytest.raises(ValueError, match=r"^non-finite comoving coordinate eta=-inf$"):
        comoving_coords(e, b)
