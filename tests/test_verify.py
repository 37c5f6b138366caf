import math
import warnings

import numpy as np
import pytest
from conftest import (
    NEGLECTED_TERM_BETA_01,
    analytic_profiles,
    catalog_profiles,
    spec_for,
    tabulated_profile,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boostfield import (
    ConstantProfile,
    Event,
    FieldSpec,
    GaussHermiteProfile,
    GaussianProfile,
    HarmonicComponent,
    LorentzBoost,
    MassParameters,
    PlaneWaveProfile,
    ResidualReport,
    ScanResult,
    derivative_slopes,
    envelope_equation_residual,
    fit_loglog_slope,
    klein_gordon_residual,
    neglected_term,
    neglected_term_scan,
    boost_event,
    comoving_coords,
    sample_events,
    scalar_invariance_check,
    schrodinger_residual,
    separable_potential,
)
from boostfield import verify
from boostfield.verify import _closed_form, _coords, _fd_bundle

BETAS = (0.0, 0.3, 0.6, 0.9)


# -- stencils ----------------------------------------------------------------


def test_analytic_bundle_agrees_with_stencils():
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    X = _coords([Event(0.3, -0.2, 0.4, 0.1)])
    a = _closed_form(spec, 0, X)[3]
    f = _fd_bundle(spec, 0, X, 1e-4)
    for name in ("d_tau", "d_z", "d2_tau", "d2_z"):
        assert getattr(a, name).shape == getattr(f, name).shape == (1,)
        assert complex(getattr(a, name)[0]) == pytest.approx(complex(getattr(f, name)[0]), rel=1e-6, abs=1e-7)
    assert list(vars(a)) == list(vars(f)) == ["d_tau", "d_z", "d2_tau", "d2_z"]


def _count_points(obj, method: str) -> list:
    """Record the number of points of every call of obj.method (frozen dataclasses too)."""
    sizes, inner = [], getattr(obj, method)
    object.__setattr__(obj, method, lambda *a: sizes.append(np.size(a[-1])) or inner(*a))
    return sizes


def test_stencils_run_along_tau_and_z_only():
    # the envelope reads only z and tau: no stencil runs along x or y
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    events = sample_events(7, 3)
    sizes = _count_points(spec, "envelope_on_axis")
    _fd_bundle(spec, 0, _coords(events), 1e-3)
    assert sizes == [5 * len(events)]  # the events, then one step either way along tau and z


def test_fd_envelope_residual_takes_the_profile_stencil_along_z_only():
    profile = GaussianProfile(1.0, 0.2, 0.8)
    events = sample_events(7, 3)
    sizes = _count_points(profile, "value")
    envelope_equation_residual(spec_for(profile, 0.6), 0, events, derivatives="fd")
    n = len(events)
    assert sizes[-2:] == [5 * n, 3 * n]  # the envelope bundle, then the profile's lap q


# -- residual identities ------------------------------------------------------


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_envelope_identity_holds_at_round_off(name, beta):
    spec = spec_for(catalog_profiles()[name], beta)
    events = sample_events(60, 17)
    rep = envelope_equation_residual(spec, 0, events)
    assert rep.max_abs < 1e-13, (name, beta, rep.max_abs)
    assert rep.rms <= rep.max_abs


def test_envelope_identity_fd_mode():
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    events = sample_events(20, 23)
    rep = envelope_equation_residual(spec, 0, events, derivatives="fd")
    assert rep.stencil_spacing == pytest.approx(0.8 / 100.0)
    assert rep.max_abs < 1e-3  # limited by the second-order stencil, not the identity
    with pytest.raises(ValueError, match="analytic.*fd|fd.*analytic"):
        envelope_equation_residual(spec, 0, events, derivatives="spectral")


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("derivatives", ["analytic", "fd"])
def test_envelope_residual_rejects_bad_spacing(derivatives, h):
    # the fd stencil refuses a bad spacing; the analytic residual refuses any spacing
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    match = "spacing must be positive" if derivatives == "fd" else "analytic residual reads no stencil spacing"
    with pytest.raises(ValueError, match=match):
        envelope_equation_residual(spec, 0, sample_events(5, 1), derivatives=derivatives, h=h)


def test_analytic_envelope_residual_refuses_a_spacing():
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    with pytest.raises(ValueError, match=r"^the analytic residual reads no stencil spacing; drop h=0\.01") as exc:
        envelope_equation_residual(spec, 0, sample_events(5, 1), h=0.01)
    assert "\n" not in str(exc.value)
    assert envelope_equation_residual(spec, 0, sample_events(5, 1)).stencil_spacing is None


def test_mean_component_has_no_envelope_equation():
    spec = FieldSpec(
        (
            HarmonicComponent(0.0, ConstantProfile(1.0)),
            HarmonicComponent(2.0, ConstantProfile(1.0)),
        ),
        LorentzBoost(0.3),
    )
    with pytest.raises(ValueError, match="mean component"):
        envelope_equation_residual(spec, 0, sample_events(5, 1))
    with pytest.raises(ValueError, match="mean component"):
        klein_gordon_residual(spec, 0, sample_events(5, 1))


def test_vanishing_envelope_rejected():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.1), 0.0)
    far = [Event(0.0, 0.0, 50.0 + i, 0.0) for i in range(4)]
    with pytest.raises(ValueError, match="vanishes"):
        envelope_equation_residual(spec, 0, far)


def test_tail_events_filtered_not_fatal():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.1), 0.0)
    events = [Event(0.0, 0.0, 0.0, 0.0), Event(0.0, 0.0, 30.0, 0.0)]
    rep = envelope_equation_residual(spec, 0, events)
    assert rep.sample_count == 1
    assert rep.metadata["events_given"] == 2 and rep.metadata["eps_q"] == 1e-8  # the one threshold, recorded


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_klein_gordon_identity_intrinsic(name, beta):
    spec = spec_for(catalog_profiles()[name], beta)
    rep = klein_gordon_residual(spec, 0, sample_events(60, 19))
    assert rep.max_abs < 1e-13, (name, beta, rep.max_abs)


def test_klein_gordon_explicit_mass_scalar():
    # the bracket reduces to the rest-frame curvature ratio plus omega^2
    w = 2.0
    events = sample_events(40, 29)
    spec = spec_for(ConstantProfile(1.5), 0.6, omega=w)
    rep = klein_gordon_residual(spec, 0, events, mass_scalar=w * w)
    assert rep.max_abs < 1e-13

    k = 1.3
    spec = spec_for(PlaneWaveProfile(1.0, k), 0.6, omega=w)
    rep = klein_gordon_residual(spec, 0, events, mass_scalar=w * w - k * k)
    assert rep.max_abs < 1e-13
    # a wrong constant leaves a visible residual
    rep = klein_gordon_residual(spec, 0, events, mass_scalar=w * w)
    assert rep.max_abs > 1e-3


@pytest.mark.parametrize("name", sorted(catalog_profiles()))
def test_scalar_invariance(name):
    spec = spec_for(catalog_profiles()[name], 0.8)
    rep = scalar_invariance_check(spec, 0, sample_events(60, 31))
    assert rep.max_abs < 1e-13, (name, rep.max_abs)


def test_scalar_invariance_fails_when_q2_is_not_the_closed_form(monkeypatch):
    # a planted fault in the Gaussian's q'': u^2 - 1.1 in place of u^2 - 1
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    events = sample_events(100, 7)
    assert scalar_invariance_check(spec, 0, events).max_abs < 1e-13

    def faulty_dzz(self, z):
        u = self._u(z)
        return ((u * u - 1.1) / self.sigma**2) * self._value(u)

    monkeypatch.setattr(GaussianProfile, "dzz", faulty_dzz)
    assert scalar_invariance_check(spec, 0, events).max_abs > 0.5


# -- Schrodinger form ---------------------------------------------------------


def test_schrodinger_exact_mode_plane_wave():
    w = 2.0
    mass = MassParameters(w, 1.0)
    for beta in BETAS:
        spec = spec_for(PlaneWaveProfile(1.0, 1.3), beta, omega=w)
        u = separable_potential(spec, 0)
        rep = schrodinger_residual(spec, 0, mass, u, sample_events(50, 37))
        assert rep.max_abs < 1e-13, beta


def test_schrodinger_unity_mode_shrinks_with_beta():
    w = 2.0
    mass = MassParameters(w, 1.0)
    events = sample_events(50, 41)

    def unity_rms(beta):
        spec = spec_for(PlaneWaveProfile(1.0, 1.3), beta, omega=w)
        u = separable_potential(spec, 0)
        return schrodinger_residual(spec, 0, mass, u, events, gamma_mode="unity").rms

    assert unity_rms(0.1) > unity_rms(0.05) > unity_rms(0.025)
    assert unity_rms(0.0) < 1e-14


def test_schrodinger_mass_must_match_carrier():
    spec = spec_for(PlaneWaveProfile(1.0, 1.3), 0.3, omega=2.0)
    u = separable_potential(spec, 0)
    with pytest.raises(ValueError, match="carrier"):
        schrodinger_residual(spec, 0, MassParameters(1.0, 1.0), u, sample_events(5, 2))


def test_schrodinger_rejects_non_separable_potential():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.8), 0.5, omega=2.0)
    zero_u = lambda x, y, z: 0.0
    with pytest.raises(ValueError, match="does not separate"):
        schrodinger_residual(
            spec, 0, MassParameters(2.0, 1.0), zero_u, sample_events(10, 3)
        )


def test_schrodinger_gamma_mode_validation():
    spec = spec_for(PlaneWaveProfile(1.0, 1.3), 0.3, omega=2.0)
    u = separable_potential(spec, 0)
    with pytest.raises(ValueError, match="gamma_mode"):
        schrodinger_residual(
            spec, 0, MassParameters(2.0, 1.0), u, sample_events(5, 2), gamma_mode="x"
        )


# -- separable potentials ------------------------------------------------------


def test_separable_potential_constant_and_plane_wave():
    spec = spec_for(ConstantProfile(2.0), 0.6)
    assert separable_potential(spec, 0)(0.0, 0.0, 1.7) == 0.0
    spec = spec_for(PlaneWaveProfile(1.0, 1.3), 0.6)
    g = spec.boost.gamma
    u = separable_potential(spec, 0)
    assert u(0.0, 0.0, 0.4) == pytest.approx(-((g * 1.3) ** 2), rel=1e-14)


def test_plane_wave_potential_refuses_an_overflowing_square():
    spec = spec_for(PlaneWaveProfile(1.0, 1e150), 1.0 - 1e-15)  # gamma k ~ 2e157: (gamma k)^2 overflows
    with pytest.raises(ValueError, match=r"\(gamma k\)\^2 overflows"):
        separable_potential(spec, 0)
    finite = spec_for(PlaneWaveProfile(1.0, 1e150), 0.6)
    assert separable_potential(finite, 0)(0.0, 0.0, 0.0) == -((finite.boost.gamma * 1e150) ** 2)


def test_separable_potential_static_profiles():
    # order-1 eigenfunction shape: the well is (u^2 - 3) / sigma^2
    spec = spec_for(GaussHermiteProfile(1.0, 1, 0.0, 1.2), 0.0)
    u = separable_potential(spec, 0)
    z = 0.9
    assert u(0.0, 0.0, z) == pytest.approx(((z / 1.2) ** 2 - 3.0) / 1.2**2, rel=1e-13)


def test_separable_potential_rejects_moving_localized_profile():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.8), 0.4)
    with pytest.raises(ValueError, match="does not separate"):
        separable_potential(spec, 0)


# -- neglected-term scan --------------------------------------------------------


def test_neglected_term_reference_value():
    mass = MassParameters(1.0, 1.0)
    assert neglected_term(mass, 0.1) == pytest.approx(NEGLECTED_TERM_BETA_01, rel=1e-12)
    assert neglected_term(mass, 0.0) == 0.0


def test_neglected_term_uses_factored_gamma_near_light_speed():
    # 1 - beta*beta loses about 8 digits here; (1 - beta)(1 + beta) does not
    beta = 1.0 - 1e-9
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    want = (gamma - 1.0) ** 2 / 2.0
    assert neglected_term(MassParameters(1.0, 1.0), beta) == pytest.approx(want, rel=1e-12)


def test_neglected_term_scales_with_rest_energy():
    t1 = neglected_term(MassParameters(1.0, 1.0), 0.3)
    t3 = neglected_term(MassParameters(3.0, 1.0), 0.3)
    tc = neglected_term(MassParameters(1.0, 1.0, c=2.0), 0.3)
    assert t3 == pytest.approx(3.0 * t1, rel=1e-14)
    assert tc == pytest.approx(4.0 * t1, rel=1e-14)


def test_neglected_term_beta_range():
    mass = MassParameters(1.0, 1.0)
    with pytest.raises(ValueError, match="beta"):
        neglected_term(mass, 1.0)
    with pytest.raises(ValueError, match="beta"):
        neglected_term(mass, -0.1)


def test_neglected_term_scan_slope_is_quartic():
    mass = MassParameters(1.0, 1.0)
    scan = neglected_term_scan(mass, [0.01, 0.02, 0.04, 0.08])
    assert scan.fitted_slope == pytest.approx(4.0, abs=0.01)
    assert scan.fit_range == (0.01, 0.08)
    assert len(scan.points) == 4


def test_neglected_term_scan_validation():
    mass = MassParameters(1.0, 1.0)
    with pytest.raises(ValueError, match="inside"):
        neglected_term_scan(mass, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="ascending"):
        neglected_term_scan(mass, [0.1, 0.05, 0.2])
    with pytest.raises(ValueError, match="0.2"):
        neglected_term_scan(mass, [0.1, 0.2, 0.5])


# -- convergence certification ---------------------------------------------------


def test_derivative_slopes_gaussian():
    spec = spec_for(GaussianProfile(1.0, 0.2, 0.8), 0.6)
    slopes = derivative_slopes(spec, 0, sample_events(6, 43))
    assert sorted(slopes) == ["d2_tau", "d2_z", "d_tau", "d_z"]
    for name in ("d_tau", "d_z", "d2_tau", "d2_z"):
        assert 1.9 <= slopes[name] <= 2.1, (name, slopes[name])


def test_derivative_slopes_refuse_an_overflowing_closed_form():
    # the closed forms overflow where q is near 1e308: refused, not read as a degenerate None
    spec = spec_for(GaussianProfile(1e308, 0.0, 0.8), 0.6)
    with pytest.raises(ValueError, match=r"^closed form is not finite at Event\(x="):
        derivative_slopes(spec, 0, sample_events(4, 43))


def test_derivative_slopes_static_constant_all_degenerate():
    # beta = 0 plus a constant profile: the envelope is a constant function
    spec = spec_for(ConstantProfile(1.0), 0.0)
    slopes = derivative_slopes(spec, 0, sample_events(4, 47))
    assert all(s is None for s in slopes.values())


def test_derivative_slopes_moving_constant_profile():
    spec = spec_for(ConstantProfile(1.0), 0.6)
    slopes = derivative_slopes(spec, 0, sample_events(4, 53))
    for name in ("d_tau", "d_z", "d2_tau", "d2_z"):
        assert slopes[name] is not None
        assert 1.9 <= slopes[name] <= 2.1


def test_derivative_slopes_spacing_validation():
    spec = spec_for(GaussianProfile(1.0, 0.0, 1.0), 0.3)
    with pytest.raises(ValueError, match="decreasing"):
        derivative_slopes(spec, 0, sample_events(3, 5), hs=[0.01, 0.02, 0.04])
    with pytest.raises(ValueError, match="decreasing"):
        derivative_slopes(spec, 0, sample_events(3, 5), hs=[0.01, 0.005])


def test_fit_loglog_slope():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x**1.7 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(1.7, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="at least 2"):
        fit_loglog_slope([1.0], [1.0])


# -- event sampling and report plumbing ------------------------------------------


def test_sample_events_deterministic():
    a = sample_events(10, 99)
    b = sample_events(10, 99)
    c = sample_events(10, 100)
    assert a == b
    assert a != c
    assert all(-1.0 <= e.z <= 1.0 and -1.0 <= e.tau <= 1.0 for e in a)


def test_sample_events_custom_box():
    evs = sample_events(50, 7, z=(2.0, 3.0), tau=(-0.5, 0.0))
    assert all(2.0 <= e.z <= 3.0 for e in evs)
    assert all(-0.5 <= e.tau <= 0.0 for e in evs)
    with pytest.raises(ValueError, match="at least one"):
        sample_events(0, 1)


def test_residual_report_validation_and_dict():
    with pytest.raises(ValueError, match="max_abs"):
        ResidualReport("x", 3, 1e-12, 1e-10, None, {})
    rep = ResidualReport("x", 3, 1e-10, 1e-12, 0.01, {"beta": 0.5})
    d = rep.to_dict()
    assert d["equation_id"] == "x"
    assert d["stencil_spacing"] == 0.01


def test_scan_result_needs_three_points():
    with pytest.raises(ValueError, match="3 points"):
        ScanResult(((1.0, 1.0), (2.0, 2.0)), 1.0, (1.0, 2.0))


# -- batched checks against a per-event reference ---------------------------------
#
# The reference is the per-event loop: the envelope filter event by event, and each
# identity's terms assembled in Python complex arithmetic from per-event bundles,
# built from the profile's q, q' and q'' by the module docstring's closed forms,
# or by stencils that shift one Event.  The batched checks must agree with it on
# every event sample.

_TABULATED = tabulated_profile()


def _profile(kind, amp, shape, center, order):
    if kind == "constant":
        return ConstantProfile(amp)
    if kind == "plane_wave":
        return PlaneWaveProfile(amp, 2.0 * shape)
    if kind == "gaussian":
        return GaussianProfile(amp, center, shape)
    if kind == "gauss_hermite":
        return GaussHermiteProfile(amp, order, center, shape)
    return _TABULATED


def _reference_kept(spec, events):
    comp, b = spec.components[0], spec.boost
    mods = [abs(complex(comp.profile.value(comoving_coords(e, b).xi))) for e in events]
    return [e for e, m in zip(events, mods) if m > 1e-8 * max(mods)]  # the checks' one threshold


def _partial(field, e, axis, order, h):
    """Central-difference partial of a per-event field along one axis of e."""
    up, dn = field(e._replace(**{axis: getattr(e, axis) + h})), field(e._replace(**{axis: getattr(e, axis) - h}))
    return (up - dn) / (2 * h) if order == 1 else (up - 2 * field(e) + dn) / (h * h)


def _reference_bundle(spec, e):
    """(b_tau, b_tautau, b_zz) at one event, from q, q' and q'' at xi."""
    comp, b = spec.components[0], spec.boost
    g, v, w = b.gamma, b.beta, comp.omega
    cc = comoving_coords(e, b)
    q, qz, qzz = (complex(f(cc.xi)) for f in (comp.profile.value, comp.profile.dz, comp.profile.dzz))
    ph = complex(np.exp(1j * w * cc.eta))
    return (
        (-g * v * qz + 1j * w * (g - 1) * q) * ph,
        (g * g * v * v * qzz - 2j * g * (g - 1) * w * v * qz - w * w * (g - 1) ** 2 * q) * ph,
        (g * g * qzz - g * g * w * w * v * v * q - 2j * g * g * w * v * qz) * ph,
    )


def _reference(spec, check, events, mass=None, u=None, geff=None):
    """Normalized residuals of one check, event by event."""
    comp, b = spec.components[0], spec.boost
    g, v, w = b.gamma, b.beta, comp.omega
    h = comp.profile.characteristic_length / 100.0
    out = []
    for e in _reference_kept(spec, events):
        cc = comoving_coords(e, b)
        q, qzz = complex(comp.profile.value(cc.xi)), complex(comp.profile.dzz(cc.xi))
        ph = complex(np.exp(1j * w * cc.eta))
        d_tau, d2_tau, d2_z = _reference_bundle(spec, e)
        if check == "envelope":
            terms = [-1j * g * d_tau, d2_z / (2 * w), -(g * g * qzz * ph) / (2 * w)]
            terms.append(-(w / 2) * (g - 1) ** 2 * q * ph)
        elif check == "fd":
            env = lambda ev: complex(spec.envelope(0, ev))
            d_tau, d2_z = _partial(env, e, "tau", 1, h), _partial(env, e, "z", 2, h)
            prof = lambda ev: complex(comp.profile.value(comoving_coords(ev, b).xi))
            lap_q = sum(_partial(prof, e, axis, 2, h) for axis in "xyz")
            terms = [-1j * g * d_tau, d2_z / (2 * w), -(lap_q * ph) / (2 * w)]
            terms.append(-(w / 2) * (g - 1) ** 2 * q * ph)
        elif check == "klein_gordon":
            carrier = complex(np.exp(1j * w * e.tau))
            psi_tt = (d2_tau + 2j * w * d_tau - w * w * q * ph) * carrier
            bracket = (g * g * qzz - v * v * g * g * qzz) * ph * carrier + w * w * q * ph * carrier
            terms = [psi_tt, -d2_z * carrier, bracket]
        elif check == "scalar":
            rest_z = boost_event(e, b).z
            rest = complex(comp.profile.curvature_ratio(rest_z))
            terms = [(g * g * qzz - v * v * g * g * qzz) / q, -rest]
        else:  # schrodinger
            hbar, m, c = mass.hbar, mass.m, mass.c
            terms = [
                -1j * hbar * c * geff * d_tau,
                (hbar * hbar / (2 * m)) * d2_z,
                -(hbar * hbar / (2 * m)) * complex(u(e.x, e.y, e.z)) * q * ph,
                -(m * c * c * (geff - 1) ** 2 / 2) * q * ph,
            ]
        out.append(abs(sum(terms)) / (sum(abs(t) for t in terms) + 1e-30))
    return out


def _assert_matches(rep, ref):
    assert rep.sample_count == len(ref)
    assert abs(rep.max_abs - max(ref)) <= 1e-13
    assert abs(rep.rms - math.sqrt(sum(r * r for r in ref) / len(ref))) <= 1e-13


_KINDS = st.sampled_from(sorted(catalog_profiles()))


@settings(max_examples=40, deadline=None)
@given(
    kind=_KINDS,
    amp=st.complex_numbers(min_magnitude=0.2, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    shape=st.floats(0.3, 1.5),
    center=st.floats(-0.5, 0.5),
    order=st.integers(0, 3),
    beta=st.floats(-0.95, 0.95),
    omega=st.floats(0.5, 3.0),
    z0=st.floats(-1.0, 1.0),
    tau0=st.floats(-1.0, 1.0),
    width=st.floats(0.01, 1.5),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
# a single event
@example(kind="gaussian", amp=1.0, shape=0.8, center=0.1, order=0, beta=0.6, omega=2.0,
         z0=0.3, tau0=-0.2, width=0.5, n=1, seed=3)
# a narrow Gaussian seen across a wide box: most envelopes fall below the threshold
@example(kind="gaussian", amp=1.0 - 0.5j, shape=0.3, center=-0.5, order=0, beta=0.0, omega=1.0,
         z0=1.0, tau0=0.0, width=1.5, n=20, seed=5)
def test_batched_checks_match_per_event_reference(
    kind, amp, shape, center, order, beta, omega, z0, tau0, width, n, seed
):
    spec = FieldSpec((HarmonicComponent(omega, _profile(kind, amp, shape, center, order)),), LorentzBoost(beta))
    events = sample_events(n, seed, z=(z0, z0 + width), tau=(tau0, tau0 + width))
    # _certify hands terms() the coordinates of exactly the events the reference keeps
    seen = []
    verify._certify("probe", spec, 0, events, lambda X, q, *_: seen.append(X) or (q,))
    assert np.array_equal(seen[0], _coords(_reference_kept(spec, events)))
    _assert_matches(envelope_equation_residual(spec, 0, events), _reference(spec, "envelope", events))
    _assert_matches(envelope_equation_residual(spec, 0, events, derivatives="fd"), _reference(spec, "fd", events))
    _assert_matches(klein_gordon_residual(spec, 0, events), _reference(spec, "klein_gordon", events))
    _assert_matches(scalar_invariance_check(spec, 0, events), _reference(spec, "scalar", events))


@settings(max_examples=25, deadline=None)
@given(
    wavenumber=st.floats(-2.0, 2.0),
    beta=st.floats(-0.95, 0.95),
    omega=st.floats(0.5, 3.0),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**16),
    gamma_mode=st.sampled_from(["exact", "unity"]),
)
@example(wavenumber=1.3, beta=0.5, omega=2.0, n=1, seed=0, gamma_mode="exact")
def test_batched_schrodinger_matches_per_event_reference(wavenumber, beta, omega, n, seed, gamma_mode):
    spec = spec_for(PlaneWaveProfile(0.8 + 0.3j, wavenumber), beta, omega=omega)
    mass, u = MassParameters(omega, 1.0), separable_potential(spec, 0)
    events = sample_events(n, seed)
    rep = schrodinger_residual(spec, 0, mass, u, events, gamma_mode=gamma_mode)
    geff = spec.boost.gamma if gamma_mode == "exact" else 1.0
    _assert_matches(rep, _reference(spec, "schrodinger", events, mass=mass, u=u, geff=geff))


@settings(max_examples=40, deadline=None)
@given(
    plane=st.booleans(),
    wavenumber=st.floats(-2.0, 2.0),
    beta=st.floats(-0.95, 0.95),
    omega=st.floats(0.5, 3.0),
    hbar=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**16),
)
def test_schrodinger_exact_mode_is_the_envelope_identity(plane, wavenumber, beta, omega, hbar, c, seed):
    # the Schrodinger form is the envelope identity times hbar c, which the normalization divides out
    profile = PlaneWaveProfile(0.8 + 0.3j, wavenumber) if plane else ConstantProfile(0.7 - 0.2j)
    spec = spec_for(profile, beta, omega=omega)
    mass = MassParameters(omega * hbar / c, hbar, c)
    events = sample_events(20, seed)
    schr = schrodinger_residual(spec, 0, mass, separable_potential(spec, 0), events)
    env = envelope_equation_residual(spec, 0, events)
    assert schr.sample_count == env.sample_count
    assert abs(schr.max_abs - env.max_abs) <= 1e-13 and abs(schr.rms - env.rms) <= 1e-13


def test_schrodinger_broadcasts_a_constant_potential():
    spec = spec_for(ConstantProfile(1.5), 0.6, omega=2.0)
    rep = schrodinger_residual(spec, 0, MassParameters(2.0, 1.0), lambda x, y, z: 0.0, sample_events(30, 9))
    assert rep.sample_count == 30 and rep.max_abs < 1e-13


def test_first_offending_event_is_named():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.8), 0.5, omega=2.0)
    events = sample_events(10, 3)
    with pytest.raises(ValueError, match="does not separate") as exc:
        schrodinger_residual(spec, 0, MassParameters(2.0, 1.0), lambda x, y, z: 0.0, events)
    assert repr(events[0]) in str(exc.value)
    # the second difference overflows where 2 b does: near the centre, not at z = 0
    spec = spec_for(GaussianProfile(1.5e308, 5.0, 1.0), 0.0, omega=2.0)
    events = [Event(0.0, 0.0, z, 0.0) for z in (0.0, 4.9, 5.0)]
    with pytest.raises(ValueError, match="non-finite") as exc:
        envelope_equation_residual(spec, 0, events, derivatives="fd")
    assert repr(events[1]) in str(exc.value)


def test_sample_events_are_the_numpy_draws_as_plain_floats():
    box = ((-1.0, 1.0), (-1.0, 1.0), (0.0, 3.0), (-4.0, 4.0))  # x and y on (-1, 1), drawn first
    rng = np.random.default_rng(17)
    cols = [rng.uniform(lo, hi, size=40) for lo, hi in box]
    events = sample_events(40, 17, *box[2:])
    assert len(events) == 40
    for e, row in zip(events, zip(*cols)):
        coords = (e.x, e.y, e.z, e.tau)
        assert all(type(v) is float for v in coords)
        assert [np.float64(v).tobytes() for v in coords] == [r.tobytes() for r in row]


def test_potential_mismatch_message_prints_plain_floats():
    spec = spec_for(GaussianProfile(1.0, 0.0, 0.8), 0.5, omega=2.0)
    with pytest.raises(ValueError, match="does not separate") as exc:
        schrodinger_residual(spec, 0, MassParameters(2.0, 1.0), lambda x, y, z: 0.0, sample_events(10, 3))
    assert "Event(x=" in str(exc.value) and "np.float64(" not in str(exc.value)


def test_stencil_failure_message_prints_plain_floats():
    # 2 b overflows near the centre, so the second difference is not finite there
    spec = spec_for(GaussianProfile(1.5e308, 5.0, 1.0), 0.0, omega=2.0)
    events = [Event(0.0, 0.0, 4.9, 0.0)]
    with pytest.raises(ValueError, match="stencil produced non-finite value") as exc:
        envelope_equation_residual(spec, 0, events, derivatives="fd")
    assert f"at {events[0]!r}" in str(exc.value)
    assert "Event(x=" in str(exc.value) and "np.float64(" not in str(exc.value)


@pytest.mark.parametrize(
    "check, amplitude, beta",
    [
        (envelope_equation_residual, 1e308, 0.6),
        (klein_gordon_residual, 1e308, 0.6),
        (scalar_invariance_check, 1e308, 0.6),
        # every term is finite, but the sum of their moduli overflows: that reads as a residual of 0
        (klein_gordon_residual, 3e307, 0.0),
    ],
)
def test_overflowing_terms_raise_one_error_naming_the_event(check, amplitude, beta):
    # a valid spec whose terms overflow: one error, no warnings, no nan or vacuous report
    spec = spec_for(GaussianProfile(amplitude, 0.0, 0.8), beta)
    events = sample_events(20, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="residual is not finite at") as exc:
            check(spec, 0, events)
    assert "Event(x=" in str(exc.value) and "np.float64(" not in str(exc.value)
    named = str(exc.value).split(" at ", 1)[1].split(":", 1)[0]
    assert named in {repr(e) for e in events}


def test_report_of_equal_residuals_keeps_rms_within_max():
    # all 18 residuals are equal, and sqrt(mean(r^2)) rounds one ulp above r
    spec = spec_for(PlaneWaveProfile(0.8 + 0.3j, 0.0), 1e-30, omega=1.0)
    u = separable_potential(spec, 0)
    rep = schrodinger_residual(spec, 0, MassParameters(1.0, 1.0), u, sample_events(18, 0))
    assert rep.rms == rep.max_abs > 0.0
