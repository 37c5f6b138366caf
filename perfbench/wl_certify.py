"""certify: per-event kinematics, profile, field and residual certification.

One seeded batch of events per profile kind, boosted at beta near 0.6.
These are the scalar per-event paths, so `kinematics`, `profiles`,
`fields` and `verify` do the work and `pde` and `spectral` do none.
The unit of work is an event taken through the whole certification chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import Op, Tracer, require

import boostfield as bf

NAME = "certify"
EVENTS = 2000
ARRAY_POINTS = 100_000
SLOPE_EVENTS = 8
KINDS = ("constant", "plane_wave", "gaussian", "gauss_hermite", "tabulated")

RESIDUAL_TOL = 1e-10
FD_RESIDUAL_TOL = 1e-3  # the repository's own test of the fd envelope residual
SLOPE_BAND = (1.9, 2.1)
EXACT_TOL = 1e-12


@dataclass
class KindInputs:
    kind: str
    spec: bf.FieldSpec
    wave_spec: bf.FieldSpec
    mass: bf.MassParameters
    events: list
    tau0: float
    z_axis: np.ndarray
    z_array: np.ndarray


def _profile(kind: str, rng: np.random.Generator, tracer: Tracer) -> bf.AmplitudeProfile:
    amp = complex(rng.uniform(0.6, 1.2), rng.uniform(-0.3, 0.3))
    if kind == "constant":
        return bf.ConstantProfile(amp)
    if kind == "plane_wave":
        return bf.PlaneWaveProfile(amp, rng.uniform(0.8, 1.6))
    if kind == "gaussian":
        return bf.GaussianProfile(amp, rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.0))
    if kind == "gauss_hermite":
        return bf.GaussHermiteProfile(amp, 2, rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))
    z = np.linspace(-20.0, 20.0, 1601)
    vals = np.exp(-(z**2) / rng.uniform(6.0, 10.0)) * (1.0 + rng.uniform(0.1, 0.4) * np.cos(rng.uniform(1.2, 2.0) * z))
    return tracer.call("profiles.TabulatedProfile", bf.TabulatedProfile, z, vals, work=z.size)


def build(seed: int, tracer: Tracer) -> list[KindInputs]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for kind in KINDS:
        beta = 0.6 + rng.uniform(-0.05, 0.05)
        omega = rng.uniform(1.5, 2.5)
        boost = bf.LorentzBoost(beta)
        spec = bf.FieldSpec((bf.HarmonicComponent(omega, _profile(kind, rng, tracer)),), boost)
        wave = bf.FieldSpec(
            (bf.HarmonicComponent(omega, bf.PlaneWaveProfile(1.0, rng.uniform(0.8, 1.6))),), boost
        )
        events = tracer.call(
            "verify.sample_events", bf.sample_events, EVENTS, int(rng.integers(2**31)), work=EVENTS
        )
        out.append(
            KindInputs(
                kind=kind,
                spec=spec,
                wave_spec=wave,
                mass=bf.MassParameters(omega, 1.0),
                events=events,
                tau0=float(rng.uniform(-1.0, 1.0)),
                z_axis=np.sort(rng.uniform(-1.0, 1.0, EVENTS)),
                z_array=np.linspace(-1.5, 1.5, ARRAY_POINTS),
            )
        )
    return out


# -- expectations the benchmark works out itself --------------------------------


def _close(got, want) -> float:
    """Worst error relative to 1 + |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def _lab_reference(spec: bf.FieldSpec, z, tau):
    """psi_lab and the envelope of harmonic 0, from the profile's array path."""
    b = spec.boost
    xi = b.gamma * (z - b.beta * tau)
    eta = b.gamma * (tau - b.beta * z) - tau
    psi = sum(c.profile.value(xi) * np.exp(1j * c.omega * (eta + tau)) for c in spec.components)
    comp = spec.components[0]
    return psi, comp.profile.value(xi) * np.exp(1j * comp.omega * eta)


def _kind_ops(ki: KindInputs) -> list[Op]:
    spec, events, b, kind = ki.spec, ki.events, ki.spec.boost, ki.kind
    prof = spec.components[0].profile
    ev = np.array([(e.x, e.y, e.z, e.tau) for e in events])
    z, tau = ev[:, 2], ev[:, 3]
    zp = b.gamma * (z - b.beta * tau)
    tp = b.gamma * (tau - b.beta * z)
    boosted = [bf.boost_event(e, b) for e in events]
    n = len(events)
    ops = []

    def op(name, run, check):
        ops.append(Op(f"{name}[{kind}]", run, check))

    # kinematics -------------------------------------------------------------
    def run_boost(t: Tracer):
        f = t.wrap("kinematics.boost_event", bf.boost_event)
        return [f(e, b) for e in events]

    def check_boost(out):
        got = np.array([(o.x, o.y, o.z, o.tau) for o in out])
        err = max(_close(got[:, 2], zp), _close(got[:, 3], tp), _close(got[:, :2], ev[:, :2]))
        require(err <= EXACT_TOL, f"boost_event off by {err:.2e}")
        return {}

    def run_comoving(t: Tracer):
        f = t.wrap("kinematics.comoving_coords", bf.comoving_coords)
        return [f(e, b) for e in events]

    def check_comoving(out):
        got = np.array([(c.xi, c.eta) for c in out])
        err = max(_close(got[:, 0], zp), _close(got[:, 1], tp - tau))
        require(err <= EXACT_TOL, f"comoving_coords off by {err:.2e}")
        return {}

    def run_inverse(t: Tracer):
        f = t.wrap("kinematics.inverse_boost_event", bf.inverse_boost_event)
        return [f(e, b) for e in boosted]

    def check_inverse(out):
        got = np.array([(o.x, o.y, o.z, o.tau) for o in out])
        err = _close(got, ev)
        require(err <= EXACT_TOL, f"inverse_boost_event round trip off by {err:.2e}")
        return {}

    op("kinematics.boost_event", run_boost, check_boost)
    op("kinematics.comoving_coords", run_comoving, check_comoving)
    op("kinematics.inverse_boost_event", run_inverse, check_inverse)

    # profiles: scalar (value, dz, dzz at one point) and array paths ----------
    cls = type(prof).__name__

    def run_scalar(t: Tracer):
        # one call is the triple; dz and dzz carry no work so spans count calls once
        v = t.wrap(f"profiles.{cls}.value", prof.value, 1, f"scalar.{kind}")
        d1 = t.wrap(f"profiles.{cls}.dz", prof.dz, 0, f"scalar.{kind}")
        d2 = t.wrap(f"profiles.{cls}.dzz", prof.dzz, 0, f"scalar.{kind}")
        return [(v(x), d1(x), d2(x)) for x in zp.tolist()]

    def check_scalar(out):
        got = np.array(out)
        want = np.stack([prof.value(zp), prof.dz(zp), prof.dzz(zp)], axis=1)
        err = _close(got, want)
        require(err <= EXACT_TOL, f"scalar profile differs from its array path by {err:.2e}")
        return {}

    zs = ki.z_array

    def run_array(t: Tracer):
        return (
            t.call(f"profiles.{cls}.value", prof.value, zs, work=zs.size, tag=f"array.{kind}"),
            t.call(f"profiles.{cls}.dz", prof.dz, zs, work=0, tag=f"array.{kind}"),
            t.call(f"profiles.{cls}.dzz", prof.dzz, zs, work=0, tag=f"array.{kind}"),
        )

    picks = np.linspace(0, zs.size - 1, 17).astype(int)

    def check_array(out):
        got = np.stack([np.asarray(a)[picks] for a in out], axis=1)
        want = np.array([(prof.value(x), prof.dz(x), prof.dzz(x)) for x in zs[picks].tolist()])
        err = _close(got, want)
        require(err <= EXACT_TOL, f"array profile differs from its scalar path by {err:.2e}")
        return {}

    op("profiles.scalar", run_scalar, check_scalar)
    op("profiles.array", run_array, check_array)

    # fields -------------------------------------------------------------------
    psi_ref, env_ref = _lab_reference(spec, z, tau)
    axis_ref, _ = _lab_reference(spec, ki.z_axis, ki.tau0)

    def run_psi(t: Tracer):
        f = t.wrap("fields.FieldSpec.psi_lab", spec.psi_lab)
        return [f(e) for e in events]

    def run_env(t: Tracer):
        f = t.wrap("fields.FieldSpec.envelope", spec.envelope)
        return [f(0, e) for e in events]

    def run_axis(t: Tracer):
        return t.call(
            "fields.FieldSpec.psi_lab_on_axis", spec.psi_lab_on_axis, ki.z_axis, ki.tau0, work=ki.z_axis.size
        )

    def against(ref, what):
        def check(out):
            err = _close(np.asarray(out), ref)
            require(err <= EXACT_TOL, f"{what} differs from the array-path reference by {err:.2e}")
            return {}

        return check

    op("fields.psi_lab", run_psi, against(psi_ref, "psi_lab"))
    op("fields.envelope", run_env, against(env_ref, "envelope"))
    op("fields.psi_lab_on_axis", run_axis, against(axis_ref, "psi_lab_on_axis"))

    # verify -------------------------------------------------------------------
    def residual(name, fn, *args, tag=None, **kwargs):
        def run(t: Tracer):
            return t.call(f"verify.{name}", fn, *args, work=n, tag=tag, **kwargs)

        def check(rep):
            require(rep.max_abs <= RESIDUAL_TOL, f"{name} max residual {rep.max_abs:.2e} above {RESIDUAL_TOL:.0e}")
            return {"verify.max_normalized_residual": rep.max_abs}

        op(f"verify.{name}" + (f".{tag}" if tag else ""), run, check)

    residual("envelope_equation_residual", bf.envelope_equation_residual, spec, 0, events, tag="analytic")

    def run_fd(t: Tracer):
        f = t.wrap("verify.envelope_equation_residual", bf.envelope_equation_residual, work=n, tag="fd")
        return f(spec, 0, events, derivatives="fd")

    def check_fd(rep):
        # The stencil's truncation error grows as (h / feature size)^2, and h = L/100
        # is coarse next to some profiles' features.  Above the tolerance the residual
        # must therefore be that error: halving h must cut it at second order.
        if rep.max_abs > FD_RESIDUAL_TOL:
            half = bf.envelope_equation_residual(spec, 0, events, derivatives="fd", h=rep.stencil_spacing / 2)
            order = float(np.log2(rep.max_abs / half.max_abs))
            lo, hi = SLOPE_BAND
            require(
                lo <= order <= hi,
                f"fd envelope residual {rep.max_abs:.2e} above {FD_RESIDUAL_TOL:.0e} and of order {order:.2f} in h",
            )
        return {"verify.max_fd_residual": rep.max_abs}

    op("verify.envelope_equation_residual.fd", run_fd, check_fd)
    residual("klein_gordon_residual", bf.klein_gordon_residual, spec, 0, events)
    residual("scalar_invariance_check", bf.scalar_invariance_check, spec, 0, events)
    potential = bf.separable_potential(ki.wave_spec, 0)
    residual("schrodinger_residual", bf.schrodinger_residual, ki.wave_spec, 0, ki.mass, potential, events)

    if kind != "tabulated":
        # spline derivatives are only C1 at the knots (TabulatedProfile docstring),
        # so no convergence order is promised for that kind
        few = events[:SLOPE_EVENTS]

        def run_slopes(t: Tracer):
            return t.call("verify.derivative_slopes", bf.derivative_slopes, spec, 0, few, work=len(few))

        def check_slopes(slopes):
            active = [s for s in slopes.values() if s is not None]
            lo, hi = SLOPE_BAND
            bad = [s for s in active if not lo <= s <= hi]
            require(active and not bad, f"slopes out of [{lo}, {hi}]: {bad or 'none active'}")
            return {"verify.max_slope_deviation": max(abs(s - 2.0) for s in active)}

        op("verify.derivative_slopes", run_slopes, check_slopes)
    return ops


def make_ops(inputs: list[KindInputs]) -> tuple[list[Op], float]:
    """The operations of one pass and the pass's work: events certified."""
    ops = [o for ki in inputs for o in _kind_ops(ki)]
    return ops, float(sum(len(ki.events) for ki in inputs))
