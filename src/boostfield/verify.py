"""Residual certification of the envelope and wave identities.

Everything here evaluates pointwise residuals of the differential identities
a boosted harmonic satisfies, in multiplied-through form (no division by the
field), and reports them normalized by the local term scale: a residual of
1e-16 next to terms of size 1e+2 is round-off, the same residual next to
terms of 1e-18 is not.  Reports therefore quote

    r(e) = |sum of equation terms at e| / (sum of |each term| + floor)

so a tolerance like 1e-10 means ten million times round-off headroom,
independent of field amplitude.

The derivative bundle of the lab-frame envelope b(e) = q(xi) e^{i w eta},
with xi = g(z - v t), eta = g(t - v z) - t, g = gamma, v = beta, w = omega:

    b_t  = (-g v q' + i w (g-1) q) e^{i w eta}
    b_z  = ( g q'  - i g w v  q) e^{i w eta}
    b_tt = (g^2 v^2 q'' - 2 i g (g-1) w v q' - w^2 (g-1)^2 q) e^{i w eta}
    b_zz = (g^2 q'' - g^2 w^2 v^2 q - 2 i g^2 w v q') e^{i w eta}

Transverse derivatives vanish for the profile catalog, so the bundle carries
these four and b_zz is the lab Laplacian.  Central-difference stencils of
first and second order provide the independent cross-check.

Every residual check is one call of one pipeline, ``_certify``: it turns the
events into one coordinate array, evaluates the bundle above over all of it
at once, keeps the events where the envelope is not negligible, sums the
check's terms into the normalized residual and writes the report.  The
envelope and Schrodinger checks share the four terms of one identity.  The
stencils evaluate the envelope on shifted copies of the same array.  An
error that names an event rebuilds it from its column of that array.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Literal

import numpy as np

from .fields import FieldSpec, MassParameters, _check_spacing
from .kinematics import Event, LorentzBoost, _read_field, _real
from .profiles import _cdiv, _cmul

_AXES = ("x", "y", "z", "tau")


@dataclass(frozen=True)
class DerivativeBundle:
    """First and second partial derivatives of a complex field along tau and z.

    Entries are complex arrays over a batch of events, one element per event.
    """

    d_tau: complex
    d_z: complex
    d2_tau: complex
    d2_z: complex


@dataclass(frozen=True)
class ResidualReport:
    """Normalized residual statistics of one identity over an event sample."""

    equation_id: str
    sample_count: int
    max_abs: float
    rms: float
    stencil_spacing: float | None
    metadata: dict

    def __post_init__(self) -> None:
        if not (self.max_abs >= self.rms >= 0.0):
            raise ValueError(
                f"need max_abs >= rms >= 0, got {self.max_abs!r}, {self.rms!r}"
            )
        if self.sample_count < 1:
            raise ValueError("report needs at least one sample")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScanResult:
    """Log-log slope fit of a scalar quantity against a parameter."""

    points: tuple[tuple[float, float], ...]
    fitted_slope: float
    fit_range: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.points) < 3:
            raise ValueError("need at least 3 points for a slope fit")

    def to_dict(self) -> dict:
        return asdict(self)  # tuples, written as JSON lists


def _coords(events) -> np.ndarray:
    """Lab coordinates of a list of events as a (4, n) array, rows x, y, z, tau."""
    return np.fromiter(chain.from_iterable(events), float, 4 * len(events)).reshape(-1, 4).T.copy()


def _event(X: np.ndarray, i: int) -> Event:
    """Column i of a (4, n) coordinate array as an Event of plain floats, for a message."""
    return Event(*X[:, i].tolist())


def _abs(a) -> np.ndarray:
    """Complex modulus as Python's abs rounds it (numpy's vectorized one may not)."""
    return np.hypot(a.real, a.imag)


def _stencils(field: Callable, X: np.ndarray, axes, h: float) -> dict:
    """First and second central differences, (up - dn) / 2h and (up - 2 mid + dn) / h^2,
    of an array field along each axis.

    ``field`` maps a (4, n) coordinate array to n values; it is called once, on
    the events and all their shifted copies.  The result maps each axis name to
    its (first, second) difference arrays.  A non-finite difference raises,
    naming the first event it belongs to.
    """
    h = _check_spacing(h, "stencil")
    shifts = np.zeros((4, 1 + 2 * len(axes)))
    for j, axis in enumerate(axes):
        shifts[_AXES.index(axis), 1 + 2 * j : 3 + 2 * j] = (h, -h)
    vals = field((X[:, None, :] + shifts[:, :, None]).reshape(4, -1)).reshape(len(shifts[0]), -1)
    up, mid, dn = vals[1::2], vals[0], vals[2::2]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        first, second = _cdiv(up - dn, 2.0 * h), _cdiv(up - 2.0 * mid + dn, h * h)
    bad = ~(np.isfinite(first) & np.isfinite(second)).all(axis=0)
    if bad.any():
        raise ValueError(f"stencil produced non-finite value at {_event(X, int(np.argmax(bad)))!r}")
    return {axis: (first[j], second[j]) for j, axis in enumerate(axes)}


def _closed_form(spec: FieldSpec, k: int, X: np.ndarray):
    """Closed forms of envelope k at every event of a (4, n) batch.

    Returns q and q'' at xi, the phase e^{i w eta} and the derivative bundle;
    every check reads its terms from this one kernel.
    """
    comp = spec.components[k]
    b = spec.boost
    g, v, w = b.gamma, b.beta, comp.omega
    xi, tp = b.apply(X[2], X[3])
    eta = tp - X[3]
    prof = comp.profile
    q, qz, qzz = (np.asarray(f(xi), dtype=complex) for f in (prof.value, prof.dz, prof.dzz))
    ph = np.exp(1j * w * eta)
    bundle = DerivativeBundle(
        d_tau=_cmul(-g * v * qz + 1j * w * (g - 1.0) * q, ph),
        d_z=_cmul(g * qz - 1j * g * w * v * q, ph),
        d2_tau=_cmul(
            g * g * v * v * qzz - 2j * g * (g - 1.0) * w * v * qz - w * w * (g - 1.0) ** 2 * q, ph
        ),
        d2_z=_cmul(g * g * qzz - g * g * w * w * v * v * q - 2j * g * g * w * v * qz, ph),
    )
    return q, qzz, ph, bundle


def _fd_bundle(spec: FieldSpec, k: int, X: np.ndarray, h: float) -> DerivativeBundle:
    """Stencil derivative bundle of envelope k over a (4, n) batch of events."""
    st = _stencils(lambda Y: spec.envelope_on_axis(k, Y[2], Y[3]), X, ("tau", "z"), h)
    return DerivativeBundle(st["tau"][0], st["z"][0], st["tau"][1], st["z"][1])


_SCALE_FLOOR = 1e-30
_EPS_Q = 1e-8  # a check keeps the events whose envelope modulus exceeds this times its largest
_SLOPE_FLOOR = 1e-12  # derivative_slopes' degeneracy floor, relative to 1 + |entry|


def _normalized(*terms) -> np.ndarray:
    """|sum of terms| / (sum of |each term| + floor), event by event; NaN where a term is not finite."""
    total, scale = terms[0], _abs(terms[0])
    for t in terms[1:]:
        total = total + t
        scale = scale + _abs(t)
    return np.where(np.isfinite(scale), _abs(total) / (scale + _SCALE_FLOOR), np.nan)


def _certify(equation_id: str, spec: FieldSpec, k: int, events, terms, h=None, **metadata):
    """The one pipeline of every residual check: evaluate the closed forms once over
    the events, keep those where the envelope modulus exceeds ``_EPS_Q`` times its
    largest, and report the normalized residual of the equation terms that
    ``terms(X, q, qzz, ph, bundle)`` returns there, with the check's own ``metadata``."""
    X = _coords(events)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual raises below
        q, qzz, ph, bundle = _closed_form(spec, k, X)
        mods = _abs(q)
        qmax = float(np.max(mods)) if mods.size else 0.0
        if qmax == 0.0:
            raise ValueError("envelope vanishes on the whole event sample")
        keep = mods > _EPS_Q * qmax
        if not keep.any():
            raise ValueError("no events with envelope modulus above threshold")
        if not keep.all():
            X, q, qzz, ph = X[:, keep], q[keep], qzz[keep], ph[keep]
            bundle = DerivativeBundle(*(v[keep] for v in vars(bundle).values()))
        residuals = _normalized(*terms(X, q, qzz, ph, bundle))
    bad = ~np.isfinite(residuals)
    if bad.any():
        e = _event(X, int(np.argmax(bad)))
        raise ValueError(f"residual is not finite at {e!r}: an equation term is inf or nan there")
    comp, max_abs = spec.components[k], float(residuals.max())
    md = {"beta": spec.boost.beta, "omega": comp.omega, "profile": comp.profile.kind,
          "normalization": "local_term_scale", "eps_q": _EPS_Q, "events_given": len(events), **metadata}
    # the rms of equal residuals can round one ulp above their maximum
    rms = min(float(np.sqrt(np.mean(residuals**2))), max_abs)
    return ResidualReport(equation_id, int(residuals.size), max_abs, rms, h, md)


def _envelope_terms(bun: DerivativeBundle, psi_b, lap_q_ph, G: float, w: float) -> tuple:
    """The terms of -i G b_t + (1/2w) lap b - (1/2w) (lap q) e^{i w eta} - (w/2)(G-1)^2 b = 0,
    with b = ``psi_b`` and (lap q) e^{i w eta} = ``lap_q_ph``: the envelope identity, and
    times hbar c, with w = m c / hbar and U b = (hbar^2/2m) lap_q_ph, the Schrodinger form."""
    return (-1j * G * bun.d_tau, _cdiv(bun.d2_z, 2.0 * w), _cdiv(-lap_q_ph, 2.0 * w),
            -(w / 2.0) * (G - 1.0) ** 2 * psi_b)


def envelope_equation_residual(
    spec: FieldSpec,
    k: int,
    events: list[Event],
    derivatives: Literal["analytic", "fd"] = "analytic",
    h: float | None = None,
) -> ResidualReport:
    """Residual of the first-order envelope identity of harmonic k.

    The boosted envelope b satisfies exactly

        -i gamma b_t + (1/2w) lap b = [ (1/2w)(lap q / q) + (w/2)(gamma-1)^2 ] b

    where lap is the lab Laplacian and q the profile evaluated at xi.  The
    residual is evaluated multiplied through by q (the curvature term uses
    lap q * e^{i w eta} directly), so profile nodes cost nothing.  ``h`` is
    the stencil spacing of ``derivatives="fd"``, the profile's
    characteristic length over 100 by default; the analytic residual reads
    none and refuses one.
    """
    comp = spec.components[k]
    g, w = spec.boost.gamma, comp.omega
    if w == 0.0:
        raise ValueError("mean component has no envelope equation")
    if derivatives not in ("analytic", "fd"):
        raise ValueError(f"derivatives must be 'analytic' or 'fd', got {derivatives!r}")
    if derivatives == "analytic" and h is not None:
        raise ValueError(f"the analytic residual reads no stencil spacing; drop h={h!r} or take derivatives='fd'")
    if derivatives == "fd" and h is None:
        h = comp.profile.characteristic_length / 100.0

    def terms(X, q, qzz, ph, bun):
        if derivatives == "analytic":
            lap_q = g * g * qzz  # transverse parts vanish
        else:
            bun = _fd_bundle(spec, k, X, h)
            prof_field = lambda Y: comp.profile.value(spec.boost.apply(Y[2], Y[3])[0])
            lap_q = _stencils(prof_field, X, ("z",), h)["z"][1]  # transverse parts vanish
        return _envelope_terms(bun, _cmul(q, ph), _cmul(lap_q, ph), g, w)

    return _certify("envelope", spec, k, events, terms, h, derivatives=derivatives)


def schrodinger_residual(
    spec: FieldSpec,
    k: int,
    mass: MassParameters,
    potential: Callable,
    events: list[Event],
    gamma_mode: Literal["exact", "unity"] = "exact",
) -> ResidualReport:
    """Residual of the Schrodinger form of the envelope identity.

    With U = hbar^2 u / 2m and w = m c / hbar the envelope identity reads

        -i hbar c G b_t + (hbar^2/2m) lap b
            = [ (hbar^2/2m) u + m c^2 (G-1)^2 / 2 ] b

    exactly when G = gamma ("exact" mode).  "unity" mode sets G = 1, the
    static-limit equation; its residual is the relativistic leftovers and
    shrinks as the boost slows.  The residual is the envelope identity's with
    u b as the curvature term: the factor hbar c drops out of its normalization.

    The potential u(x, y, z) is called once on coordinate arrays and its
    result broadcast, so a constant return works.  It must reproduce
    lap q / q at every sampled event (time-separability); a mismatch raises
    rather than producing a silently meaningless residual.
    """
    if gamma_mode not in ("exact", "unity"):
        raise ValueError(f"gamma_mode must be 'exact' or 'unity', got {gamma_mode!r}")
    g, w = spec.boost.gamma, spec.components[k].omega
    if w == 0.0:
        raise ValueError("mean component has no envelope equation")
    if abs(w - mass.omega) > 1e-9 * max(w, mass.omega):
        raise ValueError(f"component omega {w} is not the carrier m c / hbar = {mass.omega}")

    def terms(X, q, qzz, ph, bun):
        with np.errstate(divide="ignore", invalid="ignore"):
            lap_ratio = np.where(q != 0, g * g * qzz / q, 0j)
        u = np.broadcast_to(np.asarray(potential(X[0], X[1], X[2]), dtype=complex), q.shape)
        bad = _abs(lap_ratio - u) > 1e-6 * (1.0 + _abs(lap_ratio) + _abs(u))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                "potential is not the profile's curvature ratio at "
                f"{_event(X, i)!r}: u={complex(u[i])!r} vs lap q / q={complex(lap_ratio[i])!r}; "
                "the profile does not separate in time under this boost"
            )
        psi_b = _cmul(q, ph)
        return _envelope_terms(bun, psi_b, _cmul(u, psi_b), g if gamma_mode == "exact" else 1.0, mass.omega)

    md = {"gamma_mode": gamma_mode, "m": mass.m, "hbar": mass.hbar, "c": mass.c}
    return _certify("schrodinger", spec, k, events, terms, **md)


def klein_gordon_residual(
    spec: FieldSpec,
    k: int,
    events: list[Event],
    mass_scalar: float | None = None,
) -> ResidualReport:
    """Residual of the second-order identity for the full harmonic psi.

    The harmonic psi = q(xi) e^{i w tau'} satisfies exactly

        psi_tt - lap psi + [ (lap q - v^2 q_zz)/q + w^2 ] psi = 0

    with lab derivatives of q throughout.  When ``mass_scalar`` is given it
    replaces the bracket (caller asserts the field has that constant
    scalar, e.g. plane waves); when None the bracket is evaluated from the
    profile, multiplied through by q.
    """
    g, v, w = spec.boost.gamma, spec.boost.beta, spec.components[k].omega
    if w == 0.0:
        raise ValueError("mean component has no envelope equation")
    mass_scalar = None if mass_scalar is None else _real("mass_scalar", mass_scalar)

    def terms(X, q, qzz, ph, bun):
        carrier = np.exp(1j * w * X[3])
        psi_b = _cmul(q, ph)
        psi = _cmul(psi_b, carrier)
        psi_tt = _cmul(bun.d2_tau + 2j * w * bun.d_tau - w * w * psi_b, carrier)
        lap_psi = _cmul(bun.d2_z, carrier)
        if mass_scalar is None:
            lap_q = g * g * qzz  # the lab lap q is its zz part: transverse parts vanish
            s_term = _cmul(_cmul(lap_q - v * v * lap_q, ph), carrier) + w * w * psi
        else:
            s_term = mass_scalar * psi
        return psi_tt, -lap_psi, s_term

    return _certify("klein_gordon", spec, k, events, terms, mass_scalar=mass_scalar)


def scalar_invariance_check(spec: FieldSpec, k: int, events: list[Event]) -> ResidualReport:
    """Frame agreement of the curvature scalar of harmonic k.

    Compares (lap q - v^2 q_zz)/q evaluated with lab derivatives against
    the rest-frame Laplacian ratio lap' q' / q' at the boosted event, whose
    z' is xi, read from the profile's closed-form ``curvature_ratio``.  The
    two are the same number, so the check fails when q'' and that closed
    form disagree; the report shows how close to round-off they agree.
    """
    b, prof = spec.boost, spec.components[k].profile
    g, v = b.gamma, b.beta
    rest = lambda X: prof.curvature_ratio(b.apply(X[2], X[3])[0])  # at z' = xi
    terms = lambda X, q, qzz, ph, bun: ((g * g * qzz - v * v * g * g * qzz) / q, -rest(X))
    return _certify("scalar_invariance", spec, k, events, terms)


def neglected_term(mass: MassParameters, beta: float) -> float:
    """The rest-energy correction m c^2 (gamma - 1)^2 / 2 at a given beta."""
    if not (math.isfinite(beta := _real("beta", beta)) and 0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    gamma = LorentzBoost(beta).gamma
    return mass.m * mass.c**2 * (gamma - 1.0) ** 2 / 2.0


def neglected_term_scan(mass: MassParameters, betas) -> ScanResult:
    """Scan the rest-energy correction over beta and fit its log-log slope.

    The term is quartic in beta at low speed; the fitted slope makes that
    visible without trusting the algebra.
    """
    betas = [_real("betas", b) for b in betas]
    if any(b <= 0.0 or b >= 1.0 for b in betas):
        raise ValueError("scan betas must lie strictly inside (0, 1)")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("scan betas must be strictly ascending")
    if sum(1 for b in betas if b <= 0.2) < 3:
        raise ValueError("need at least 3 betas in (0, 0.2] for a low-speed fit")
    points = tuple((b, neglected_term(mass, b)) for b in betas)
    slope = fit_loglog_slope([p[0] for p in points], [p[1] for p in points])
    return ScanResult(points, slope, (betas[0], betas[-1]))


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching x and y with at least 2 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def derivative_slopes(
    spec: FieldSpec,
    k: int,
    events: list[Event],
    hs=None,
) -> dict[str, float | None]:
    """Convergence order of stencils against the closed-form bundle.

    For each derivative entry, fits the log-log slope of the worst-case
    stencil error over the spacing ladder ``hs``; a slope of 2 certifies
    that the closed forms are the true derivatives.  Entries where closed
    form and stencils agree below the degeneracy floor (identically zero
    derivatives: static limits, constant profiles) return
    None, as do entries whose finest-ladder error sits at the stencil
    round-off plateau eps * |b| / h**order, where no order can be measured.
    A degenerate entry that *disagrees* raises.
    """
    comp = spec.components[k]
    if hs is None:
        L = comp.profile.characteristic_length
        hs = [L * 1e-2, L * 5e-3, L * 2.5e-3]
    hs = [_real("hs", h) for h in hs]
    if len(hs) < 3 or any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("need at least 3 strictly decreasing spacings")
    X = _coords(events)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite closed form raises below
        q, _, ph, bundle = _closed_form(spec, k, X)
        b = _cmul(q, ph)
    bad = ~np.isfinite([b, *vars(bundle).values()]).all(axis=0)
    if bad.any():
        raise ValueError(f"closed form is not finite at {_event(X, int(np.argmax(bad)))!r}")
    b_scale = float(np.max(_abs(b)))
    fds = [_fd_bundle(spec, k, X, h) for h in hs]  # once per spacing, all entries
    eps = float(np.finfo(float).eps)
    out: dict[str, float | None] = {}
    for name, exact in vars(bundle).items():
        floor_abs = _SLOPE_FLOOR * (1.0 + float(np.max(_abs(exact))))
        errs = [float(np.max(_abs(getattr(fd, name) - exact))) for fd in fds]
        if max(errs) <= floor_abs:
            out[name] = None
            continue
        if min(errs) <= 0.0:
            raise ValueError(f"degenerate error ladder for {name}: {errs}")
        order = 2 if name.startswith("d2") else 1
        roundoff = eps * (1.0 + b_scale) / hs[-1] ** order
        if errs[-1] <= 100.0 * roundoff:
            out[name] = None  # truncation hidden under subtraction noise
            continue
        out[name] = fit_loglog_slope(hs, errs)
    return out


def sample_events(n: int, seed: int, z=(-1.0, 1.0), tau=(-1.0, 1.0)) -> list[Event]:
    """Deterministic uniform events in a box: x and y on (-1, 1), z and tau on the given bounds."""
    if (n := _read_field("int", "n", n)) < 1:
        raise ValueError("need at least one event")
    box = [(-1.0, 1.0)] * 2 + [(_real(name, lo), _real(name, hi)) for name, (lo, hi) in (("z", z), ("tau", tau))]
    if not all(math.isfinite(hi - lo) for lo, hi in box):  # so the bounds are finite too
        raise ValueError(f"event box bounds must be finite with a finite width, got z={box[2]}, tau={box[3]}")
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(lo, hi, size=n).tolist() for lo, hi in box]
    return [Event(*vals) for vals in zip(*cols)]


def separable_potential(spec: FieldSpec, k: int) -> Callable:
    """Static lab potential u(x, y, z) = lap q / q for a separable profile.

    Exists for any boost when the curvature ratio is constant (constant and
    plane-wave profiles) and for arbitrary profiles only in the static
    case.  Raises when the ratio would be time-dependent.
    """
    comp = spec.components[k]
    b = spec.boost
    g = b.gamma
    kind = comp.profile.kind
    if kind == "constant":
        return lambda x, y, z: np.zeros_like(np.asarray(z, dtype=float))
    if kind == "plane_wave":
        gk = g * comp.profile.wavenumber
        if not math.isfinite(gk * gk):
            raise ValueError(f"plane-wave potential (gamma k)^2 overflows: gamma={g!r}, k={comp.profile.wavenumber!r}")
        val = -(gk**2)
        return lambda x, y, z: np.full_like(np.asarray(z, dtype=float), val)
    if b.beta != 0.0:
        raise ValueError(
            f"{kind} profile has a position-dependent curvature ratio; "
            "it does not separate in time under a nonzero boost"
        )

    def u(x, y, z):
        ratio = comp.profile.curvature_ratio(z)
        ratio = np.asarray(ratio)
        if np.any(np.abs(ratio.imag) > 1e-9 * (1.0 + np.abs(ratio))):
            raise ValueError("curvature ratio is not real; no Hermitian potential")
        out = ratio.real
        return out if out.shape else float(out)

    return u
