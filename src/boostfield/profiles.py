"""Amplitude profiles: spatial envelopes of single harmonics in the rest frame.

Every catalog profile is a complex function of the rest-frame longitudinal
coordinate alone and is constant across the transverse directions.  Each one
exposes closed-form first and second longitudinal derivatives; the residual
checks downstream lean on those, so the derivative methods are part of the
contract, not a convenience.  The tabulated profile interpolates with a
not-a-knot cubic spline, solved in numpy, and differentiates the spline
itself, which keeps values and derivatives mutually consistent even though
they are not closed forms.

Every method takes a float or an array of any shape.  One number, be it a
Python float, an np.float64 or a 0-d array, is read as a Python float, so a
call at one point pays for its own arithmetic and not for numpy's 0-d
machinery, and it returns that point's element of the array call bit for bit.

Profiles serialize to plain dicts (JSON-friendly).  A catalog profile's
record is its dataclass fields plus its kind (a Gaussian, the order-0
Gauss-Hermite profile, leaves out its order): complex numbers are stored as
[re, im] pairs (a bare number is accepted on input), float fields as finite
real numbers and int fields as integers.
"""

from __future__ import annotations

import abc
import bisect
import cmath
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .kinematics import _as_complex, _read_field, _real


def _points(z):
    """One number as a Python float (np.float64 and 0-d arrays included), else a float array.

    Python floats round as numpy's do, so numpy is called on one point only for exp.
    """
    if isinstance(z, float):
        return float(z)
    z = np.asarray(z, dtype=float)
    return float(z) if z.ndim == 0 else z


# numpy's vectorized complex loops may fuse multiply-adds, and it divides a
# complex array by a real number through a reciprocal, so an array's last bit
# can differ from a scalar's and depend on the CPU.  Written in real arithmetic,
# an array rounds exactly as each of its points does alone, on every machine.


def _cmul(a, b):
    """a * b, with arrays rounded as a product of two scalars is."""
    if type(a) is complex is type(b) or not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b  # one point; two Python complexes, a per-event call's usual pair, take one test
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = out.real, out.imag  # written in place through views: fewer temporaries
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def _cexp(w):
    """exp(w): cmath on one finite Python complex with Re w <= 700, where it rounds as numpy's
    complex exp does (numpy rescales from Re w ~ 708.4 on); otherwise numpy, which keeps its
    value and RuntimeWarning on an infinite, NaN or overflowing phase, where cmath raises or is silent."""
    if type(w) is complex and w.real <= 700.0 and cmath.isfinite(w):
        return cmath.exp(w)
    return np.exp(w)


def _cdiv(a, d: float):
    """a / d for a real d, divided part by part on one point as on an array.

    Python's complex division by a float does not: it takes the sign of a
    zero part from a.real + a.imag * 0.
    """
    if not isinstance(a, np.ndarray):
        return complex(a.real / d, a.imag / d)
    out = np.empty(a.shape, dtype=complex)
    np.divide(a.real, d, out=out.real)
    np.divide(a.imag, d, out=out.imag)
    return out


def _refuse_overflow(profile, *bounds: float) -> None:
    """Refuse ``profile`` unless each bound on |q|, |q'|, |q''| and on the factors they are built from is finite."""
    if not all(map(math.isfinite, bounds)):
        raise ValueError(f"{profile!r}: q, q' or q'' would overflow a float")


def _require_keys(v, name: str, keys: tuple[str, ...]) -> dict:
    """v as a mapping with every one of ``keys`` and nothing beyond them."""
    if not isinstance(v, dict):
        raise ValueError(f"{name} record must be a mapping, got {v!r}")
    unknown = set(v) - set(keys)
    if unknown:
        raise ValueError(f"unknown {name} keys {sorted(unknown)}")
    missing = [key for key in keys if key not in v]
    if missing:
        raise ValueError(f"{name} record needs " + " and ".join(map(repr, keys)) + f", missing {missing}")
    return v


class AmplitudeProfile(abc.ABC):
    """Complex envelope q(z) of one harmonic, with closed-form derivatives.

    A catalog profile is a frozen dataclass: its fields are read, checked and
    serialized here, by their annotated type, so a subclass states only its
    math and its range checks.
    """

    kind: ClassVar[str]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _read_field(f.type, f.name, getattr(self, f.name)))

    @abc.abstractmethod
    def value(self, z):
        """q(z); accepts scalars or arrays."""

    @abc.abstractmethod
    def dz(self, z):
        """dq/dz."""

    @abc.abstractmethod
    def dzz(self, z):
        """d2q/dz2."""

    def curvature_ratio(self, z):
        """lap q / q in the rest frame; overridden where a closed form avoids nodes.

        np.divide rounds one point as it rounds each element of an array;
        Python's complex division does not.  At a node of q the ratio is
        inf or nan, without a warning; callers refuse non-finite values.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(self.dzz(z), self.value(z))

    @property
    @abc.abstractmethod
    def characteristic_length(self) -> float:
        """Scale used to size finite-difference stencils against."""

    def is_real(self) -> bool:
        """True when q(z) is real for every z."""
        return self.amplitude.imag == 0.0

    def to_dict(self) -> dict:
        rec = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            rec[f.name] = [v.real, v.imag] if isinstance(v, complex) else v
        return rec

    @classmethod
    def from_dict(cls, d: dict) -> "AmplitudeProfile":
        names = [f.name for f in fields(cls)]
        _require_keys(d, f"{cls.kind} profile", ("kind", *names))
        return cls(**{name: d[name] for name in names})


@dataclass(frozen=True)
class ConstantProfile(AmplitudeProfile):
    """q(z) = A."""

    amplitude: complex
    kind: ClassVar[str] = "constant"

    def value(self, z):
        z = _points(z)
        return self.amplitude if isinstance(z, float) else np.full(z.shape, self.amplitude)

    def dz(self, z):
        z = _points(z)
        return 0j if isinstance(z, float) else np.zeros(z.shape, dtype=complex)

    dzz = dz

    def curvature_ratio(self, z):
        z = _points(z)
        return 0.0 if isinstance(z, float) else np.zeros(z.shape)

    @property
    def characteristic_length(self) -> float:
        return 1.0


@dataclass(frozen=True)
class PlaneWaveProfile(AmplitudeProfile):
    """q(z) = A * exp(i k z)."""

    amplitude: complex
    wavenumber: float
    kind: ClassVar[str] = "plane_wave"

    def __post_init__(self) -> None:
        super().__post_init__()
        k = max(1.0, abs(self.wavenumber))
        _refuse_overflow(self, max(abs(self.amplitude), 1.0) * k * k)  # dzz forms k^2 first

    def value(self, z):
        return _cmul(self.amplitude, _cexp(1j * self.wavenumber * _points(z)))

    def dz(self, z):
        return 1j * self.wavenumber * self.value(z)

    def dzz(self, z):
        return -(self.wavenumber**2) * self.value(z)

    def curvature_ratio(self, z):
        z, ratio = _points(z), -(self.wavenumber**2)
        return ratio if isinstance(z, float) else np.full(z.shape, ratio)

    @property
    def characteristic_length(self) -> float:
        k = abs(self.wavenumber)
        return 2.0 * np.pi / k if k > 0 else 1.0

    def is_real(self) -> bool:
        return self.wavenumber == 0.0 and self.amplitude.imag == 0.0


@dataclass(frozen=True)
class GaussHermiteProfile(AmplitudeProfile):
    """q(z) = A * H_n(u) * exp(-u^2 / 2) with u = (z - z0) / sigma.

    This is the n-th harmonic-oscillator eigenfunction shape: its
    curvature ratio dzz/value is the quadratic well (u^2 - 2n - 1)/sigma^2,
    which makes it the natural stationary test profile.

    H_n e^{-u^2/2} is sqrt(2^n n!) psi_n, and psi_k = H_k e^{-u^2/2} / sqrt(2^k k!)
    follows the recurrence psi_{k+1} = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_{k-1}
    (DLMF 18.9.1) from psi_0 = e^{-u^2/2}: no psi_k exceeds 1.09 (Cramer's bound),
    so only an order whose sqrt(2^n n!) overflows a float is out of reach.  The
    derivatives psi_n' and psi_n (u^2 - 2n - 1) stay below 1.09 (4n + 2), so a
    profile is refused unless sigma^2 and |A| sqrt(2^n n!) 1.09 (4n + 2) max(1, 1/sigma^2),
    which bounds |q|, |q'|, |q''| and their products before the division by sigma, are floats.
    """

    amplitude: complex
    order: int
    center: float
    sigma: float
    kind: ClassVar[str] = "gauss_hermite"

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.order
        if n < 0:
            raise ValueError(f"order must be a non-negative integer, got {n!r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if n > 267:  # the last n whose sqrt(2^n n!) is a float; checked before the factorial of a huge n
            raise ValueError(f"order {n} is too high: its peak, about sqrt(2^n n!), overflows a float")
        m = math.factorial(n) << n  # sqrt(2^n n!) from its top 110 bits, rounded once
        e = max(m.bit_length() - 110, 0) & ~1
        peak = math.ldexp(math.sqrt(m >> e), e // 2)
        r = max(1.0, 1.0 / self.sigma)
        _refuse_overflow(self, abs(self.amplitude) * peak * 1.09 * (4 * n + 2) * r * r, self.sigma * self.sigma)
        # at n = 0 the peak is 1, and A * 1.0, a complex product, would turn a part -0.0 of A into +0.0
        object.__setattr__(self, "_amp", self.amplitude * peak if n else self.amplitude)
        steps = tuple((math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(1, n))
        object.__setattr__(self, "_steps", steps)  # (a, b) of psi_{k+1} = a u psi_k - b psi_{k-1}

    def _u(self, z):
        return (_points(z) - self.center) / self.sigma

    def _psi(self, u):
        """psi_{n-1} and psi_n at u (psi_{-1} = 0); in place, so an array step makes two temporaries."""
        prev = np.exp(-0.5 * u * u)
        if isinstance(u, float):
            prev = float(prev)
        if self.order == 0:
            return 0.0, prev
        cur = math.sqrt(2.0) * u
        cur *= prev
        for a, b in self._steps:
            nxt = a * u
            nxt *= cur
            nxt -= b * prev
            prev, cur = cur, nxt
        return prev, cur

    def _value(self, u):
        return self._amp * self._psi(u)[1]

    def value(self, z):
        return self._value(self._u(z))

    def dz(self, z):
        # d/du [H_n e^{-u^2/2}] = sqrt(2^n n!) (sqrt(2n) psi_{n-1} - u psi_n)
        u = self._u(z)
        prev, cur = self._psi(u)
        prev *= math.sqrt(2.0 * self.order)
        cur *= u
        prev -= cur
        del u, cur  # two arrays fewer alive beside the two complex ones below
        return _cdiv(self._amp * prev, self.sigma)

    def dzz(self, z):
        # d2/du2 [H_n e^{-u^2/2}] = (u^2 - 2n - 1) H_n e^{-u^2/2}
        u = self._u(z)
        well = u * u - 2.0 * self.order - 1.0
        return _cdiv(self._value(u) * well, self.sigma**2)

    def curvature_ratio(self, z):
        # the quadratic well, finite at the Hermite nodes
        u = self._u(z)
        return (u * u - 2.0 * self.order - 1.0) / self.sigma**2

    @property
    def characteristic_length(self) -> float:
        return self.sigma


class GaussianProfile(GaussHermiteProfile):
    """q(z) = A * exp(-(z - z0)^2 / (2 sigma^2)): the order-0 Gauss-Hermite profile, whose code it runs.

    Its record holds no order: exactly kind, amplitude, center and sigma.
    """

    kind: ClassVar[str] = "gaussian"

    def __init__(self, amplitude, center, sigma) -> None:
        super().__init__(amplitude, 0, center, sigma)

    def to_dict(self) -> dict:
        return {key: v for key, v in super().to_dict().items() if key != "order"}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianProfile":
        _require_keys(d, f"{cls.kind} profile", ("kind", "amplitude", "center", "sigma"))
        return cls(d["amplitude"], d["center"], d["sigma"])


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0) of the not-a-knot cubic through (x, y) on each interval.

    y holds one row per real series.  The slopes s at the nodes solve the
    tridiagonal system that scipy's CubicSpline builds, by Gaussian
    elimination without pivoting (de Boor, A Practical Guide to Splines,
    ch. IV); on [x_i, x_i+1] the cubic is c3 t^3 + c2 t^2 + c1 t + c0 with
    t = z - x_i.  A spacing too small for the divided differences leaves a
    non-finite coefficient or a zero pivot; the caller refuses both.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[:, i]
    lower = np.concatenate(([0.0], dx[1:], [d1])).tolist()
    diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
    upper = np.concatenate(([d0], dx[:-1], [0.0])).tolist()
    rhs = np.empty_like(y)
    rhs[:, 0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / d0
    rhs[:, 1:-1] = 3.0 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    rhs[:, -1] = (dx[-1] ** 2 * slope[:, -2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[:, -1]) / d1
    s = []
    for r in rhs.tolist():
        pivot = diag[:]
        for i in range(1, len(r)):
            w = lower[i] / pivot[i - 1]
            pivot[i] -= w * upper[i - 1]
            r[i] -= w * r[i - 1]
        r[-1] /= pivot[-1]
        for i in range(len(r) - 2, -1, -1):
            r[i] = (r[i] - upper[i] * r[i + 1]) / pivot[i]
        s.append(r)
    s = np.array(s)
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / dx
    return np.array((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], y[:, :-1]))


def _horner(coefs, i, t):
    """sum_k coefs[k][i] t^(m-k) for interval i, on floats and lists or arrays alike."""
    acc = coefs[0][i]
    for c in coefs[1:]:
        acc *= t
        acc += c[i]
    return acc


class TabulatedProfile(AmplitudeProfile):
    """Profile given by samples on a grid, evaluated via a not-a-knot cubic spline.

    The declared support is the sampled interval; evaluation outside it
    raises rather than extrapolating.  Derivatives come from the spline,
    so they agree with the interpolated values but are only as smooth as
    a cubic allows: do not expect clean second-order stencil convergence
    against them near the knots.

    The spline is scipy's CubicSpline with its default not-a-knot ends, to
    round-off, built in numpy from one tridiagonal solve.  A point is
    evaluated by interval lookup and Horner on the real and imaginary parts
    apart, in the same operations for one point as for each element of an
    array, so the two agree bit for bit.
    """

    kind: ClassVar[str] = "tabulated"

    def __init__(self, z_nodes, values) -> None:
        z = np.asarray(z_nodes, dtype=float)
        v = np.asarray(values, dtype=complex)
        if z.ndim != 1 or z.size < 4:
            raise ValueError("need at least 4 nodes on a 1-d grid")
        if v.shape != z.shape:
            raise ValueError("values must match nodes in shape")
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise ValueError("nodes and values must be finite")
        if not np.all(np.diff(z) > 0):
            raise ValueError("nodes must be strictly increasing")
        self.z_nodes = z
        self.values_at_nodes = v
        with np.errstate(all="ignore"):  # a spline that cannot be represented raises below
            try:
                c3, c2, c1, c0 = _not_a_knot(z, np.array([v.real, v.imag]))
            except ZeroDivisionError:  # a pivot underflowed to zero
                c3 = c2 = c1 = c0 = np.nan
            orders = ((c3, c2, c1, c0), (3.0 * c3, 2.0 * c2, c1), (6.0 * c3, 2.0 * c2))
        if not all(np.all(np.isfinite(c)) for cs in orders for c in cs):
            raise ValueError("nodes too close together for a finite cubic spline")
        # value, dz and dzz: the real part's Horner coefficients, then the imaginary part's
        self._coefs = [tuple(zip(*cs)) for cs in orders]
        self._coef_lists = [[[c.tolist() for c in part] for part in cs] for cs in self._coefs]
        self._node_list = z.tolist()
        self._lo = z[0]
        self._hi = z[-1]
        slack = 1e-9 * (self._hi - self._lo)
        self._support = (float(self._lo - slack), float(self._hi + slack))

    def _spline(self, z, order: int):
        """Derivative ``order`` of the spline at z; a float reads Python lists, an array numpy's."""
        z = _points(z)
        lo, hi = self._support
        one = isinstance(z, float)
        if (z < lo or z > hi) if one else (np.any(z < lo) or np.any(z > hi)):  # NaN passes
            raise ValueError(f"evaluation outside tabulated support [{self._lo}, {self._hi}]")
        # the interval whose left node is the last one at or below z, the end ones extended
        if one:
            nodes = self._node_list
            i = bisect.bisect_right(nodes, z, 1, len(nodes) - 1) - 1
            re, im = self._coef_lists[order]
            t = z - nodes[i]
            return complex(_horner(re, i, t), _horner(im, i, t))
        i = np.clip(np.searchsorted(self.z_nodes, z, side="right") - 1, 0, self.z_nodes.size - 2)
        t = z - self.z_nodes[i]
        out = np.empty(z.shape, dtype=complex)
        for view, part in zip((out.real, out.imag), self._coefs[order]):
            view[...] = _horner(part, i, t)
        return out

    def value(self, z):
        return self._spline(z, 0)

    def dz(self, z):
        return self._spline(z, 1)

    def dzz(self, z):
        return self._spline(z, 2)

    @property
    def characteristic_length(self) -> float:
        return (self._hi - self._lo) / 10.0

    def is_real(self) -> bool:
        return bool(np.all(self.values_at_nodes.imag == 0.0))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "z": [float(x) for x in self.z_nodes],
            "values": [[v.real, v.imag] for v in self.values_at_nodes.tolist()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TabulatedProfile":
        _require_keys(d, f"{cls.kind} profile", ("kind", "z", "values"))
        if not (isinstance(d["z"], list) and isinstance(d["values"], list)):
            raise ValueError("tabulated profile needs lists 'z' and 'values'")
        return cls([_real("z", v) for v in d["z"]], [_as_complex(v) for v in d["values"]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TabulatedProfile)
            and np.array_equal(self.z_nodes, other.z_nodes)
            and np.array_equal(self.values_at_nodes, other.values_at_nodes)
        )

    def __repr__(self) -> str:
        return f"TabulatedProfile({self.z_nodes.size} nodes on [{self._lo}, {self._hi}])"


_PROFILE_KINDS = {
    cls.kind: cls
    for cls in (
        ConstantProfile,
        PlaneWaveProfile,
        GaussianProfile,
        GaussHermiteProfile,
        TabulatedProfile,
    )
}


def profile_from_dict(d: dict) -> AmplitudeProfile:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"profile record needs a 'kind' field, got {d!r}")
    kind = d["kind"]
    cls = _PROFILE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown profile kind {kind!r}, expected one of {sorted(_PROFILE_KINDS)}")
    return cls.from_dict(d)
