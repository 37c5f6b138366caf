"""Amplitude profiles: spatial envelopes of single harmonics in the rest frame.

Every catalog profile is a complex function of the rest-frame longitudinal
coordinate alone and is constant across the transverse directions.  Each one
exposes closed-form first and second longitudinal derivatives; the residual
checks downstream lean on those, so the derivative methods are part of the
contract, not a convenience.  The tabulated profile interpolates with a cubic
spline and differentiates the spline itself, which keeps values and
derivatives mutually consistent even though they are not closed forms.

Profiles serialize to plain dicts (JSON-friendly).  Complex numbers are
stored as [re, im] pairs; a bare number is accepted on input.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial import hermite


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex value needs [re, im], got {v!r}")
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float, complex, np.number)):
        return complex(v)
    raise ValueError(f"cannot parse complex value from {v!r}")


# numpy's vectorized complex loops may fuse multiply-adds, and it divides a
# complex array by a real number through a reciprocal, so an array's last bit
# can differ from a scalar's and depend on the CPU.  Written in real arithmetic,
# an array rounds exactly as each of its points does alone, on every machine.


def _cmul(a, b):
    """a * b, with arrays rounded as a product of two scalars is."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    re, im = out.real, out.imag  # written in place through views: fewer temporaries
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def _cdiv(a, d: float):
    """a / d for a real d, divided part by part as a scalar is."""
    if not isinstance(a, np.ndarray):
        return a / d
    out = np.empty(a.shape, dtype=complex)
    np.divide(a.real, d, out=out.real)
    np.divide(a.imag, d, out=out.imag)
    return out


def _dump_complex(a: complex) -> list[float]:
    return [float(a.real), float(a.imag)]


def _require_keys(d: dict, required: set[str], kind: str) -> None:
    keys = set(d)
    if keys != required:
        missing = required - keys
        extra = keys - required
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unknown {sorted(extra)}")
        raise ValueError(f"bad keys for {kind} profile: " + ", ".join(parts))


class AmplitudeProfile(abc.ABC):
    """Complex envelope q(z) of one harmonic, with closed-form derivatives."""

    kind: ClassVar[str]

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
        """lap q / q in the rest frame; overridden where a closed form avoids nodes."""
        return self.dzz(z) / self.value(z)

    @property
    @abc.abstractmethod
    def characteristic_length(self) -> float:
        """Scale used to size finite-difference stencils against."""

    @abc.abstractmethod
    def is_real(self) -> bool:
        """True when q(z) is real for every z."""

    @abc.abstractmethod
    def to_dict(self) -> dict: ...


@dataclass(frozen=True)
class ConstantProfile(AmplitudeProfile):
    """q(z) = A."""

    amplitude: complex
    kind: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        a = _as_complex(self.amplitude)
        if not (np.isfinite(a.real) and np.isfinite(a.imag)):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "amplitude", a)

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, self.amplitude, dtype=complex)
        return out if out.shape else out[()]

    def dz(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape, dtype=complex)
        return out if out.shape else out[()]

    dzz = dz

    def curvature_ratio(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        return out if out.shape else 0.0

    @property
    def characteristic_length(self) -> float:
        return 1.0

    def is_real(self) -> bool:
        return self.amplitude.imag == 0.0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "amplitude": _dump_complex(self.amplitude)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstantProfile":
        _require_keys(d, {"kind", "amplitude"}, cls.kind)
        return cls(_as_complex(d["amplitude"]))


@dataclass(frozen=True)
class PlaneWaveProfile(AmplitudeProfile):
    """q(z) = A * exp(i k z)."""

    amplitude: complex
    wavenumber: float
    kind: ClassVar[str] = "plane_wave"

    def __post_init__(self) -> None:
        a = _as_complex(self.amplitude)
        if not (np.isfinite(a.real) and np.isfinite(a.imag)):
            raise ValueError("amplitude must be finite")
        if not np.isfinite(self.wavenumber):
            raise ValueError("wavenumber must be finite")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "wavenumber", float(self.wavenumber))

    def value(self, z):
        return _cmul(self.amplitude, np.exp(1j * self.wavenumber * np.asarray(z, dtype=float)))

    def dz(self, z):
        return 1j * self.wavenumber * self.value(z)

    def dzz(self, z):
        return -(self.wavenumber**2) * self.value(z)

    def curvature_ratio(self, z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, -(self.wavenumber**2))
        return out if out.shape else float(out)

    @property
    def characteristic_length(self) -> float:
        k = abs(self.wavenumber)
        return 2.0 * np.pi / k if k > 0 else 1.0

    def is_real(self) -> bool:
        return self.wavenumber == 0.0 and self.amplitude.imag == 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": _dump_complex(self.amplitude),
            "wavenumber": self.wavenumber,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlaneWaveProfile":
        _require_keys(d, {"kind", "amplitude", "wavenumber"}, cls.kind)
        return cls(_as_complex(d["amplitude"]), float(d["wavenumber"]))


@dataclass(frozen=True)
class GaussianProfile(AmplitudeProfile):
    """q(z) = A * exp(-(z - z0)^2 / (2 sigma^2))."""

    amplitude: complex
    center: float
    sigma: float
    kind: ClassVar[str] = "gaussian"

    def __post_init__(self) -> None:
        a = _as_complex(self.amplitude)
        if not (np.isfinite(a.real) and np.isfinite(a.imag)):
            raise ValueError("amplitude must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "sigma", float(self.sigma))

    def value(self, z):
        u = (np.asarray(z, dtype=float) - self.center) / self.sigma
        return self.amplitude * np.exp(-0.5 * u * u)

    def dz(self, z):
        u = (np.asarray(z, dtype=float) - self.center) / self.sigma
        return -(u / self.sigma) * self.value(z)

    def dzz(self, z):
        u = (np.asarray(z, dtype=float) - self.center) / self.sigma
        return ((u * u - 1.0) / self.sigma**2) * self.value(z)

    def curvature_ratio(self, z):
        u = (np.asarray(z, dtype=float) - self.center) / self.sigma
        out = (u * u - 1.0) / self.sigma**2
        return out if out.shape else float(out)

    @property
    def characteristic_length(self) -> float:
        return self.sigma

    def is_real(self) -> bool:
        return self.amplitude.imag == 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": _dump_complex(self.amplitude),
            "center": self.center,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianProfile":
        _require_keys(d, {"kind", "amplitude", "center", "sigma"}, cls.kind)
        return cls(_as_complex(d["amplitude"]), float(d["center"]), float(d["sigma"]))


@dataclass(frozen=True)
class GaussHermiteProfile(AmplitudeProfile):
    """q(z) = A * H_n(u) * exp(-u^2 / 2) with u = (z - z0) / sigma.

    This is the n-th harmonic-oscillator eigenfunction shape: its
    curvature ratio dzz/value is the quadratic well (u^2 - 2n - 1)/sigma^2,
    which makes it the natural stationary test profile.
    """

    amplitude: complex
    order: int
    center: float
    sigma: float
    kind: ClassVar[str] = "gauss_hermite"

    def __post_init__(self) -> None:
        a = _as_complex(self.amplitude)
        if not (np.isfinite(a.real) and np.isfinite(a.imag)):
            raise ValueError("amplitude must be finite")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 0):
            raise ValueError(f"order must be a non-negative integer, got {self.order!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not np.isfinite(self.center):
            raise ValueError("center must be finite")
        object.__setattr__(self, "amplitude", a)
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "sigma", float(self.sigma))

    def _u(self, z):
        return (np.asarray(z, dtype=float) - self.center) / self.sigma

    def _hermite(self, u, n: int):
        if n < 0:
            return np.zeros_like(np.asarray(u, dtype=float))
        coefs = np.zeros(n + 1)
        coefs[n] = 1.0
        return hermite.hermval(u, coefs)

    def value(self, z):
        u = self._u(z)
        return self.amplitude * self._hermite(u, self.order) * np.exp(-0.5 * u * u)

    def dz(self, z):
        # d/du [H_n e^{-u^2/2}] = (2n H_{n-1} - u H_n) e^{-u^2/2}
        u = self._u(z)
        n = self.order
        core = 2.0 * n * self._hermite(u, n - 1) - u * self._hermite(u, n)
        return _cdiv(self.amplitude * core * np.exp(-0.5 * u * u), self.sigma)

    def dzz(self, z):
        # d2/du2 [H_n e^{-u^2/2}] = (u^2 - 2n - 1) H_n e^{-u^2/2}
        u = self._u(z)
        well = u * u - 2.0 * self.order - 1.0
        return _cdiv(self.value(z) * well, self.sigma**2)

    def curvature_ratio(self, z):
        # the quadratic well, finite at the Hermite nodes
        u = self._u(z)
        out = (u * u - 2.0 * self.order - 1.0) / self.sigma**2
        return out if out.shape else float(out)

    @property
    def characteristic_length(self) -> float:
        return self.sigma

    def is_real(self) -> bool:
        return self.amplitude.imag == 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude": _dump_complex(self.amplitude),
            "order": self.order,
            "center": self.center,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussHermiteProfile":
        _require_keys(d, {"kind", "amplitude", "order", "center", "sigma"}, cls.kind)
        return cls(
            _as_complex(d["amplitude"]),
            int(d["order"]),
            float(d["center"]),
            float(d["sigma"]),
        )


class TabulatedProfile(AmplitudeProfile):
    """Profile given by samples on a grid, evaluated via a cubic spline.

    The declared support is the sampled interval; evaluation outside it
    raises rather than extrapolating.  Derivatives come from the spline,
    so they agree with the interpolated values but are only as smooth as
    a cubic allows: do not expect clean second-order stencil convergence
    against them near the knots.
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
        from scipy.interpolate import CubicSpline  # scipy only loads for tabulated profiles

        self._spline = CubicSpline(z, v)
        self._lo = z[0]
        self._hi = z[-1]
        slack = 1e-9 * (self._hi - self._lo)
        self._support = (float(self._lo - slack), float(self._hi + slack))

    def _check_support(self, z):
        lo, hi = self._support
        if isinstance(z, float) and not (z < lo or z > hi):  # one point inside, or NaN: no arrays
            return z
        z = np.asarray(z, dtype=float)
        if np.any(z < lo) or np.any(z > hi):
            raise ValueError(
                f"evaluation outside tabulated support [{self._lo}, {self._hi}]"
            )
        return z

    def value(self, z):
        z = self._check_support(z)
        out = self._spline(z)
        return out if out.shape else complex(out)

    def dz(self, z):
        z = self._check_support(z)
        out = self._spline(z, 1)
        return out if out.shape else complex(out)

    def dzz(self, z):
        z = self._check_support(z)
        out = self._spline(z, 2)
        return out if out.shape else complex(out)

    @property
    def characteristic_length(self) -> float:
        return (self._hi - self._lo) / 10.0

    def is_real(self) -> bool:
        return bool(np.all(self.values_at_nodes.imag == 0.0))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "z": [float(x) for x in self.z_nodes],
            "values": [_dump_complex(complex(v)) for v in self.values_at_nodes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TabulatedProfile":
        _require_keys(d, {"kind", "z", "values"}, cls.kind)
        return cls(d["z"], [_as_complex(v) for v in d["values"]])

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
    try:
        cls = _PROFILE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown profile kind {kind!r}, expected one of {sorted(_PROFILE_KINDS)}"
        ) from None
    return cls.from_dict(d)
