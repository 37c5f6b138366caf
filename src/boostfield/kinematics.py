"""Lorentz kinematics along a shared z axis.

Two inertial frames appear throughout this package: the rest frame of the
field object (primed coordinates) and the lab frame, which moves with
dimensionless velocity ``beta`` along the common z axis.  Time coordinates
are stored in length units, i.e. ``tau`` is c times the clock reading, so
every transformation below is dimensionless:

    x' = x
    y' = y
    z' = gamma * (z - beta * tau)
    tau' = gamma * (tau - beta * z)

with ``gamma = 1 / sqrt(1 - beta**2)``.  ``beta > 0`` means the lab frame
moves along +z relative to the rest frame; equivalently, an object at rest
in the primed frame drifts toward +z in the lab at speed ``beta``.  The
inverse transformation is the same map with ``-beta``.  ``LorentzBoost.apply``
computes the map, on floats or arrays; every function here calls it.  ``Event``
and ``ComovingCoords`` are named tuples of Python floats, each built as one
tuple; an event refuses a non-finite coordinate, so an overflowing boost raises, as
``comoving_coords`` does.

For a lab event (z, tau) the comoving coordinates are

    xi  = gamma * (z - beta * tau)          (identical to z')
    eta = gamma * (tau - beta * z) - tau    (rest-frame time minus lab time)

``eta`` isolates the part of the rest-frame phase that a lab carrier wave
exp(i*omega*tau) does not already account for: eta + tau = tau'.

Here too is the one rule by which the package reads a caller's number (``_real``,
``_as_complex``, ``_read_field``): a real number is not a bool, an integer accepts
an integral float, an integer beyond the floats reads as +-inf, and a numpy scalar is
stored as a Python float or int.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from math import isfinite  # for Event's per-coordinate check: one global load, where math.isfinite is two
from numbers import Complex, Real


def _real(name: str, v) -> float:
    """v as a Python float, for a real number that is not a bool; else ValueError naming it."""
    if type(v) is float:  # the usual case, read without an ABC test, which costs twice the read
        return v
    if isinstance(v, bool) or not isinstance(v, (float, int, Real)):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the floats reads as the infinity it rounds to, as 1e400 does
        return math.inf if v > 0 else -math.inf


def _as_complex(v) -> complex:
    """A complex number that is not a bool, or an [re, im] pair of real numbers, as a Python complex."""
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"complex value needs [re, im], got {v!r}")
        return complex(_real("re", v[0]), _real("im", v[1]))
    if isinstance(v, bool) or not isinstance(v, Complex):
        raise ValueError(f"cannot parse complex value from {v!r}")
    return complex(_real("re", v)) if isinstance(v, Real) else complex(v)


def _read_field(type_name: str, name: str, v):
    """v by its annotated type: a finite Python complex or float, or a Python int (3.0 reads as 3; 2.7 is refused)."""
    if type_name == "int":
        if type(v) is int or not isinstance(v, bool) and isinstance(v, (float, Real)) and float(v).is_integer():
            return int(v)
        raise ValueError(f"{name} must be an integer, got {v!r}")
    x = _as_complex(v) if type_name == "complex" else _real(name, v)
    if not cmath.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True)
class LorentzBoost:
    """Boost tying the lab frame to the rest frame.

    ``beta`` is the frame velocity in units of c and must satisfy
    |beta| < 1.  ``gamma`` is derived.  The map is dimensionless, as tau is
    a length, so a boost holds no speed of light; the one physical c is the
    carrier's, ``MassParameters.c``.
    """

    beta: float
    gamma: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", beta := _real("beta", self.beta))
        if not (math.isfinite(beta) and abs(beta) < 1.0):
            raise ValueError(f"superluminal boost: beta={beta!r}, need |beta| < 1")
        # factored form stays accurate as |beta| -> 1, where 1 - beta**2
        # cancels catastrophically
        object.__setattr__(self, "gamma", 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta)))

    def inverse(self) -> "LorentzBoost":
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "LorentzBoost":
        """The boost at -beta, built at the first call of inverse() and kept."""
        return LorentzBoost(-self.beta)

    def apply(self, z, tau):
        """(gamma (z - beta tau), gamma (tau - beta z)) for floats or broadcastable arrays.

        Every coordinate map in the package goes through here, so an array
        rounds exactly as each of its points does alone.
        """
        return self.gamma * (z - self.beta * tau), self.gamma * (tau - self.beta * z)


class Event(namedtuple("Event", "x y z tau")):
    """Spacetime point (x, y, z, tau) of Python floats, each read by ``_real``; tau in length units.  Its
    ``_replace`` checks as ``Event(...)`` does."""

    __slots__ = ()

    def __new__(cls, x, y, z, tau):
        if not type(x) is type(y) is type(z) is type(tau) is float:  # four Python floats skip the reader
            x, y, z, tau = (_real(n, v) for n, v in zip(cls._fields, (x, y, z, tau)))
        if not (isfinite(x) and isfinite(y) and isfinite(z) and isfinite(tau)):
            name, v = next((n, v) for n, v in zip(cls._fields, (x, y, z, tau)) if not isfinite(v))
            raise ValueError(f"non-finite event coordinate {name}={v!r}")
        return tuple.__new__(cls, (x, y, z, tau))

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # what _replace builds with


ComovingCoords = namedtuple("ComovingCoords", "xi eta")
ComovingCoords.__doc__ = "Longitudinal rest coordinate xi and phase-lag coordinate eta."


def boost_event(e: Event, b: LorentzBoost) -> Event:
    """Map a lab-frame event to its rest-frame coordinates."""
    x, y, z, tau = e
    return Event(x, y, *b.apply(z, tau))


def inverse_boost_event(e: Event, b: LorentzBoost) -> Event:
    """Map a rest-frame event back to lab coordinates."""
    return boost_event(e, b.inverse())


def comoving_coords(e: Event, b: LorentzBoost) -> ComovingCoords:
    """Comoving coordinates of a lab event: xi = z', eta = tau' - tau; ValueError naming one that overflows."""
    _, _, z, tau = e
    xi, tp = b.apply(z, tau)
    if not (math.isfinite(xi) and math.isfinite(eta := tp - tau)):
        name, v = ("xi", xi) if not math.isfinite(xi) else ("eta", eta)
        raise ValueError(f"non-finite comoving coordinate {name}={v!r}")
    return tuple.__new__(ComovingCoords, (xi, eta))  # the named tuple's own __new__ adds a Python call


def compose_boosts(b1: LorentzBoost, b2: LorentzBoost) -> LorentzBoost:
    """Boost equivalent to applying b1 and then b2 (relativistic velocity sum)."""
    return LorentzBoost((b1.beta + b2.beta) / (1.0 + b1.beta * b2.beta))


def interval(e: Event) -> float:
    """Invariant interval tau^2 - x^2 - y^2 - z^2 of an event; (tau - z)(tau + z) keeps
    the digits that tau^2 - z^2 loses near the light cone."""
    return (e.tau - e.z) * (e.tau + e.z) - e.x * e.x - e.y * e.y
