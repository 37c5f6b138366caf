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
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field


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
        if not (math.isfinite(self.beta) and abs(self.beta) < 1.0):
            raise ValueError(
                f"superluminal boost: beta={self.beta!r}, need |beta| < 1"
            )
        # factored form stays accurate as |beta| -> 1, where 1 - beta**2
        # cancels catastrophically
        gamma = 1.0 / math.sqrt((1.0 - self.beta) * (1.0 + self.beta))
        object.__setattr__(self, "gamma", gamma)

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
    """Spacetime point (x, y, z, tau); tau in length units.  Its ``_replace`` checks as ``Event(...)`` does."""

    __slots__ = ()

    def __new__(cls, x, y, z, tau):
        finite = math.isfinite
        if not (finite(x) and finite(y) and finite(z) and finite(tau)):
            name, v = next((n, v) for n, v in zip(cls._fields, (x, y, z, tau)) if not finite(v))
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
