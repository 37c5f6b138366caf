"""Almost-periodic complex fields of a steadily moving object.

A field spec holds a finite set of harmonics.  In the object's rest frame
the complex field is

    psi'(r', tau') = sum_k q_k(z') * exp(i * omega_k * tau')

where each q_k is an amplitude profile (see :mod:`boostfield.profiles`) and
the omegas are distinct, non-negative and strictly increasing.  A zero
frequency is allowed only for a real profile: that component is the static
mean.  The real signal is the real part of psi'.

The lab field is the rest field read at the boosted event: with
(xi, tau') = ``boost.apply(z, tau)`` and eta = tau' - tau,

    psi(r, tau) = sum_k [q_k(xi) * exp(i * omega_k * eta)] * exp(i * omega_k * tau),

an envelope times a lab carrier.  One evaluator takes floats or
broadcastable arrays of lab (z, tau); the per-event methods are its 0-d
calls, so a point rounds alike either way.  The rest frame is the same spec
at beta = 0, ``replace(spec, boost=LorentzBoost(0.0))``: xi = z and eta = 0.
The scalar density sum_k |q_k|^2 is frame-invariant: |exp(i...)| = 1 and
xi equals z' exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kinematics import Event, LorentzBoost, _real
from .profiles import AmplitudeProfile, _cexp, _cmul, _require_keys, profile_from_dict


@dataclass(frozen=True)
class HarmonicComponent:
    """One harmonic: angular frequency omega plus its amplitude profile."""

    omega: float
    profile: AmplitudeProfile

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", omega := _real("omega", self.omega))
        if not (math.isfinite(omega) and omega >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
        if self.omega == 0.0 and not self.profile.is_real():
            raise ValueError("a zero-frequency (mean) component must have a real profile")


def _check_spacing(h: float, what: str) -> float:
    """h as a float; ValueError unless h > 0 and h^2 and 1 / h^2 are finite and nonzero."""
    h = _real(f"{what} spacing", h)
    if not (h > 0.0 and 0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
        raise ValueError(
            f"{what} spacing must be positive, with its square and inverse square finite and nonzero, got {h!r}"
        )
    return h


@dataclass(frozen=True)
class MassParameters:
    """Rest mass and action constant; the carrier frequency is omega = m c / hbar."""

    m: float
    hbar: float
    c: float = 1.0
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("m", "hbar", "c"):
            object.__setattr__(self, name, v := _real(name, getattr(self, name)))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        object.__setattr__(self, "omega", self.m * self.c / self.hbar)
        rest, scalar = self.m * (self.c * self.c), self.omega * self.omega  # where ** would raise, * gives inf
        for name, v in (("rest energy m c^2", rest), ("mass scalar (m c / hbar)^2", scalar)):
            if not math.isfinite(v):
                raise ValueError(f"{name} overflows: m={self.m!r}, hbar={self.hbar!r}, c={self.c!r}")


@dataclass(frozen=True)
class FieldSpec:
    """A boost plus a strictly-increasing ladder of harmonics."""

    components: tuple[HarmonicComponent, ...]
    boost: LorentzBoost

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("need at least one harmonic component")
        omegas = [c.omega for c in comps]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError(f"omegas must be strictly increasing, got {omegas}")
        object.__setattr__(self, "components", comps)

    # -- the evaluator: floats or broadcastable arrays of lab (z, tau) --------

    def envelope_on_axis(self, k: int, z, tau):
        """Envelope q_k(xi) * exp(i omega_k eta) of harmonic k; constant in x and y."""
        comp = self.components[k]
        xi, tp = self.boost.apply(z, tau)
        return _cmul(comp.profile.value(xi), _cexp(1j * comp.omega * (tp - tau)))

    def harmonic_on_axis(self, k: int, z, tau):
        """Harmonic k at lab (z, tau): the envelope times the carrier exp(i omega_k tau)."""
        return _cmul(self.envelope_on_axis(k, z, tau), _cexp(1j * self.components[k].omega * tau))

    def psi_lab_on_axis(self, z, tau):
        """Complex field at lab (z, tau): the sum of the harmonics."""
        total = 0j
        for k in range(len(self.components)):
            total += self.harmonic_on_axis(k, z, tau)
        return total

    def harmonic_dtau_on_axis(self, k: int, z, tau):
        """Exact d/dtau of harmonic k: (-gamma beta q'(xi) + i omega gamma q(xi)) e^{i omega tau'}."""
        comp = self.components[k]
        b = self.boost
        xi, tp = b.apply(z, tau)
        d = -b.gamma * b.beta * comp.profile.dz(xi) + 1j * comp.omega * b.gamma * comp.profile.value(xi)
        return _cmul(_cmul(d, _cexp(1j * comp.omega * (tp - tau))), _cexp(1j * comp.omega * tau))

    def envelope(self, k: int, e: Event) -> complex:
        """Envelope of harmonic k at a lab event."""
        return complex(self.envelope_on_axis(k, e.z, e.tau))

    def psi_lab(self, e: Event) -> complex:
        """Complex field at a lab event (all harmonics)."""
        return complex(self.psi_lab_on_axis(e.z, e.tau))

    def scalar_density(self, e: Event) -> float:
        """Frame-invariant density sum_k |q_k|^2 at a lab event, as the envelopes' squared moduli."""
        ks = range(len(self.components))
        return float(sum(np.square(np.abs(self.envelope_on_axis(k, e.z, e.tau))) for k in ks))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "boost": {"beta": self.boost.beta},
            "components": [
                {"omega": c.omega, "profile": c.profile.to_dict()}
                for c in self.components
            ],
        }


def spec_from_dict(d: dict) -> FieldSpec:
    d = _require_keys(d, "field-spec", ("boost", "components"))
    boost = LorentzBoost(_require_keys(d["boost"], "boost", ("beta",))["beta"])
    if not isinstance(d["components"], list):
        raise ValueError(f"components must be a list, got {d['components']!r}")
    comps = []
    for rec in d["components"]:
        rec = _require_keys(rec, "component", ("omega", "profile"))
        comps.append(HarmonicComponent(rec["omega"], profile_from_dict(rec["profile"])))
    return FieldSpec(tuple(comps), boost)


def dumps_spec(spec: FieldSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True)


def loads_spec(text: str) -> FieldSpec:
    return spec_from_dict(json.loads(text))


def save_spec(spec: FieldSpec, path) -> None:
    Path(path).write_text(dumps_spec(spec) + "\n")
