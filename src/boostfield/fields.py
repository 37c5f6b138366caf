"""Almost-periodic complex fields of a steadily moving object.

A field spec holds a finite set of harmonics.  In the object's rest frame
the complex field is

    psi'(r', tau') = sum_k q_k(z') * exp(i * omega_k * tau')

where each q_k is an amplitude profile (see :mod:`boostfield.profiles`) and
the omegas are distinct, non-negative and strictly increasing.  A zero
frequency is allowed only for a real profile: that component is the static
mean.  The real signal is the real part of psi'.

Seen from the lab frame the same field is obtained by substituting the
boost: with xi = gamma*(z - beta*tau) and eta = gamma*(tau - beta*z) - tau,

    psi(r, tau) = sum_k q_k(xi) * exp(i * omega_k * (eta + tau))

Each term factorizes into a lab carrier exp(i*omega_k*tau) and a slowly
varying envelope q_k(xi)*exp(i*omega_k*eta); ``envelope`` returns the
latter.  The scalar density sum_k |q_k|^2 is the same number in both
frames because |exp(i...)| = 1 and xi equals z' exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kinematics import Event, LorentzBoost, comoving_coords
from .profiles import AmplitudeProfile, _cmul, profile_from_dict


@dataclass(frozen=True)
class HarmonicComponent:
    """One harmonic: angular frequency omega plus its amplitude profile."""

    omega: float
    profile: AmplitudeProfile

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega!r}")
        object.__setattr__(self, "omega", float(self.omega))
        if self.omega == 0.0 and not self.profile.is_real():
            raise ValueError("a zero-frequency (mean) component must have a real profile")


@dataclass(frozen=True)
class MassParameters:
    """Rest mass and action constant; the carrier frequency is omega = m c / hbar."""

    m: float
    hbar: float
    c: float = 1.0
    omega: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("m", "hbar", "c"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        object.__setattr__(self, "omega", self.m * self.c / self.hbar)


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

    # -- rest frame -------------------------------------------------------

    def psi_rest(self, e: Event) -> complex:
        """Complex field at a rest-frame event."""
        total = 0j
        for comp in self.components:
            total += comp.profile.value(e.z) * np.exp(1j * comp.omega * e.tau)
        return complex(total)

    def signal_rest(self, e: Event) -> float:
        """Real signal at a rest-frame event; the real part of psi_rest."""
        return self.psi_rest(e).real

    # -- lab frame --------------------------------------------------------

    def envelope(self, k: int, e: Event) -> complex:
        """Envelope q_k(xi) * exp(i omega_k eta) of harmonic k at a lab event."""
        comp = self.components[k]
        cc = comoving_coords(e, self.boost)
        return complex(comp.profile.value(cc.xi) * np.exp(1j * comp.omega * cc.eta))

    def harmonic_lab(self, k: int, e: Event) -> complex:
        """Harmonic k at a lab event: envelope times the carrier exp(i omega_k tau)."""
        comp = self.components[k]
        return self.envelope(k, e) * complex(np.exp(1j * comp.omega * e.tau))

    def psi_lab(self, e: Event) -> complex:
        """Complex field at a lab event (all harmonics)."""
        cc = comoving_coords(e, self.boost)
        total = 0j
        for comp in self.components:
            total += comp.profile.value(cc.xi) * np.exp(
                1j * comp.omega * (cc.eta + e.tau)
            )
        return complex(total)

    def scalar_density(self, e: Event) -> float:
        """Frame-invariant density sum_k |q_k|^2 at a lab event."""
        cc = comoving_coords(e, self.boost)
        return float(sum(abs(c.profile.value(cc.xi)) ** 2 for c in self.components))

    # -- vectorized helpers on the z axis (x = y = 0) ----------------------

    def _xi_eta(self, z: np.ndarray, tau: float):
        b = self.boost
        z = np.asarray(z, dtype=float)
        xi = b.gamma * (z - b.beta * tau)
        eta = b.gamma * (tau - b.beta * z) - tau
        return xi, eta

    def envelope_on_axis(self, k: int, z, tau) -> np.ndarray:
        """Envelope k at lab points (z, tau); tau may be an array matching z.

        Rounds as ``envelope`` does at each point.
        """
        comp = self.components[k]
        xi, eta = self._xi_eta(z, tau)
        return _cmul(comp.profile.value(xi), np.exp(1j * comp.omega * eta))

    def harmonic_on_axis(self, k: int, z, tau: float) -> np.ndarray:
        comp = self.components[k]
        return self.envelope_on_axis(k, z, tau) * np.exp(1j * comp.omega * tau)

    def harmonic_dtau_on_axis(self, k: int, z, tau: float) -> np.ndarray:
        """Exact time derivative of harmonic k along the z axis.

        d/dtau [q(xi) e^{i omega tau'}] =
            (-gamma beta q'(xi) + i omega gamma q(xi)) e^{i omega tau'}.
        """
        comp = self.components[k]
        b = self.boost
        xi, eta = self._xi_eta(z, tau)
        carrier = np.exp(1j * comp.omega * (eta + tau))
        return (
            -b.gamma * b.beta * comp.profile.dz(xi)
            + 1j * comp.omega * b.gamma * comp.profile.value(xi)
        ) * carrier

    def psi_lab_on_axis(self, z, tau: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        total = np.zeros(z.shape, dtype=complex)
        for k in range(len(self.components)):
            total += self.harmonic_on_axis(k, z, tau)
        return total

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "boost": {"beta": self.boost.beta, "c": self.boost.c},
            "components": [
                {"omega": c.omega, "profile": c.profile.to_dict()}
                for c in self.components
            ],
        }


def spec_from_dict(d: dict) -> FieldSpec:
    if not isinstance(d, dict):
        raise ValueError("field spec must be a mapping")
    unknown = set(d) - {"boost", "components"}
    if unknown:
        raise ValueError(f"unknown field-spec keys {sorted(unknown)}")
    if "boost" not in d or "components" not in d:
        raise ValueError("field spec needs 'boost' and 'components'")
    braw = d["boost"]
    unknown = set(braw) - {"beta", "c"}
    if unknown:
        raise ValueError(f"unknown boost keys {sorted(unknown)}")
    if "beta" not in braw:
        raise ValueError("boost record needs 'beta'")
    boost = LorentzBoost(float(braw["beta"]), float(braw.get("c", 1.0)))
    comps = []
    for rec in d["components"]:
        unknown = set(rec) - {"omega", "profile"}
        if unknown:
            raise ValueError(f"unknown component keys {sorted(unknown)}")
        if "omega" not in rec or "profile" not in rec:
            raise ValueError("component record needs 'omega' and 'profile'")
        comps.append(
            HarmonicComponent(float(rec["omega"]), profile_from_dict(rec["profile"]))
        )
    return FieldSpec(tuple(comps), boost)


def dumps_spec(spec: FieldSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True)


def loads_spec(text: str) -> FieldSpec:
    return spec_from_dict(json.loads(text))


def save_spec(spec: FieldSpec, path) -> None:
    Path(path).write_text(dumps_spec(spec) + "\n")


def load_spec(path) -> FieldSpec:
    return loads_spec(Path(path).read_text())
