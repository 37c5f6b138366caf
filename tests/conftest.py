"""Shared builders and frozen reference values for the test suite."""

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from boostfield import (
    ConstantProfile,
    FieldSpec,
    GaussHermiteProfile,
    GaussianProfile,
    HarmonicComponent,
    LorentzBoost,
    PlaneWaveProfile,
    TabulatedProfile,
)

# gamma values worked out by hand / at extended precision
GAMMA_TABLE = {
    0.6: 1.25,
    0.8: 5.0 / 3.0,
    0.999999: 707.106957953142452,
}

# m c^2 (gamma - 1)^2 / 2 at beta = 0.1 for m = hbar = c = 1, extended precision
NEGLECTED_TERM_BETA_01 = 1.2689791292975016e-05

# velocity addition 0.6 (+) 0.6 = 1.2 / 1.36
COMPOSED_BETA_06_06 = 15.0 / 17.0


def tabulated_profile() -> TabulatedProfile:
    z = np.linspace(-20.0, 20.0, 1601)
    vals = np.exp(-(z**2) / 8.0) * (1.0 + 0.3 * np.cos(1.7 * z))
    return TabulatedProfile(z, vals)


def catalog_profiles() -> dict:
    """One representative of every profile kind."""
    return {
        "constant": ConstantProfile(0.7 - 0.2j),
        "plane_wave": PlaneWaveProfile(1.0, 1.3),
        "gaussian": GaussianProfile(1.0, 0.2, 0.8),
        "gauss_hermite": GaussHermiteProfile(0.9, 2, -0.1, 1.1),
        "tabulated": tabulated_profile(),
    }


def analytic_profiles() -> dict:
    """Catalog minus the spline profile (whose derivatives are only C1-smooth)."""
    out = catalog_profiles()
    out.pop("tabulated")
    return out


def spec_for(profile, beta: float, omega: float = 2.0) -> FieldSpec:
    return FieldSpec((HarmonicComponent(omega, profile),), LorentzBoost(beta))


# any value a JSON record can hold: ±inf and nan (1e400 reads as inf), a few
# texts a flag reads, lists of numbers or of [re, im] pairs, small mappings
_JSON_NUMBERS = st.one_of(st.integers(-(10**6), 10**6), st.floats(), st.sampled_from([0, 1, 2.0, 2.7, -1.5]))
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    _JSON_NUMBERS,
    st.text(max_size=10),
    st.sampled_from(["0,0,1,0", "-1,0,0,0", "0.5", "1", "0.01,0.02,0.04,0.08", "1,2", "envelope", "max"]),
    st.lists(st.one_of(_JSON_NUMBERS, st.lists(_JSON_NUMBERS, max_size=3), st.text(max_size=2)), max_size=6),
    st.dictionaries(st.text(max_size=3), _JSON_NUMBERS, max_size=2),
)

_REALS = st.floats(-1e3, 1e3)
_AMPLITUDES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_SIGMAS = st.floats(1e-3, 1e3)


@st.composite
def _tabulated(draw):
    z = sorted(draw(st.lists(_REALS, min_size=4, max_size=10, unique=True)))
    values = draw(st.lists(_AMPLITUDES, min_size=len(z), max_size=len(z)))
    try:
        return TabulatedProfile(z, values)
    except ValueError:  # nodes too close together for a finite spline
        assume(False)


# a profile of every kind over its valid parameters
PROFILES = st.one_of(
    st.builds(ConstantProfile, _AMPLITUDES),
    st.builds(PlaneWaveProfile, _AMPLITUDES, _REALS),
    st.builds(GaussianProfile, _AMPLITUDES, _REALS, _SIGMAS),
    st.builds(GaussHermiteProfile, _AMPLITUDES, st.integers(0, 60), _REALS, _SIGMAS),
    _tabulated(),
)


# -- acceptance reporting ------------------------------------------------------
#
# every acceptance test records exactly one PASS/FAIL line; the lines are
# echoed in a terminal section at the end of the run so they survive output
# capture.

_ACCEPTANCE_LINES: list = []


@pytest.fixture
def criterion():
    def record(number: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.line(line)
