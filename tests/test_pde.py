import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from boostfield import pde
from boostfield import (
    Grid,
    GridState,
    MassParameters,
    SolverConfig,
    SolverError,
    evolve_kgf,
    evolve_schrodinger,
    evolve_wave,
    measure_dispersion,
    measure_observables,
    periodic_laplacian,
)
from boostfield.pde import Observables, _check_finite, _mode_index, _potential_on_grid

MASS = MassParameters(1.0, 1.0)
LONG = pde._EIGH_MAX + 8  # a z-line whose z-varying CN run takes the LU, watched or not


def cn_config(dt, steps, potential=None):
    return SolverConfig(
        dt=dt, steps=steps, scheme="crank_nicolson", mass=MASS, potential=potential
    )


def lf_config(dt, steps, m_s):
    return SolverConfig(dt=dt, steps=steps, scheme="leapfrog", mass_scalar=m_s)


def laplacian_symbol(grid):
    """Eigenvalues -sum_i (4 / dx_i^2) sin^2(k_i dx_i / 2) of the stencil on the whole grid, in fftn order."""
    parts = [-4.0 / dx**2 * np.sin(np.pi * np.fft.fftfreq(n)) ** 2 for n, dx in zip(grid.points, grid.spacing)]
    return sum(np.meshgrid(*parts, indexing="ij", sparse=True))


# -- grids and states ----------------------------------------------------------


def test_grid_geometry():
    g = Grid((10.0,), (50,))
    assert g.dim == 1
    assert g.spacing == (0.2,)
    assert g.cell_volume == pytest.approx(0.2)
    assert_allclose(g.axis(0)[:3], [0.0, 0.2, 0.4])
    g3 = Grid((4.0, 4.0, 8.0), (8, 8, 16))
    assert g3.dim == 3
    assert g3.coords[2] is g3.coords[2] and not g3.coords[2].flags.writeable  # once per grid, read-only
    assert np.array_equal(g3.axis(2), g3.coords[2]) and g3.axis(2).flags.writeable
    assert g3.cell_volume == pytest.approx(0.125)


def test_grid_validation():
    with pytest.raises(ValueError, match="1-d or 3-d"):
        Grid((1.0, 1.0), (8, 8))
    with pytest.raises(ValueError, match="8 points"):
        Grid((1.0,), (4,))
    with pytest.raises(ValueError, match="positive"):
        Grid((-1.0,), (16,))
    for extent in (1e-300, 1e308, np.inf, np.nan, 1.6e-154):  # dx^2 or 1 / dx^2 zero or not finite
        with pytest.raises(ValueError, match="square and inverse square"):
            Grid((extent,), (16,))
    with pytest.raises(ValueError, match="cap"):
        Grid((1.0, 1.0, 1.0), (512, 512, 512))


def test_state_validation_and_copy():
    g = Grid((8.0,), (16,))
    with pytest.raises(ValueError, match="field shape"):
        GridState(g, np.zeros(8, dtype=complex))
    with pytest.raises(ValueError, match="pi shape"):
        GridState(g, np.zeros(16, dtype=complex), np.zeros(8, dtype=complex))
    st = GridState(g, np.ones(16, dtype=complex), np.zeros(16, dtype=complex))
    cp = st.copy()
    cp.field[0] = 5.0
    assert st.field[0] == 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0, steps=1, scheme="leapfrog")
    with pytest.raises(ValueError, match="steps"):
        SolverConfig(dt=0.1, steps=-1, scheme="leapfrog")
    with pytest.raises(ValueError, match="scheme"):
        SolverConfig(dt=0.1, steps=1, scheme="euler")
    with pytest.raises(ValueError, match="mass scalar"):
        SolverConfig(dt=0.1, steps=1, scheme="leapfrog", mass_scalar=-1.0)
    cfg = SolverConfig(dt=0.1, steps=1, scheme="leapfrog", mass=MassParameters(2.0, 1.0))
    assert cfg.resolved_mass_scalar() == pytest.approx(4.0)
    cfg = SolverConfig(dt=0.1, steps=1, scheme="leapfrog", mass_scalar=3.0)
    assert cfg.resolved_mass_scalar() == 3.0
    with pytest.raises(ValueError, match="neither"):
        SolverConfig(dt=0.1, steps=1, scheme="leapfrog").resolved_mass_scalar()



@pytest.mark.parametrize("steps", [2.5, True, np.float64(-1.5), "3"], ids=["fraction", "bool", "np_fraction", "str"])
def test_solver_config_refuses_a_step_count_that_is_not_an_integer(steps):
    # read as a profile reads an int field: a bool or a fraction was accepted, then failed or ran one step
    with pytest.raises(ValueError, match=f"^steps must be an integer, got {re.escape(repr(steps))}$"):
        SolverConfig(dt=0.1, steps=steps, scheme="leapfrog", mass_scalar=1.0)


@pytest.mark.parametrize("dt", [True, np.True_, "0.1"], ids=["bool", "np_bool", "str"])
def test_solver_config_refuses_a_dt_that_is_not_a_real_number(dt):
    with pytest.raises(ValueError, match="^dt must be a real number"):
        SolverConfig(dt=dt, steps=1, scheme="leapfrog", mass_scalar=1.0)


@pytest.mark.parametrize("m_s", [True, False, np.True_, "1.0"], ids=["bool", "false", "np_bool", "str"])
def test_solver_config_refuses_a_mass_scalar_that_is_not_a_real_number(m_s):
    # True was accepted and resolved to a mass scalar of 1.0
    with pytest.raises(ValueError, match="^mass scalar must be a real number"):
        SolverConfig(dt=0.1, steps=1, scheme="leapfrog", mass_scalar=m_s)


@pytest.mark.parametrize("steps", [3.0, np.float64(3.0), np.int32(3)], ids=["float", "np_float64", "np_int32"])
def test_an_integral_step_count_runs_as_its_int(steps):
    cfg = SolverConfig(dt=0.1, steps=steps, scheme="leapfrog", mass_scalar=1.0)
    assert type(cfg.steps) is int and cfg.steps == 3
    g = Grid((8.0,), (16,))
    fin = evolve_kgf(GridState(g, np.ones(16), np.zeros(16)), cfg, monitor=lambda s_: None)
    assert fin.step_count == 3 and type(fin.step_count) is int


def test_periodic_laplacian_discrete_eigenvalue():
    # exp(ikz) is an exact eigenvector with eigenvalue -[2 sin(k dx / 2) / dx]^2
    g = Grid((8.0,), (64,))
    z = g.axis(0)
    k = 2.0 * np.pi * 5 / 8.0
    f = np.exp(1j * k * z)
    dx = g.spacing[0]
    expected = -((2.0 / dx) * np.sin(0.5 * k * dx)) ** 2
    assert_allclose(periodic_laplacian(f, g), expected * f, rtol=1e-11, atol=1e-11)


# -- Crank-Nicolson -------------------------------------------------------------


def test_cn_requires_mass_and_scheme():
    g = Grid((8.0,), (16,))
    st = GridState(g, np.ones(16, dtype=complex))
    with pytest.raises(ValueError, match="crank_nicolson"):
        evolve_schrodinger(st, lf_config(0.01, 1, 0.0))
    with pytest.raises(ValueError, match="mass"):
        evolve_schrodinger(
            st, SolverConfig(dt=1e-3, steps=1, scheme="crank_nicolson")
        )


def test_cn_norm_and_energy_conserved():
    g = Grid((20.0,), (256,))
    z = g.axis(0)
    psi = np.exp(-((z - 10.0) ** 2) / 2.0) * np.exp(1.5j * z)
    st = GridState(g, psi)
    cfg = cn_config(1e-3, 2000)
    fin = evolve_schrodinger(st, cfg)
    o0, o1 = measure_observables(st, cfg), measure_observables(fin, cfg)
    assert abs(o1.norm - o0.norm) < 1e-12
    assert abs(o1.energy - o0.energy) < 1e-10 * abs(o0.energy)
    assert fin.t == pytest.approx(2.0)
    assert fin.step_count == 2000
    assert st.field[0] == psi[0]  # input untouched


def test_cn_discrete_eigenstate_phase():
    # independently assembled H; Cayley multiplier on an eigenpair is
    # exp(i theta), theta = 2 atan(dt E / 2): modulus exact, sign pinned "+"
    n, L = 64, 12.8
    g = Grid((L,), (n,))
    z = g.axis(0)
    dx = g.spacing[0]
    u = 2.0 + np.cos(2.0 * np.pi * z / L)
    lap = np.zeros((n, n))
    for i in range(n):
        lap[i, i] = -2.0 / dx**2
        lap[i, (i + 1) % n] = 1.0 / dx**2
        lap[i, (i - 1) % n] = 1.0 / dx**2
    coef = MASS.hbar / (2.0 * MASS.m * MASS.c)
    H = coef * (-lap + np.diag(u))
    evals, evecs = np.linalg.eigh(H)
    E, v = evals[5], evecs[:, 5].astype(complex)

    dt, steps = 0.01, 100
    st = GridState(g, v)
    pot = lambda x, y, zz: 2.0 + np.cos(2.0 * np.pi * zz / L)
    fin = evolve_schrodinger(st, cn_config(dt, steps, potential=pot))
    theta = 2.0 * np.arctan(0.5 * dt * E)
    overlap = np.vdot(v, fin.field)
    assert abs(abs(overlap) - 1.0) < 1e-11
    assert overlap == pytest.approx(np.exp(1j * steps * theta), abs=1e-9)


def test_cn_free_mode_rotates_forward():
    # psi_t = +i H psi: a free plane wave accumulates positive phase
    n, L = 64, 16.0
    g = Grid((L,), (n,))
    z = g.axis(0)
    k = 2.0 * np.pi * 4 / L
    st = GridState(g, np.exp(1j * k * z))
    dt, steps = 0.01, 50
    phases = []
    times = []

    def mon(s):
        phases.append(np.angle(np.fft.fft(s.field)[4]))
        times.append(s.t)

    evolve_schrodinger(st, cn_config(dt, steps), monitor=mon)
    dx = g.spacing[0]
    E = 0.5 * ((2.0 / dx) * np.sin(0.5 * k * dx)) ** 2
    expected_rate = 2.0 * np.arctan(0.5 * dt * E) / dt
    slope = np.polyfit(times, np.unwrap(phases), 1)[0]
    assert slope > 0
    assert slope == pytest.approx(expected_rate, rel=1e-10)


def test_cn_free_gaussian_spreading_law():
    g = Grid((40.0,), (800,))
    z = g.axis(0)
    sigma0 = 0.5
    st = GridState(g, np.exp(-((z - 20.0) ** 2) / (2.0 * sigma0**2)))
    cfg = cn_config(0.002, 500)
    fin = evolve_schrodinger(st, cfg)
    s0 = measure_observables(st, cfg).width[0]
    s1 = measure_observables(fin, cfg).width[0]
    tau = fin.t
    coef = MASS.hbar / (2.0 * MASS.m * MASS.c)
    predicted = s0 * np.sqrt(1.0 + (coef * tau / s0**2) ** 2)
    assert s1 == pytest.approx(predicted, rel=1e-2)


def test_cn_warns_on_coarse_dt():
    g = Grid((8.0,), (64,))
    st = GridState(g, np.ones(64, dtype=complex))
    with pytest.warns(UserWarning, match="accuracy"):
        evolve_schrodinger(st, cn_config(0.5, 1))


def test_cn_3d_norm_conserved():
    g = Grid((6.0, 6.0, 6.0), (12, 12, 12))
    z = np.broadcast_to(g.coords[-1], g.points)
    psi = np.exp(-((z - 3) ** 2) + 0.5j * z)
    st = GridState(g, psi)
    cfg = cn_config(0.01, 10)
    fin = evolve_schrodinger(st, cfg)
    assert measure_observables(fin, cfg).norm == pytest.approx(
        measure_observables(st, cfg).norm, abs=1e-10
    )


def test_solver_aborts_on_non_finite_input():
    g = Grid((8.0,), (16,))
    bad = np.ones(16, dtype=complex)
    bad[3] = np.inf
    with pytest.raises(SolverError, match="non-finite"):
        evolve_schrodinger(GridState(g, bad), cn_config(1e-3, 1))
    with pytest.raises(SolverError, match="non-finite field values at step 0"):  # no monitor
        evolve_kgf(GridState(g, bad, np.zeros(16, dtype=complex)), lf_config(0.01, 5, 1.0))


# -- leapfrog --------------------------------------------------------------------


def test_leapfrog_needs_pi():
    g = Grid((8.0,), (16,))
    st = GridState(g, np.ones(16, dtype=complex))
    with pytest.raises(ValueError, match="pi"):
        evolve_kgf(st, lf_config(0.01, 1, 1.0))


def test_wave_rejects_mass():
    g = Grid((8.0,), (16,))
    st = GridState(g, np.ones(16, dtype=complex), np.zeros(16, dtype=complex))
    with pytest.raises(ValueError, match="zero mass"):
        evolve_wave(st, lf_config(0.01, 1, 2.0))
    with pytest.raises(ValueError, match="zero mass"):  # a mass resolves to m_s = 4
        evolve_wave(st, SolverConfig(dt=0.01, steps=1, scheme="leapfrog", mass=MassParameters(2.0, 1.0)))
    fin = evolve_wave(st, SolverConfig(dt=0.01, steps=1, scheme="leapfrog", mass=MASS, mass_scalar=0.0))
    assert np.array_equal(fin.field, st.field)
    with pytest.raises(ValueError, match="leapfrog"):
        evolve_wave(st, cn_config(0.01, 1))


def test_courant_violation_raises():
    g = Grid((8.0,), (64,))
    st = GridState(g, np.ones(64, dtype=complex), np.zeros(64, dtype=complex))
    dx = g.spacing[0]
    with pytest.raises(SolverError, match="Courant"):
        evolve_wave(st, lf_config(1.1 * dx, 1, 0.0))
    # exactly at the bound is allowed
    evolve_wave(st, lf_config(dx, 1, 0.0))


def test_unit_courant_transit_is_exact():
    # at C = 1 every mode advances with exact phase speed; one full period
    # around the ring returns the pulse to round-off
    n, L = 256, 16.0
    g = Grid((L,), (n,))
    z = g.axis(0)
    s = 0.8
    f0 = np.exp(-((z - 8.0) ** 2) / (2.0 * s * s))
    fp = -(z - 8.0) / (s * s) * f0
    st = GridState(g, f0.astype(complex), (-fp).astype(complex))
    dx = g.spacing[0]
    fin = evolve_wave(st, lf_config(dx, n, 0.0))
    err = np.sqrt(np.sum(np.abs(fin.field - f0) ** 2) * dx)
    assert err < 1e-12


def test_leapfrog_energy_band():
    n, L = 128, 16.0
    g = Grid((L,), (n,))
    z = g.axis(0)
    s = 0.8
    f0 = np.exp(-((z - 8.0) ** 2) / (2.0 * s * s)).astype(complex)
    fp = (-(z - 8.0) / (s * s) * f0).astype(complex)
    st = GridState(g, f0, -fp)
    cfg = lf_config(1e-3, 1000, 1.0)
    energies = []

    def mon(s_):
        if s_.step_count % 10 == 0:
            energies.append(measure_observables(s_, cfg).energy)

    evolve_kgf(st, cfg, monitor=mon)
    e = np.asarray(energies)
    assert (e.max() - e.min()) / e.mean() < 1e-4


def test_leapfrog_dispersion_relation():
    n = 256
    L = 8.0 * np.pi
    g = Grid((L,), (n,))
    z = g.axis(0)
    k = 0.75  # mode 3 of this extent
    m_s = 1.0
    omega = np.sqrt(k * k + m_s)
    psi0 = np.exp(1j * k * z)
    st = GridState(g, psi0, 1j * omega * psi0)
    dt = 0.05
    steps = int(round(3.0 * (2.0 * np.pi / omega) / dt))
    snaps = [st.copy()]
    cfg = lf_config(dt, steps, m_s)
    evolve_kgf(st, cfg, monitor=lambda s_: snaps.append(s_.copy()))
    measured = measure_dispersion(snaps, k)
    assert measured == pytest.approx(omega, rel=1e-3)


def test_leapfrog_3d_runs_and_conserves_energy():
    g = Grid((4.0, 4.0, 4.0), (8, 8, 8))
    z = np.broadcast_to(g.coords[-1], g.points)
    psi = np.exp(-((z - 2) ** 2)).astype(complex)
    st = GridState(g, psi, np.zeros_like(psi))
    cfg = lf_config(0.01, 200, 0.5)
    e0 = measure_observables(st, cfg).energy
    fin = evolve_kgf(st, cfg)
    e1 = measure_observables(fin, cfg).energy
    assert e1 == pytest.approx(e0, rel=1e-4)


def test_monitor_sees_every_step():
    g = Grid((8.0,), (16,))
    st = GridState(g, np.ones(16, dtype=complex), np.zeros(16, dtype=complex))
    seen = []
    evolve_kgf(st, lf_config(0.01, 7, 1.0), monitor=lambda s_: seen.append(s_.t))
    assert len(seen) == 7
    assert seen == sorted(seen)


# -- measurements ----------------------------------------------------------------


def test_observables_localized_state():
    g = Grid((10.0,), (100,))
    field = np.zeros(100, dtype=complex)
    field[37] = 2.0
    st = GridState(g, field, np.zeros(100, dtype=complex))
    obs = measure_observables(st, lf_config(0.01, 1, 0.0))
    assert obs.centroid[0] == pytest.approx(g.axis(0)[37])
    assert obs.width[0] == 0.0
    assert obs.norm == pytest.approx(2.0 * np.sqrt(0.1))
    d = obs.to_dict()
    assert d["centroid"] == [pytest.approx(3.7)]


def test_observables_zero_field():
    for grid in (Grid((10.0,), (16,)), Grid((4.0, 5.0, 6.0), (8, 9, 10))):
        st = GridState(grid, np.zeros(grid.points, dtype=complex), np.zeros(grid.points, dtype=complex))
        for cfg in (lf_config(0.01, 1, 1.0), cn_config(0.01, 1, lambda x, y, z: np.cos(z))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                obs = measure_observables(st, cfg)
            assert obs == Observables(0.0, 0.0, (0.0,) * grid.dim, (0.0,) * grid.dim)


@pytest.mark.parametrize("scheme", ["crank_nicolson", "leapfrog"])
def test_a_non_contiguous_state_observes_as_its_contiguous_copy(scheme):
    rng = np.random.default_rng(5)
    cfg = lf_config(0.01, 1, 1.5) if scheme == "leapfrog" else cn_config(0.01, 1, lambda x, y, z: np.cos(z))
    line, grid3 = Grid((7.0,), (40,)), Grid((4.0, 5.0, 6.0), (8, 9, 10))
    big = random_field(rng, 80)
    cube = np.broadcast_to(random_field(rng, (2, 10, 1, 1)), (2,) + grid3.points[::-1]).copy()
    views = [  # a strided line, a reversed line, and a transposed (Fortran-ordered) grid
        GridState(line, big[::2], big[1::2]),
        GridState(line, big[:40][::-1], big[40:][::-1]),
        GridState(grid3, cube[0].T, cube[1].T),
    ]
    for st_ in views:
        assert not st_.field.flags.c_contiguous
        copy = GridState(st_.grid, np.ascontiguousarray(st_.field), np.ascontiguousarray(st_.pi))
        assert measure_observables(st_, cfg) == measure_observables(copy, cfg)


def test_dispersion_measure_validation():
    g = Grid((8.0,), (16,))
    mk = lambda t: GridState(g, np.exp(2j * np.pi * g.axis(0) / 8.0), None, t=t)
    with pytest.raises(ValueError, match="3 snapshots"):
        measure_dispersion([mk(0.0), mk(0.1)], 2.0 * np.pi / 8.0)
    states = [mk(0.1 * i) for i in range(4)]
    with pytest.raises(ValueError, match="commensurate"):
        measure_dispersion(states, 1.1)
    weak = [GridState(g, np.zeros(16, dtype=complex), None, t=0.1 * i) for i in range(4)]
    with pytest.raises(ValueError, match="too weak"):
        measure_dispersion(weak, 2.0 * np.pi / 8.0)
    with pytest.raises(ValueError, match="ordered in time"):
        measure_dispersion(states[::-1], 2.0 * np.pi / 8.0)
    # a 3-d state measures as its z-line: the mode of its z extent and z points, bit for bit
    g3 = Grid((3.0, 5.0, 8.0), (9, 10, 16))
    box = [GridState(g3, np.broadcast_to(s_.field, g3.points), None, t=s_.t) for s_ in states]
    assert measure_dispersion(box, 2.0 * np.pi / 8.0) == measure_dispersion(states, 2.0 * np.pi / 8.0)
    with pytest.raises(ValueError, match="commensurate with extent 8.0"):
        measure_dispersion(box, 2.0 * np.pi / 5.0)


@pytest.mark.parametrize("n", [16, 17])
def test_mode_index_refuses_aliased_modes(n):
    # exp(i k z) with |m| > n / 2 is another mode's samples: it is refused, not measured as that mode
    g = Grid((8.0,), (n,))
    for m in range(-(n // 2), n // 2 + 1):
        assert _mode_index(g, 2.0 * np.pi * m / 8.0) == m % n
    for m in (n // 2 + 1, -(n // 2) - 1, 3 * n):
        with pytest.raises(ValueError, match=f"mode {m} aliases on {n} points"):
            _mode_index(g, 2.0 * np.pi * m / 8.0)


@settings(max_examples=60, deadline=None)
@given(
    nm=st.integers(8, 1024).flatmap(lambda n: st.tuples(st.just(n), st.integers(-(n // 2), n // 2))),
    seed=st.integers(0, 2**32 - 1),
)
@example(nm=(1024, -512), seed=1)
def test_a_mode_coefficient_is_the_fft_bin(nm, seed):
    # one mode's coefficient is a projection on its phasor, within round-off of the FFT's bin
    n, m = nm
    f = random_field(np.random.default_rng(seed), n)
    bins = np.fft.fft(f) / n
    got = pde._mode_projector(Grid((float(n),), (n,)), [2.0 * np.pi * m / n])([f])[:, 0] / n
    assert abs(got[0] - bins[m % n]) <= 1e-13 * np.abs(bins).max()


@pytest.mark.parametrize(
    "n, count, fft",
    [(512, 9, False), (512, 10, True), (1 << 18, 8, False), (1 << 18, 9, True)]
    + [(1 << 21, 1, False), (1 << 22, 1, True)],
)
def test_many_modes_are_read_from_one_fft(n, count, fft):
    # up to log2 n modes whose phasors fit in 32 MB are projections; more are the FFT's own bins, bit for bit
    f = random_field(np.random.default_rng(n + count), n)
    ms = range(-(count // 2), count - count // 2)
    got = pde._mode_projector(Grid((float(n),), (n,)), [2.0 * np.pi * m / n for m in ms])([f])[:, 0] / n
    idx = [m % n for m in ms]
    phasor = lambda m: np.exp(-2j * np.pi * (m * np.arange(n) % n) / n)
    want = np.fft.fft(f)[idx] / n if fft else [np.dot(f, phasor(m)) / n for m in idx]
    assert np.array_equal(got, want)



@settings(max_examples=40, deadline=None)
@given(
    nm=st.integers(8, 1024).flatmap(lambda n: st.tuples(st.just(n), st.integers(-(n // 2), n // 2))),
    count=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(nm=(512, -3), count=701, seed=1)  # the bench's monitored line
def test_dispersion_reads_each_coefficient_as_a_projection_divided_alone(nm, count, seed):
    # a run's coefficients are divided by n at once, bit for bit as each divided alone
    n, m = nm
    grid, k = Grid((float(n),), (n,)), 2.0 * np.pi * m / n
    rng = np.random.default_rng(seed)
    states = [GridState(grid, random_field(rng, n), None, t=0.1 * i) for i in range(count)]
    phasor = np.exp(-2j * np.pi * ((m % n) * np.arange(n) % n) / n)
    want = np.array([np.dot(s_.field, phasor) / n for s_ in states])
    got = pde._mode_projector(grid, [k])([s_.field for s_ in states])[0] / n
    assert got.tobytes() == want.tobytes()
    assert measure_dispersion(states, k) == pde._rotation_rate(np.array([s_.t for s_ in states]), want)


# -- the spectral core -------------------------------------------------------------


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def uniform_field(rng, grid):
    """A random field on ``grid``; on a 3-d grid one random z-line repeated across x and y."""
    return np.broadcast_to(random_field(rng, grid.points[-1]), grid.points).copy()


def roll_laplacian(f, grid):
    """The stencil written with np.roll, axis by axis, as a reference."""
    return sum(
        (np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)) / (dx * dx)
        for ax, dx in enumerate(grid.spacing)
    )


def dense_hamiltonian(grid, u, coef):
    """coef (-lap + diag u) as a dense matrix: a Kronecker sum of 1-d stencils."""
    ops = []
    for n, dx in zip(grid.points, grid.spacing):
        lap = (np.roll(np.eye(n), 1, axis=1) - 2.0 * np.eye(n) + np.roll(np.eye(n), -1, axis=1)) / dx**2
        ops.append(lap)
    total = np.zeros((u.size, u.size))
    for ax, lap in enumerate(ops):
        factors = [np.eye(n) for n in grid.points]
        factors[ax] = lap
        term = factors[0]
        for fac in factors[1:]:
            term = np.kron(term, fac)
        total += term
    return coef * (-total + np.diag(u.ravel()))


grids_1d = st.builds(
    lambda n, L: Grid((L,), (n,)), st.integers(8, 64), st.floats(0.5, 50.0)
)
grids_3d = st.builds(
    lambda n, L: Grid(tuple(L), tuple(n)),
    st.lists(st.integers(8, 12), min_size=3, max_size=3),
    st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(
    grid=st.one_of(grids_1d, grids_3d),
    with_pi=st.booleans(),
    t=st.floats(-1e3, 1e3),
    step_count=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_copy_is_the_state_bit_for_bit_in_memory_of_its_own(grid, with_pi, t, step_count, seed):
    rng = np.random.default_rng(seed)

    def uniform():  # a random line with a -0.0, which compares equal to +0.0 but is not its bits
        line = random_field(rng, grid.points[-1])
        line[0] = complex(-0.0, line[0].imag)
        return np.broadcast_to(line, grid.points).copy()

    st_ = GridState(grid, uniform(), uniform() if with_pi else None, t, step_count)
    cp = st_.copy()
    assert type(cp) is GridState and cp.grid is grid and (cp.t, cp.step_count) == (t, step_count)
    assert (cp.pi is None) == (not with_pi)
    for a, b in [(st_.field, cp.field)] + [(st_.pi, cp.pi)] * with_pi:
        assert b.shape == grid.points and b.dtype == complex and b.tobytes() == a.tobytes()
        assert not np.shares_memory(a, b)
        if grid.dim == 3:  # still the line, shown read-only across x and y
            assert b.strides[:2] == (0, 0) and not b.flags.writeable
        else:
            assert b.flags.writeable and b.flags.c_contiguous
    cp.t, cp.step_count = t + 1.0, step_count + 1
    assert (st_.t, st_.step_count) == (t, step_count)


@settings(max_examples=60, deadline=None)
@given(grid=st.one_of(grids_1d, grids_3d), seed=st.integers(0, 2**32 - 1))
def test_symbol_is_the_stencil_on_fourier_modes(grid, seed):
    rng = np.random.default_rng(seed)
    sym = laplacian_symbol(grid)
    assert sym.shape == grid.points and np.all(sym <= 0.0)
    idx = (0,) * (grid.dim - 1) + (int(rng.integers(grid.points[-1])),)  # a mode uniform across x and y
    phase = sum(
        np.meshgrid(
            *(2.0 * np.pi * np.fft.fftfreq(n)[i] * np.arange(n) for n, i in zip(grid.points, idx)),
            indexing="ij",
            sparse=True,
        )
    )
    mode = np.exp(1j * phase)
    scale = float(-sym.min())
    assert_allclose(periodic_laplacian(mode, grid), sym[idx] * mode, rtol=0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(grid=st.one_of(grids_1d, grids_3d), seed=st.integers(0, 2**32 - 1))
@example(grid=Grid((3.0, 4.0, 5.0), (40, 41, 43)), seed=1)
@example(grid=Grid((9.0,), (40000,)), seed=2)
def test_stencil_is_the_roll_expression_bit_for_bit(grid, seed):
    f = uniform_field(np.random.default_rng(seed), grid)
    assert np.array_equal(periodic_laplacian(f, grid), roll_laplacian(f, grid))


def test_courant_bound_comes_from_the_symbol():
    # an odd ring has no Nyquist mode: its largest |symbol| is below 4 / dx^2,
    # so dt = dx passes there although the even-ring bound would refuse it
    g = Grid((9.0,), (9,))
    dx = g.spacing[0]
    omega_max = np.sqrt(-laplacian_symbol(g).min())
    assert omega_max < 2.0 / dx
    st_ = GridState(g, np.ones(9, dtype=complex), np.zeros(9, dtype=complex))
    evolve_wave(st_, lf_config(2.0 / omega_max, 1, 0.0))
    with pytest.raises(SolverError, match="Courant"):
        evolve_wave(st_, lf_config(2.0 / omega_max * (1.0 + 1e-9), 1, 0.0))


@settings(max_examples=60, deadline=None)
@given(grid=st.one_of(grids_1d, grids_3d), m_s=st.sampled_from([0.0, 1.3, 1e-300]), ulps=st.integers(-2, 2))
def test_the_solvers_read_the_symbol_of_their_line(grid, m_s, ulps):
    # the z axis's symbol is the grid symbol's kx = ky = 0 line, its k = 0 zero a +0.0, and the Courant
    # bound refuses a dt exactly when that line's largest m_s - symbol does
    line = laplacian_symbol(grid)[(0,) * (grid.dim - 1)]
    assert same_bits(pde._axis_symbol(grid.points[-1], grid.spacing[-1]), line)
    dt = 2.0 * (1.0 + 1e-12) / np.sqrt((m_s - line).max())
    for _ in range(abs(ulps)):
        dt = np.nextafter(dt, np.sign(ulps) * np.inf)
    refused = 0.5 * dt * np.sqrt((m_s - line).max()) > 1.0 + 1e-12
    st_ = uniform_state(np.random.default_rng(0), grid)
    try:
        evolve_kgf(st_, lf_config(dt, 0, m_s))
    except SolverError:
        assert refused
    else:
        assert not refused


@pytest.mark.parametrize("run", ["cn_zero", "kgf"])
def test_an_unobserved_64_cube_run_builds_no_grid_sized_symbol(run):
    # a 64^3 grid symbol is 2 MB; the run reads its z line and each axis's minimum
    grid = Grid((6.0, 7.0, 8.0), (64, 64, 64))
    st_ = uniform_state(np.random.default_rng(4), grid, second_order=run == "kgf")
    evolve, cfg = line_config(run, grid, 20)
    evolve(st_, cfg)  # numpy's fft caches its plan for 64 points
    tracemalloc.start()
    try:
        evolve(st_, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


POTENTIALS = {
    "zero": None,
    "constant": lambda x, y, z: np.full_like(np.asarray(z, dtype=float), -0.7),
    "varying": lambda x, y, z: 0.4 + np.cos(z) + 0.3 * np.sin(2.0 * x),
    "z_only": lambda x, y, z: 0.4 + np.cos(z),
}


@settings(max_examples=30, deadline=None)
@given(
    three_d=st.booleans(),
    kind=st.sampled_from(sorted(POTENTIALS)),
    dt=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_cn_step_is_the_dense_cayley_solve(three_d, kind, dt, seed):
    grid = Grid((2.0 * np.pi,) * 3, (8, 8, 8)) if three_d else Grid((2.0 * np.pi,), (48,))
    rng = np.random.default_rng(seed)
    psi = uniform_field(rng, grid)
    pot = POTENTIALS[kind]
    if three_d and kind == "varying":  # u of x is refused; in 1-d x = 0 and u is of z alone
        with pytest.raises(ValueError, match="varies across x"), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dt above dx^2 is allowed here
            evolve_schrodinger(GridState(grid, psi), cn_config(dt, 1, potential=pot))
        return
    coords = np.meshgrid(*grid.coords, indexing="ij") if three_d else (0.0, 0.0, grid.axis(0))
    u = np.zeros(grid.points) if pot is None else np.broadcast_to(pot(*coords), grid.points)
    H = dense_hamiltonian(grid, u, MASS.hbar / (2.0 * MASS.m * MASS.c))
    eye = np.eye(u.size)
    want = np.linalg.solve(eye - 0.5j * dt * H, (eye + 0.5j * dt * H) @ psi.ravel())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dt above dx^2 is allowed here
        got = evolve_schrodinger(GridState(grid, psi), cn_config(dt, 1, potential=pot))
    assert got.step_count == 1 and got.t == dt
    err = np.linalg.norm(got.field.ravel() - want) / np.linalg.norm(want)
    assert err < 1e-10


@pytest.mark.parametrize(
    "points, across",
    [((LONG,), 0.1), ((12, 12, 12), 0.1), ((12, 12, 12), 0.0)],
    ids=["points0", "points1", "points2_z_only"],
)
def test_cn_stiff_varying_potential_converges_and_conserves_norm(points, across):
    # dt = 1000 dx^2: the long 1-d line takes the z-line LU, a 3-d potential of z alone the z-line
    # eigenbasis; one that varies across x is refused (in 1-d x = 0: a constant offset)
    g = Grid((20.0,) * len(points), points)
    z = np.broadcast_to(g.coords[-1], g.points)
    dx = g.spacing[0]
    psi = np.exp(-((z - 10.0) ** 2) / 2.0) * np.exp(1.5j * z)
    pot = lambda x, y, zz: 0.5 * (zz - 10.0) ** 2 + across * np.cos(2.0 * np.pi * x / 20.0)
    cfg = cn_config(1000.0 * dx * dx, 20, potential=pot)
    st_ = GridState(g, psi)
    if g.dim == 3 and across:
        with pytest.warns(UserWarning, match="accuracy"), pytest.raises(ValueError, match="varies across x"):
            evolve_schrodinger(st_, cfg)
        return
    with pytest.warns(UserWarning, match="accuracy"):
        fin = evolve_schrodinger(st_, cfg)
    n0, n1 = measure_observables(st_, cfg).norm, measure_observables(fin, cfg).norm
    assert np.all(np.isfinite(fin.field))
    assert abs(n1 - n0) / n0 < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    grid=grids_3d,
    axis=st.sampled_from("xy"),
    amplitude=st.floats(1e-6, 10.0),
    cycles=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_potential_varying_across_x_or_y_is_refused_by_every_entry_point(grid, axis, amplitude, cycles, seed):
    # a random line u(z) plus a periodic term of x or y, which no branch of the solver steps
    rng = np.random.default_rng(seed)
    table, phase = rng.uniform(-2.0, 2.0, grid.points[2]), rng.uniform(0.0, 2.0 * np.pi)
    ax = "xy".index(axis)
    k = 2.0 * np.pi * cycles / grid.extents[ax]
    pot = lambda x, y, z: np.broadcast_to(table, np.shape(z)) + amplitude * np.cos(k * (x, y)[ax] + phase)
    cfg = cn_config(1e-4, 2, potential=pot)
    st_ = GridState(grid, uniform_field(rng, grid))
    for call in (lambda: cfg.potential_on(grid), lambda: evolve_schrodinger(st_, cfg), lambda: measure_observables(st_, cfg)):
        with pytest.raises(ValueError, match=f"varies across {axis} by up to") as exc:
            call()
        assert "\n" not in str(exc.value)


_verlet_cases = given(
    grid=st.one_of(grids_1d, grids_3d),
    m_s=st.floats(0.0, 4.0),
    courant=st.floats(0.05, 1.0),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=25, deadline=None)
@_verlet_cases
def test_kgf_is_a_plain_verlet_loop_bit_for_bit(grid, m_s, courant, steps, seed):
    # the monitor sees the loop's psi, pi, t and step at every step
    rng = np.random.default_rng(seed)
    psi0, pi0 = uniform_field(rng, grid), uniform_field(rng, grid)
    dt = 2.0 * courant / np.sqrt(m_s - laplacian_symbol(grid).min())
    st_, seen = GridState(grid, psi0.copy(), pi0.copy(), 0.25, 3), []
    fin = evolve_kgf(st_, lf_config(dt, steps, m_s), monitor=lambda s_: seen.append(s_.copy()))
    assert np.array_equal(st_.field, psi0) and np.array_equal(st_.pi, pi0)  # input untouched
    psi, pi, t = psi0, pi0, 0.25
    accel = roll_laplacian(psi, grid) - m_s * psi
    for i, s_ in enumerate(seen, 1):
        pi = pi + 0.5 * dt * accel
        psi = psi + dt * pi
        accel = roll_laplacian(psi, grid) - m_s * psi
        pi = pi + 0.5 * dt * accel
        t += dt
        assert np.array_equal(s_.field, psi) and np.array_equal(s_.pi, pi) and (s_.t, s_.step_count) == (t, 3 + i)
    assert len(seen) == steps and np.array_equal(fin.field, psi) and np.array_equal(fin.pi, pi)


@pytest.mark.parametrize("grid", [Grid((8.0,), (512,)), Grid((4.0, 5.0, 6.0), (8, 9, 10))])
def test_a_monitored_run_builds_its_stencil_once(grid, monkeypatch):
    # one plan per run, its stencil among it, replayed every step
    plans, run = {}, pde._run  # each list of calls replayed, kept alive so that no id is reused
    monkeypatch.setattr(pde, "_run", lambda calls: (plans.setdefault(id(calls), calls), run(calls)))
    rng = np.random.default_rng(3)
    st_ = GridState(grid, uniform_field(rng, grid), uniform_field(rng, grid))
    dt = 1.0 / np.sqrt(1.0 - laplacian_symbol(grid).min())  # half the Courant limit
    evolve_kgf(st_, lf_config(dt, 5, 1.0), monitor=lambda s: None)
    assert len(plans) == 2  # the first force, then the step
    # so a step allocates nothing: between two monitor calls traced memory peaks less than an eighth of a
    # field above where it stood
    level, rises = [0], [0] * 700  # filled in place: a growing list would allocate

    def watch(s):
        rises[s.step_count - 1] = tracemalloc.get_traced_memory()[1] - level[0]
        level[0] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        evolve_kgf(st_, lf_config(dt, 700, 1.0), monitor=watch)
    finally:
        tracemalloc.stop()
    assert max(rises[1:]) < st_.field.nbytes / 8


@pytest.mark.parametrize("branch", ["fourier_1d", "fourier_3d", "lu_1d"])
def test_a_monitor_sees_the_plain_cayley_loop_at_every_step(branch):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    grid, kind = CN_BRANCHES[branch]
    rng = np.random.default_rng(8)
    psi, dt, coef = uniform_field(rng, grid), 0.003, MASS.hbar / (2.0 * MASS.m * MASS.c)
    cfg = cn_config(dt, 40, potential=POTENTIALS[kind])
    seen = []
    evolve_schrodinger(GridState(grid, psi, None, 0.25, 3), cfg, monitor=lambda s_: seen.append(s_.copy()))
    u, nz, dz = cfg.potential_on(grid), grid.points[-1], grid.spacing[-1]
    if branch == "lu_1d":  # the periodic tridiagonal stencil, factorized once
        lap = sp.diags([np.ones(nz - 1), -2.0 * np.ones(nz), np.ones(nz - 1)], [-1, 0, 1], format="lil")
        lap[0, nz - 1] = lap[nz - 1, 0] = 1.0
        H = coef * (-(lap / (dz * dz)).tocsr() + sp.diags(u))
        eye = sp.identity(nz, dtype=complex, format="csr")
        lu, B = spla.splu((eye - 0.5j * dt * H).tocsc()), (eye + 0.5j * dt * H).tocsr()
        step = lambda f: lu.solve(B @ f)
    else:  # the Cayley multiplier of each Fourier mode of the line
        x = 0.5 * dt * coef * (u[0] - -4.0 / dz**2 * np.sin(np.pi * np.fft.fftfreq(nz)) ** 2)
        cayley = (1.0 + 1j * x) / (1.0 - 1j * x)
        step = lambda f: np.fft.ifft(np.fft.fft(f) * cayley)
    line, t = psi[(0,) * (grid.dim - 1)], 0.25
    for i, s_ in enumerate(seen, 1):
        line, t = step(line), t + dt
        assert np.array_equal(s_.field, np.broadcast_to(line, grid.points)) and (s_.t, s_.step_count) == (t, 3 + i)
    assert len(seen) == cfg.steps


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(
    grid=st.one_of(grids_1d, grids_3d),
    m_s=st.floats(0.0, 4.0),
    courant=st.floats(0.05, 1.0),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(grid=Grid((16.0,), (128,)), m_s=1.0, courant=0.9, steps=4000, seed=7)  # a long run
def test_unmonitored_kgf_is_the_verlet_loop_in_fourier_space(grid, m_s, courant, steps, seed):
    # with no monitor a run is one matrix power per Fourier mode: the same scheme, rounded
    # differently.  The reference is the monitored run, which the test above pins to the loop
    rng = np.random.default_rng(seed)
    psi0, pi0 = uniform_field(rng, grid), uniform_field(rng, grid)
    dt = 2.0 * courant / np.sqrt(m_s - laplacian_symbol(grid).min())
    st_ = GridState(grid, psi0.copy(), pi0.copy())
    fin = evolve_kgf(st_, lf_config(dt, steps, m_s))
    assert np.array_equal(st_.field, psi0) and np.array_equal(st_.pi, pi0)  # input untouched
    loop = evolve_kgf(st_, lf_config(dt, steps, m_s), monitor=lambda s: None)
    assert rel_l2(fin.field, loop.field) <= 1e-12 and rel_l2(fin.pi, loop.pi) <= 1e-12
    assert (fin.t, fin.step_count) == (loop.t, loop.step_count)  # the same repeated sum of dt


def test_zero_steps_return_the_input_bits():
    g = Grid((8.0,), (16,))
    rng = np.random.default_rng(3)
    st_ = GridState(g, random_field(rng, g.points), random_field(rng, g.points), t=0.3, step_count=2)
    fin = evolve_kgf(st_, lf_config(0.1, 0, 1.0))
    assert np.array_equal(fin.field, st_.field) and np.array_equal(fin.pi, st_.pi)
    assert (fin.t, fin.step_count) == (0.3, 2) and fin.field is not st_.field


def test_massless_zero_mode_drifts_by_n_dt_pi():
    g = Grid((8.0,), (16,))
    psi0, pi0 = 0.5 - 0.25j, 1.5 + 0.75j
    st_ = GridState(g, np.full(16, psi0), np.full(16, pi0))
    fin = evolve_wave(st_, lf_config(0.1, 50, 0.0))
    assert_allclose(fin.field, psi0 + 50 * 0.1 * pi0, rtol=1e-12)
    assert_allclose(fin.pi, pi0, rtol=1e-12)


@pytest.mark.parametrize("watched", [False, True])
@pytest.mark.parametrize("branch", ["kgf_1d", "kgf_3d", "fourier_1d", "fourier_3d", "eigenbasis", "lu_1d"])
def test_a_step_that_overflows_stops_the_run(branch, watched):
    # psi alternating +-1e308 along z is finite and its first step is not: a watched run, and the LU's loop,
    # check after every step; an unwatched Fourier, eigenbasis or leapfrog run checks its result
    if branch.startswith("kgf"):
        grid = Grid((8.0,) * 3, (8, 8, 32)) if branch == "kgf_3d" else Grid((8.0,), (32,))
        run, cfg = evolve_kgf, lf_config(0.05, 5, 1.0)
    else:  # dt well above dz^2, so that the LU's B psi overflows too
        (grid, kind), run = CN_BRANCHES[branch], evolve_schrodinger
        cfg = cn_config(0.05, 5, potential=POTENTIALS[kind])
    psi = np.broadcast_to(np.resize([1e308, -1e308], grid.points[-1]), grid.points).astype(complex)
    st_ = GridState(grid, psi, np.zeros_like(psi) if run is evolve_kgf else None)
    seen = []
    at = 1 if watched or branch == "lu_1d" else cfg.steps
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # numpy's overflow, and CN's dt above dz^2
        with pytest.raises(SolverError, match=f"^non-finite field values at step {at}$"):
            run(st_, cfg, monitor=seen.append if watched else None)
    assert seen == []  # the check comes before the monitor


def test_finite_check_is_exact():
    g = Grid((8.0,), (16,))
    big = np.full(16, 1e308, dtype=complex)  # finite values whose sum overflows
    huge = np.full(16, complex(1e200, -3e200))  # finite values whose |psi|^2 overflows in the reduction
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and silently: the sum's overflow is not reported
        _check_finite(GridState(g, big, big.copy()))
        _check_finite(GridState(g, huge, huge.copy()))
        _check_finite(GridState(g, huge))
        for where in ("field", "pi"):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, -np.inf), (np.inf, -np.inf)):
                for fill in (1.0, 1e200):
                    st_ = GridState(g, np.full(16, fill, dtype=complex), np.full(16, fill, dtype=complex))
                    getattr(st_, where)[7:7 + np.size(bad)] = bad
                    with pytest.raises(SolverError, match="non-finite"):
                        _check_finite(st_)


CN_BRANCHES = {  # grid and potential that select each Crank-Nicolson branch, watched or not
    "fourier_1d": (Grid((6.0,), (64,)), "constant"),
    "fourier_3d": (Grid((6.0, 7.0, 8.0), (8, 8, 16)), "zero"),
    "eigenbasis": (Grid((6.0, 7.0, 8.0), (8, 8, 16)), "z_only"),
    "eigenbasis_1d": (Grid((6.0,), (64,)), "z_only"),
    "lu_1d": (Grid((60.0,), (LONG,)), "z_only"),
    "lu_3d": (Grid((6.0, 7.0, 60.0), (8, 8, LONG)), "z_only"),
}


@settings(max_examples=30, deadline=None)
@given(
    points=st.one_of(
        st.tuples(st.integers(8, 256)), st.tuples(st.integers(8, 11), st.integers(8, 11), st.integers(8, 64))
    ),
    extents=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    kind=st.sampled_from(["zero", "constant", "z_only"]),
    steps=st.integers(1, 40),
    ratio=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
@example(points=(1024,), extents=(8.0 * np.pi,) * 3, kind="zero", steps=1000, ratio=0.9, seed=1)  # the bench's 1-d run
def test_unmonitored_cn_is_the_monitored_loop_in_the_stepping_basis(points, extents, kind, steps, ratio, seed):
    # with no monitor the Fourier branch (zero or constant u) and the eigenbasis branch (u of z
    # alone, nz <= 512) take one phase exp(2i steps arctan x) per mode; the monitored run,
    # which the dense-solve test pins step by step, takes the Cayley multiplier every step.
    # Both share x = dt H / 2, so only rounding parts them: the phase's is about eps steps pi,
    # a monitored step's about eps per basis change (worst of 550 draws: 8.5 eps steps)
    # watched, a line past 192 points takes the LU, which keeps its loop
    assume(kind != "z_only" or points[-1] <= pde._EIGH_MAX_WATCHED)
    grid = Grid(extents[: len(points)], points)
    rng = np.random.default_rng(seed)
    psi = uniform_field(rng, grid)
    table = rng.uniform(-2.0, 2.0, points[-1])
    pot = (lambda x, y, z: np.broadcast_to(table, np.shape(z))) if kind == "z_only" else POTENTIALS[kind]
    cfg = cn_config(ratio * min(grid.spacing) ** 2, steps, potential=pot)
    st_ = GridState(grid, psi.copy(), t=0.25, step_count=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dt above dx^2 is allowed here
        fin = evolve_schrodinger(st_, cfg)
        assert np.array_equal(st_.field, psi) and (st_.t, st_.step_count) == (0.25, 3)  # input untouched
        loop = evolve_schrodinger(st_, cfg, monitor=lambda s_: None)
    assert (fin.t, fin.step_count) == (loop.t, loop.step_count)  # the same repeated sum of dt
    assert rel_l2(fin.field, loop.field) <= 64 * np.finfo(float).eps * steps


@pytest.mark.parametrize("branch", ["fourier_1d", "fourier_3d", "eigenbasis"])
def test_unobserved_cn_checks_only_its_input_and_result(branch, monkeypatch):
    grid, kind = CN_BRANCHES[branch]
    psi = uniform_field(np.random.default_rng(4), grid)
    seen = []
    monkeypatch.setattr(pde, "_check_finite", lambda s_: seen.append(s_.step_count) or _check_finite(s_))
    for steps in (1, 7, 300):
        seen.clear()
        fin = evolve_schrodinger(GridState(grid, psi), cn_config(0.005, steps, potential=POTENTIALS[kind]))
        assert seen == [0, steps] and fin.step_count == steps


@pytest.mark.parametrize("branch", sorted(CN_BRANCHES))
def test_unobserved_cn_refuses_non_finite_input_on_every_branch(branch):
    grid, kind = CN_BRANCHES[branch]
    bad = uniform_field(np.random.default_rng(5), grid)
    bad[..., 11] = np.nan
    with pytest.raises(SolverError, match="non-finite field values at step 0"):
        evolve_schrodinger(GridState(grid, bad), cn_config(0.005, 20, potential=POTENTIALS[kind]))


def test_z_only_potential_monitored_and_unmonitored_runs_agree():
    # unmonitored steps stay in the eigenbasis; a monitor sees psi after each
    g = Grid((6.0, 7.0, 8.0), (8, 10, 16))
    z = np.broadcast_to(g.coords[-1], g.points)
    psi = np.exp(-((z - 4.0) ** 2) + 0.5j * z)
    cfg = cn_config(0.05, 12, potential=POTENTIALS["z_only"])
    free = evolve_schrodinger(GridState(g, psi), cfg)
    seen = []
    watched = evolve_schrodinger(GridState(g, psi), cfg, monitor=lambda s_: seen.append(s_.step_count))
    assert seen == list(range(1, 13))
    assert np.linalg.norm(watched.field - free.field) < 1e-13 * np.linalg.norm(free.field)


def test_1d_varying_potential_is_the_sparse_lu_bit_for_bit():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    g = Grid((20.0,), (LONG,))  # a line the LU steps, watched or not
    z, dx, n, dt = g.axis(0), g.spacing[0], LONG, 0.9 * g.spacing[0] ** 2
    psi = np.exp(-((z - 10.0) ** 2) / 2.0) * np.exp(1.5j * z)
    pot = lambda x, y, zz: 0.5 * (zz - 10.0) ** 2 + np.cos(zz)
    # the reference: a periodic tridiagonal stencil, factorized once, as a plain loop
    lap = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="lil")
    lap[0, n - 1] = lap[n - 1, 0] = 1.0
    H = MASS.hbar / (2.0 * MASS.m * MASS.c) * (-(lap / (dx * dx)).tocsr() + sp.diags(pot(0.0, 0.0, z)))
    eye = sp.identity(n, dtype=complex, format="csr")
    lu, B = spla.splu((eye - 0.5j * dt * H).tocsc()), (eye + 0.5j * dt * H).tocsr()
    want = psi.astype(complex)
    for _ in range(300):
        want = lu.solve(B @ want)
    for monitor in (None, lambda s_: None):
        got = evolve_schrodinger(GridState(g, psi), cn_config(dt, 300, potential=pot), monitor=monitor)
        assert np.array_equal(got.field, want)


def transverse_mode_cayley_run(grid, table, coef, dt, steps, psi):
    """steps Crank-Nicolson steps for u = table(z): in each transverse Fourier mode, the
    dense Cayley matrix of that mode's z-line, to the power steps (the transverse stencil
    is diagonal in Fourier space: test_symbol_is_the_stencil_on_fourier_modes)"""
    nz, dz = grid.points[2], grid.spacing[2]
    eye = np.eye(nz)
    hz = -(np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)) / dz**2 + np.diag(table)
    # -(sx + sy) per mode; modes k and -k share theirs bit for bit, so each distinct one is built once
    shift, which = np.unique(-laplacian_symbol(grid)[..., 0], return_inverse=True)
    h = coef * (hz + shift.reshape(-1, 1, 1) * eye)
    power = np.linalg.matrix_power(np.linalg.solve(eye - 0.5j * dt * h, eye + 0.5j * dt * h), steps)
    lines = np.fft.fft2(psi, axes=(0, 1)).reshape(-1, nz)
    out = np.array([power[m] @ line for m, line in zip(which.ravel(), lines)])
    return np.fft.ifft2(out.reshape(grid.points), axes=(0, 1))


@settings(max_examples=25, deadline=None)
@given(
    points=st.tuples(st.integers(8, 11), st.integers(8, 11), st.one_of(st.integers(8, 130), st.integers(193, 260))),
    extents=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    steps=st.integers(1, 12),
    stiffness=st.floats(0.0, 1.0),
    monitored=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(points=(8, 9, 200), extents=(3.0, 5.0, 20.0), steps=5, stiffness=1.0, monitored=True, seed=1)
@example(points=(11, 10, 24), extents=(7.0, 4.0, 9.0), steps=12, stiffness=1.0, monitored=True, seed=2)
@example(points=(10, 10, 100), extents=(15.0, 18.0, 0.5), steps=12, stiffness=1.0, monitored=False, seed=21)
def test_z_only_cn_run_is_each_transverse_modes_cayley_power(
    points, extents, steps, stiffness, monitored, seed
):
    # nz <= 192 steps in the z-line eigenbasis, watched or not; 193 to 260 takes the LU watched
    # and the eigenbasis unwatched; dt runs from 1e-3 to 1000 dx^2 on a log scale.  The third
    # example is the worst draw found at the stiff end: dz the finest spacing, dt = 1000 dz^2, 12 steps
    grid = Grid(extents, points)
    rng = np.random.default_rng(seed)
    psi = uniform_field(rng, grid)
    table = rng.uniform(-2.0, 2.0, points[2])
    pot = lambda x, y, z: np.broadcast_to(table, np.shape(z))
    dt = 1e-3 * (1e6 * min(grid.spacing) ** 2) ** stiffness
    st_ = GridState(grid, psi.copy(), t=0.25, step_count=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # dt above dx^2 is allowed here
        monitor = (lambda s_: None) if monitored else None
        fin = evolve_schrodinger(st_, cn_config(dt, steps, potential=pot), monitor=monitor)
    assert np.array_equal(st_.field, psi) and (st_.t, st_.step_count) == (0.25, 3)  # input untouched
    t = 0.25
    for _ in range(steps):
        t += dt
    assert (fin.t, fin.step_count) == (t, 3 + steps)
    want = transverse_mode_cayley_run(grid, table, MASS.hbar / (2.0 * MASS.m * MASS.c), dt, steps, psi)
    # eigh leaves each eigenvalue off by about eps |Hz| ~ eps 4 coef / dz^2, which dt turns
    # into a phase error every step: the stiff end gets eps steps dt / dz^2 in place of 1e-12
    # (up to 2.7e-12; the worst of 2,400 stiff-end draws was 8.9e-13, the LU's 3.8e-14)
    assert rel_l2(fin.field, want) <= max(1e-12, np.finfo(float).eps * steps * dt / grid.spacing[2] ** 2)


def reference_observables(state, cfg):
    """measure_observables written with np.roll and out-of-place sums: the reference."""
    grid = state.grid
    dv = grid.cell_volume
    density = np.abs(state.field) ** 2
    weight = float(density.sum()) * dv
    if cfg.scheme == "crank_nicolson":
        coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
        u = _potential_on_grid(grid, cfg.potential)
        hpsi = coef * (-periodic_laplacian(state.field, grid) + u * state.field)
        energy = float(np.real(np.vdot(state.field, hpsi)) * dv)
    else:
        e = np.abs(state.pi) ** 2 + cfg.mass_scalar * density
        for ax, dx in enumerate(grid.spacing):
            grad = (np.roll(state.field, -1, axis=ax) - state.field) / dx
            e = e + np.abs(grad) ** 2
        energy = float(0.5 * e.sum() * dv)
    centroid, width = [], []
    for ax in range(grid.dim):
        coords = grid.axis(ax)
        other = tuple(i for i in range(grid.dim) if i != ax)
        marginal = density.sum(axis=other) if other else density
        w = marginal / marginal.sum()
        mean = float(np.sum(coords * w))
        centroid.append(mean)
        width.append(float(np.sqrt(max(float(np.sum((coords - mean) ** 2 * w)), 0.0))))
    return Observables(float(np.sqrt(weight)), energy, tuple(centroid), tuple(width))


@settings(max_examples=40, deadline=None)
@given(
    grid=st.one_of(grids_1d, grids_3d),
    scheme=st.sampled_from(["crank_nicolson", "leapfrog"]),
    m_s=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
    kind=st.just("random"),
)
@example(grid=Grid((8.0,), (8,)), scheme="leapfrog", m_s=1.0, seed=1, kind="random")  # the smallest line
@example(grid=Grid((8.0,), (8,)), scheme="crank_nicolson", m_s=1.0, seed=2, kind="random")
@example(grid=Grid((8.0 * np.pi,), (512,)), scheme="leapfrog", m_s=1.0, seed=3, kind="random")  # the bench's line
@example(grid=Grid((8.0 * np.pi,), (512,)), scheme="crank_nicolson", m_s=2.0, seed=4, kind="random")
@example(grid=Grid((8.0,), (8,)), scheme="leapfrog", m_s=1.0, seed=5, kind="zero")
@example(grid=Grid((4.0, 5.0, 6.0), (8, 9, 10)), scheme="crank_nicolson", m_s=1.0, seed=6, kind="zero")
@example(grid=Grid((8.0 * np.pi,), (4096,)), scheme="leapfrog", m_s=1.0, seed=0, kind="narrow")
@example(grid=Grid((8.0 * np.pi,), (4096,)), scheme="crank_nicolson", m_s=1.0, seed=0, kind="narrow")
@example(grid=Grid((3.0, 4.0, 8.0 * np.pi), (8, 9, 4096)), scheme="leapfrog", m_s=1.0, seed=1, kind="narrow")
@example(grid=Grid((3.0, 4.0, 8.0 * np.pi), (8, 9, 4096)), scheme="crank_nicolson", m_s=1.0, seed=1, kind="narrow")
def test_observables_are_the_roll_formula_to_round_off(grid, scheme, m_s, seed, kind):
    rng = np.random.default_rng(seed)
    st_ = GridState(grid, uniform_field(rng, grid), uniform_field(rng, grid))
    if kind == "zero":
        st_ = GridState(grid, np.zeros(grid.points), np.zeros(grid.points))
    elif kind == "narrow":  # width L / 500 near 0.9 L, where a one-pass E[z^2] - mean^2 keeps few digits
        L, z = grid.extents[-1], grid.coords[-1]
        line = np.exp(-0.5 * ((z - L * rng.uniform(0.89, 0.91)) / (L / 500)) ** 2 + 1j * rng.uniform(0, 7))
        st_.field = np.broadcast_to(line, grid.points)
    if scheme == "leapfrog":
        cfg = lf_config(0.01, 1, m_s)
    else:
        cfg = cn_config(0.01, 1, potential=lambda x, y, z: m_s * np.cos(z))
    got = measure_observables(st_, cfg)
    if kind == "zero":
        assert got == Observables(0.0, 0.0, (0.0,) * grid.dim, (0.0,) * grid.dim)
        return
    want = reference_observables(st_, cfg)
    tol = 64 * np.finfo(float).eps  # the sums run in another order; each is within a few eps
    assert abs(got.norm - want.norm) <= tol * want.norm
    assert abs(got.energy - want.energy) <= tol * energy_scale(st_, cfg)
    for c, c0, w, w0, L in zip(got.centroid, want.centroid, got.width, want.width, grid.extents):
        assert abs(c - c0) <= tol * L and abs(w - w0) <= tol * L


def energy_scale(state, cfg):
    """The sum of the absolute values of the energy's terms, the scale of its round-off."""
    grid, density = state.grid, np.abs(state.field) ** 2
    kinetic = sum(
        np.sum(np.abs(np.roll(state.field, -1, axis=ax) - state.field) ** 2) / dx**2
        for ax, dx in enumerate(grid.spacing)
    )
    if cfg.scheme == "crank_nicolson":
        u = _potential_on_grid(grid, cfg.potential)
        coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
        return coef * (kinetic + np.sum(np.abs(u) * density)) * grid.cell_volume
    return 0.5 * (np.sum(np.abs(state.pi) ** 2) + cfg.mass_scalar * np.sum(density) + kinetic) * grid.cell_volume


@pytest.mark.parametrize("scheme", ["crank_nicolson", "leapfrog"])
def test_observation_allocates_no_full_grid_array(scheme):
    # nor does the uniformity check of a state built from whole arrays, contiguous or not
    grid = Grid((6.0, 7.0, 5.0), (32, 32, 24))
    rng = np.random.default_rng(3)
    psi, pi = uniform_field(rng, grid), uniform_field(rng, grid)
    st_ = GridState(grid, psi, pi)
    cfg = lf_config(0.01, 1, 1.5) if scheme == "leapfrog" else cn_config(0.01, 1, lambda x, y, z: np.cos(z))
    measure_observables(st_, cfg)  # evaluates the potential on the grid, once per config
    fortran = np.asfortranarray(psi)
    for call in [
        lambda: measure_observables(st_, cfg),
        lambda: GridState(grid, psi, pi),
        lambda: GridState(grid, fortran, pi),
    ]:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < psi.nbytes / 4


def test_potential_is_evaluated_once_per_config_and_grid():
    calls = []

    def pot(x, y, z):
        calls.append(np.shape(z))
        return np.cos(z)

    g, g3 = Grid((8.0,), (32,)), Grid((8.0,) * 3, (8, 8, 16))
    cfg = cn_config(0.01, 5, potential=pot)
    st_ = GridState(g, np.exp(-((g.axis(0) - 4.0) ** 2)))
    before = measure_observables(st_, cfg)
    evolve_schrodinger(st_, cfg, monitor=lambda s_: measure_observables(s_, cfg))
    u = cfg.potential_on(g)
    assert calls == [(32,)] and not u.flags.writeable
    measure_observables(GridState(g3, np.ones(g3.points)), cfg)  # another grid: evaluated anew
    assert calls == [(32,), (1, 1, 16)] and measure_observables(st_, cfg) == before  # z of a sparse mesh
    assert np.array_equal(u, _potential_on_grid(g, pot))


# -- a 3-d state is its z-line -------------------------------------------------------


def uniform_state(rng, grid, second_order=True):
    """A 3-d state each of whose (x, y) lines is one random z-line, for psi and for pi."""
    return GridState(grid, uniform_field(rng, grid), uniform_field(rng, grid) if second_order else None, 0.25, 3)


def same_bits(a, b):
    bits = lambda c: np.ascontiguousarray(c).view(np.int64)
    return a is b is None or (a.shape == b.shape and np.array_equal(bits(a), bits(b)))


def line_config(run, grid, steps, table=None):
    """The evolve function and config of a run kind: leapfrog, or CN with a zero, constant or z-only u."""
    if run in ("kgf", "wave"):  # at 0.9 of the Courant bound
        m_s = 1.3 if run == "kgf" else 0.0
        dt = 1.8 / np.sqrt(m_s - laplacian_symbol(grid).min())
        return (evolve_kgf if run == "kgf" else evolve_wave), lf_config(dt, steps, m_s)
    pot = (lambda x, y, z: np.broadcast_to(table, np.shape(z))) if run == "cn_z_only" else POTENTIALS[run[3:]]
    return evolve_schrodinger, cn_config(0.5 * min(grid.spacing) ** 2, steps, potential=pot)


def full_box_run(run, grid, cfg, psi, pi):
    """The reference on the whole box: the roll_laplacian Verlet loop, or the dense Cayley step in the
    eigenbasis of dense_hamiltonian, raised to the step count."""
    if run in ("kgf", "wave"):
        m_s = cfg.resolved_mass_scalar()
        accel = roll_laplacian(psi, grid) - m_s * psi
        for _ in range(cfg.steps):
            pi = pi + 0.5 * cfg.dt * accel
            psi = psi + cfg.dt * pi
            accel = roll_laplacian(psi, grid) - m_s * psi
            pi = pi + 0.5 * cfg.dt * accel
        return psi, pi
    u = np.broadcast_to(_potential_on_grid(grid, cfg.potential), grid.points)
    lam, V = np.linalg.eigh(dense_hamiltonian(grid, u, MASS.hbar / (2.0 * MASS.m * MASS.c)))
    x = 0.5 * cfg.dt * lam
    return (V @ (((1.0 + 1j * x) / (1.0 - 1j * x)) ** cfg.steps * (V.T @ psi.ravel()))).reshape(grid.points), None


def full_box_spectral_run(grid, cfg, psi, pi):
    """N unobserved steps on the whole box in 3-d Fourier space: each mode's Cayley phase tan(N arctan x) for
    CN with a constant u, or its velocity-Verlet matrix to the N-th power."""
    sym = laplacian_symbol(grid)
    if pi is None:
        coef = MASS.hbar / (2.0 * MASS.m * MASS.c)
        x = np.tan(cfg.steps * np.arctan(0.5 * cfg.dt * coef * (_potential_on_grid(grid, cfg.potential)[0] - sym)))
        return np.fft.ifftn(np.fft.fftn(psi) * ((1.0 + 1j * x) / (1.0 - 1j * x))), None
    a, b, c, d = pde._verlet_power(cfg.resolved_mass_scalar() - sym, cfg.dt, cfg.steps)
    p, q = np.fft.fftn(psi), np.fft.fftn(pi)
    return np.fft.ifftn(a * p + b * q), np.fft.ifftn(c * p + d * q)


def line_run(evolve, st_, cfg, monitor=None):
    """The same call on the 1-d grid along z, from the state's (0, 0) lines."""
    grid, lines = st_.grid, [None if a is None else a[0, 0] for a in (st_.field, st_.pi)]
    return evolve(GridState(Grid(grid.extents[-1:], grid.points[-1:]), *lines, st_.t, st_.step_count), cfg, monitor)


@pytest.mark.parametrize("points", [(8, 8, 16), (16, 8, 32), (32, 32, 32), (64, 64, 64)])
@pytest.mark.parametrize("run", ["kgf", "wave", "cn_zero", "cn_constant"])
def test_a_uniform_run_is_the_full_grid_run_bit_for_bit(points, run):
    # on power-of-two grids N unobserved leapfrog or Fourier CN steps of the line are the whole box's in 3-d
    # Fourier space, and the run of the 1-d grid along z, bit for bit
    grid = Grid((6.0, 7.0, 8.0), points)
    st_ = uniform_state(np.random.default_rng(sum(points)), grid, second_order=run in ("kgf", "wave"))
    evolve, cfg = line_config(run, grid, 9)
    got, line = evolve(st_, cfg), line_run(evolve, st_, cfg)
    want = full_box_spectral_run(grid, cfg, np.array(st_.field), None if st_.pi is None else np.array(st_.pi))
    assert same_bits(got.field, want[0]) and same_bits(got.pi, want[1])
    assert same_bits(got.field, np.broadcast_to(line.field, points))
    assert same_bits(got.pi, None if line.pi is None else np.broadcast_to(line.pi, points))
    assert (got.t, got.step_count) == (line.t, line.step_count) and got.step_count == 12
    for a in (got.field, got.pi):  # read-only views of one fresh line each
        assert a is None or (not a.flags.writeable and a.strides[:2] == (0, 0) and not np.shares_memory(a, st_.field))


@settings(max_examples=40, deadline=None)
@given(
    points=st.tuples(st.integers(8, 9), st.integers(8, 9), st.integers(8, 12)),
    extents=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    run=st.sampled_from(["kgf", "wave", "cn_zero", "cn_constant", "cn_z_only"]),
    monitored=st.booleans(),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(points=(8, 8, 8), extents=(6.0, 7.0, 8.0), run="kgf", monitored=True, steps=9, seed=1)
@example(points=(9, 8, 11), extents=(6.0, 7.0, 8.0), run="cn_z_only", monitored=False, steps=12, seed=2)
def test_a_uniform_run_agrees_with_the_full_grid_run(points, extents, run, monitored, steps, seed):
    # every 3-d run steps its (0, 0) line, watched or not.  It is the whole box's run: the roll_laplacian
    # Verlet loop, or the dense Cayley step.  As its line decides its branch, it is also the run of the 1-d
    # grid along z, bit for bit
    grid = Grid(extents, points)
    rng = np.random.default_rng(seed)
    st_ = uniform_state(rng, grid, second_order=run in ("kgf", "wave"))
    before = [np.array(a) for a in (st_.field, st_.pi) if a is not None]
    evolve, cfg = line_config(run, grid, steps, table=rng.uniform(-2.0, 2.0, points[-1]))
    monitor = (lambda s: None) if monitored else None
    got = evolve(st_, cfg, monitor=monitor)
    assert all(np.array_equal(a, b) for a, b in zip((st_.field, st_.pi), before))  # the input is untouched
    assert (got.t, got.step_count) == (evolve(st_, cfg, monitor=lambda s: None).t, 3 + steps)
    psi, pi = full_box_run(run, grid, cfg, *before, *[None][: 2 - len(before)])
    if run in ("kgf", "wave") and monitored:  # the loop's own arithmetic, to the sign of a zero
        assert np.array_equal(got.field, psi) and np.array_equal(got.pi, pi)
    else:
        assert rel_l2(got.field, psi) <= 1e-12 and (pi is None or rel_l2(got.pi, pi) <= 1e-12)
    line = line_run(evolve, st_, cfg, monitor)
    assert same_bits(got.field, np.broadcast_to(line.field, points))
    assert same_bits(got.pi, None if line.pi is None else np.broadcast_to(line.pi, points))


def assert_refused(grid, arrays, where, first):
    """The state and the stencil each refuse ``arrays[where]`` in one line naming ``first``."""
    for name, call in (
        (where, lambda: GridState(grid, **arrays)),
        ("field", lambda: periodic_laplacian(arrays[where], grid)),
    ):
        with pytest.raises(ValueError, match=rf"^{name} is not uniform across x and y: {re.escape(first)}") as exc:
            call()
        assert "\n" not in str(exc.value)


@pytest.mark.parametrize("where", ["field", "pi"])
@pytest.mark.parametrize("change", ["one_cell", "negative_zero_line"])
@pytest.mark.parametrize("run", ["kgf", "cn_z_only"])
def test_a_state_uniform_only_as_numbers_takes_the_full_grid_path(where, change, run):
    # there is no full-grid path: a state whose lines differ by one ulp, or by the sign of a zero, is refused
    grid = Grid((6.0, 7.0, 8.0), (8, 8, 16))
    st_ = uniform_state(np.random.default_rng(11), grid)
    arrays = {"field": np.array(st_.field), "pi": np.array(st_.pi)}
    a = arrays[where]
    if change == "one_cell":
        a.real[5, 3, 7] = np.nextafter(a.real[5, 3, 7], np.inf)
    else:  # +0.0 everywhere but one line of -0.0: equal as numbers, not as bits
        a[...] = 0.0
        a.imag[2, 6] = -0.0
    assert_refused(grid, arrays, where, "line (5, 3) differs" if change == "one_cell" else "line (2, 6) differs")
    evolve, cfg = line_config(run, grid, 6, table=np.cos(np.arange(16)))
    arrays[where] = np.broadcast_to(a[0, 0], grid.points)  # its (0, 0) line repeated: a state again, and a run
    assert same_bits(getattr(GridState(grid, **arrays), where), arrays[where])
    assert evolve(GridState(grid, **arrays), cfg).step_count == 6


@settings(max_examples=30, deadline=None)
@given(
    points=st.tuples(*[st.integers(8, 12)] * 3),
    where=st.sampled_from(["field", "pi"]),
    change=st.sampled_from(["next_float", "negative_zero"]),
    data=st.data(),
)
def test_a_3d_array_not_uniform_across_x_and_y_is_refused(points, where, change, data):
    # one element changed at a drawn (i, j, k), if only from +0.0 to -0.0, is refused by name of the first
    # (x, y) line that differs from line (0, 0)
    grid = Grid((6.0, 7.0, 8.0), points)
    i, j, k = (data.draw(st.integers(0, n - 1)) for n in points)
    arrays = {name: uniform_field(np.random.default_rng(sum(points)), grid) for name in ("field", "pi")}
    a = arrays[where]
    if change == "negative_zero":
        a.real[..., k] = 0.0
        a.real[i, j, k] = -0.0
    else:
        a.real[i, j, k] = np.nextafter(a.real[i, j, k], np.inf)
    assert_refused(grid, arrays, where, f"line {(i, j) if (i, j) != (0, 0) else (0, 1)} differs")


@pytest.mark.parametrize("points", [(8, 8, 16), (9, 11, 13), (32, 32, 24)])
@pytest.mark.parametrize("scheme", ["crank_nicolson", "leapfrog"])
def test_a_uniform_state_observes_as_the_slab_pass(points, scheme):
    # read on its line and scaled by nx ny, a state observes as the whole box does: the roll formula, which
    # sums every cell, is the reference the slab pass once was
    grid = Grid((6.0, 7.0, 5.0), points)
    st_ = uniform_state(np.random.default_rng(5), grid)
    cfg = lf_config(0.01, 1, 1.5) if scheme == "leapfrog" else cn_config(0.01, 1, lambda x, y, z: 0.3 + np.cos(z))
    got, want = measure_observables(st_, cfg), reference_observables(st_, cfg)
    tol = 64 * np.finfo(float).eps  # as for the roll formula: the sums run in another order
    assert abs(got.norm - want.norm) <= tol * want.norm
    assert abs(got.energy - want.energy) <= tol * energy_scale(st_, cfg)
    for c, c0, w, w0, L in zip(got.centroid, want.centroid, got.width, want.width, grid.extents):
        assert abs(c - c0) <= tol * L and abs(w - w0) <= tol * L
    zero = GridState(grid, np.zeros(points, dtype=complex), np.zeros(points, dtype=complex))
    assert measure_observables(zero, cfg) == Observables(0.0, 0.0, (0.0,) * 3, (0.0,) * 3)


@pytest.mark.parametrize("run", ["kgf", "cn_zero", "cn_z_only"])
@pytest.mark.parametrize("dim", [1, 3])
def test_a_monitor_sees_read_only_views_and_may_not_rebind_them(run, dim):
    # in 1-d as in 3-d: writing into a line raises numpy's read-only error, and setting any attribute of the
    # state the monitor sees raises one line; the state a run returns keeps its 1-d lines writable
    grid = Grid((6.0, 7.0, 8.0), (8, 8, 16)) if dim == 3 else Grid((8.0,), (16,))
    st_ = uniform_state(np.random.default_rng(7), grid, second_order=run == "kgf")
    evolve, cfg = line_config(run, grid, 4, table=np.cos(np.arange(16)))
    names = ("field", "pi") if run == "kgf" else ("field",)
    seen = []
    fin = evolve(st_, cfg, monitor=lambda s: seen.append([getattr(s, n).flags.writeable for n in names]))
    assert seen == [[False] * len(names)] * 4
    assert all(getattr(fin, n).flags.writeable == (dim == 1) for n in names)
    for name in names:

        def write(s):
            getattr(s, name)[..., 0] = 1.0

        with pytest.raises(ValueError, match="read-only"):
            evolve(st_, cfg, monitor=write)
    for name in (*names, "t", "step_count"):
        with pytest.raises(ValueError, match=f"^a monitor only observes the run: it cannot set the state's {name}$"):
            evolve(st_, cfg, monitor=lambda s: setattr(s, name, getattr(s, name)))
    if dim == 3:  # a copy is a fresh line, shown as the state's; a 1-d state keeps its writable array
        cp = st_.copy()
        assert same_bits(cp.field, st_.field) and cp.field.strides[:2] == (0, 0)
        assert not np.shares_memory(cp.field, st_.field)
        line = GridState(Grid((8.0,), (16,)), st_.field[0, 0].copy())
        assert line.field.flags.writeable and line.copy().field.flags.writeable


def test_the_laplacian_of_a_uniform_box_allocates_only_its_output():
    grid = Grid((8.0,) * 3, (64, 64, 64))
    f = uniform_field(np.random.default_rng(2), grid)
    for arg in (f, np.broadcast_to(f[0, 0], grid.points)):
        tracemalloc.start()
        try:
            out = periodic_laplacian(arg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.02 * out.nbytes and out.flags.writeable and out.flags.c_contiguous
        assert np.array_equal(out, roll_laplacian(f, grid))


_SCIPY_ROWS = [  # (z-line points, watched, whether the run loads scipy): each side of both thresholds
    ((192,), True, False), ((193,), True, True), ((512,), False, False), ((513,), False, True),
    ((8, 8, 192), True, False), ((8, 8, 193), True, True), ((8, 9, 512), False, False), ((8, 9, 513), False, True),
]


@pytest.mark.parametrize(
    "points, watched, loads",
    _SCIPY_ROWS,
    ids=["x".join(map(str, p)) + ("-watched" if w else "-unwatched") for p, w, _ in _SCIPY_ROWS],
)
def test_scipy_loads_where_the_lu_runs(points, watched, loads):
    # a CN run whose u varies along z takes the sparse LU, and loads scipy, exactly past the eigenbasis's
    # longest line: 192 points watched, 512 unwatched, in 1-d and 3-d alike; observing loads nothing
    code = (
        "import sys, numpy as np; from boostfield import pde; "
        "pts, watched = eval(sys.argv[1]), sys.argv[2] == 'True'; "
        "g = pde.Grid((0.1 * pts[-1],) * len(pts), pts); z = g.axis(g.dim - 1); "
        "st = pde.GridState(g, np.broadcast_to(np.exp(-(z - 4.0) ** 2) + 0j, g.points)); "
        "cfg = pde.SolverConfig(0.005, 5, 'crank_nicolson', pde.MassParameters(1.0, 1.0), potential=lambda x, y, z: np.cos(z)); "
        "watch = (lambda s: pde.measure_observables(s, cfg)) if watched else None; "
        "fin = pde.evolve_schrodinger(st, cfg, monitor=watch); pde.measure_observables(fin, cfg); "
        "print(fin.field.shape == g.points, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pde.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, repr(points), str(watched)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"True {loads}\n"


def test_a_3d_run_warns_and_refuses_as_its_line_does():
    # dx = dy = 1 and dz = 0.5: the line warns from dt > dz^2 = 0.25 and bounds the leapfrog's dt at
    # 2 / sqrt(4 / dz^2) = dz = 0.5; the whole box would warn only from dt > 1 and bound dt at 2 / sqrt(24),
    # about 0.41
    grid = Grid((8.0, 8.0, 8.0), (8, 8, 16))
    st_ = uniform_state(np.random.default_rng(2), grid)
    for dt, warned in ((0.25, 0), (0.3, 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve_schrodinger(st_, cn_config(dt, 4, potential=POTENTIALS["z_only"]))
        assert len(caught) == warned and all("accuracy" in str(w.message) for w in caught)
    with pytest.raises(SolverError, match="Courant violation"):
        evolve_kgf(st_, lf_config(0.51, 4, 0.0))
    evolve_kgf(st_, lf_config(0.5, 4, 0.0))
    bad = GridState(grid, np.full(grid.points, np.inf + 0j), st_.pi)
    with pytest.raises(SolverError, match="non-finite field values at step 0"):
        evolve_kgf(bad, lf_config(0.4, 4, 0.0))
    # a 32^3 box of extent 8 pi at m_s = 1: dt = 0.6 is 0.82 of its line's bound and 1.36 of the box's
    box = Grid((8.0 * np.pi,) * 3, (32,) * 3)
    st_, cfg = uniform_state(np.random.default_rng(3), box), lf_config(0.6, 50, 1.0)
    for monitor in (None, lambda s: None):
        got, line = evolve_kgf(st_, cfg, monitor), line_run(evolve_kgf, st_, cfg, monitor)
        assert same_bits(got.field, np.broadcast_to(line.field, box.points))
        assert same_bits(got.pi, np.broadcast_to(line.pi, box.points))


def _line_run_or_refusal(evolve, st_, cfg, monitor):
    """(the final state, the warnings raised, the SolverError message): of a 3-d state's run, or its line's."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fin, refused = evolve(st_, cfg, monitor), None
        except SolverError as exc:
            fin, refused = None, str(exc)
    return fin, [str(w.message) for w in caught], refused


@settings(max_examples=60, deadline=None)
@given(
    points=st.tuples(st.integers(8, 12), st.integers(8, 12), st.integers(8, 64)),
    extents=st.tuples(*[st.floats(0.5, 20.0)] * 3),
    run=st.sampled_from(["kgf", "wave", "cn_zero", "cn_constant", "cn_z_only"]),
    scale=st.one_of(st.floats(0.5, 1.5), st.integers(-3, 3)),
    monitored=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(points=(8, 8, 16), extents=(8.0, 8.0, 8.0), run="kgf", scale=0, monitored=False, seed=1)
@example(points=(8, 8, 16), extents=(8.0, 8.0, 8.0), run="cn_z_only", scale=1, monitored=True, seed=2)
def test_a_3d_run_is_refused_warned_and_stepped_as_its_line(points, extents, run, scale, monitored, seed):
    # dt is drawn about the line's own bound: the leapfrog's 2 (1 + 1e-12) / sqrt(max(m_s - symbol)), CN's
    # dz^2, either scaled by a float or moved by a few ulps.  The 3-d run is refused exactly when the run of
    # the 1-d grid along z is, warns exactly when it warns, and else ends on that run's state bit for bit
    grid = Grid(extents, points)
    rng = np.random.default_rng(seed)
    st_ = uniform_state(rng, grid, second_order=run in ("kgf", "wave"))
    evolve, cfg = line_config(run, grid, int(rng.integers(1, 9)), table=rng.uniform(-2.0, 2.0, points[-1]))
    sym, dz = pde._axis_symbol(points[-1], grid.spacing[-1]), grid.spacing[-1]
    if cfg.scheme == "leapfrog":
        bound = 2.0 * (1.0 + 1e-12) / np.sqrt(cfg.resolved_mass_scalar() - sym.min())
    else:
        bound = dz * dz
    dt = bound * scale if isinstance(scale, float) else bound
    for _ in range(abs(scale) if isinstance(scale, int) else 0):
        dt = np.nextafter(dt, np.sign(scale) * np.inf)
    cfg = dataclasses.replace(cfg, dt=float(dt))
    monitor = (lambda s: None) if monitored else None
    got = _line_run_or_refusal(evolve, st_, cfg, monitor)
    line = _line_run_or_refusal(lambda s, c, m: line_run(evolve, s, c, m), st_, cfg, monitor)
    assert got[1:] == line[1:]
    if cfg.scheme == "leapfrog":
        assert (got[2] is None) == (0.5 * dt * np.sqrt(cfg.resolved_mass_scalar() - sym.min()) <= 1.0 + 1e-12)
    else:
        assert len(got[1]) == (dt > dz * dz)
    if got[0] is not None:
        assert same_bits(got[0].field, np.broadcast_to(line[0].field, points))
        assert same_bits(got[0].pi, None if line[0].pi is None else np.broadcast_to(line[0].pi, points))
        assert (got[0].t, got[0].step_count) == (line[0].t, line[0].step_count)
