import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
from boostfield.pde import Observables, _check_finite, _potential_on_grid, laplacian_symbol

MASS = MassParameters(1.0, 1.0)


def cn_config(dt, steps, potential=None):
    return SolverConfig(
        dt=dt, steps=steps, scheme="crank_nicolson", mass=MASS, potential=potential
    )


def lf_config(dt, steps, m_s):
    return SolverConfig(dt=dt, steps=steps, scheme="leapfrog", mass_scalar=m_s)


# -- grids and states ----------------------------------------------------------


def test_grid_geometry():
    g = Grid((10.0,), (50,))
    assert g.dim == 1
    assert g.spacing == (0.2,)
    assert g.cell_volume == pytest.approx(0.2)
    assert_allclose(g.axis(0)[:3], [0.0, 0.2, 0.4])
    g3 = Grid((4.0, 4.0, 8.0), (8, 8, 16))
    assert g3.dim == 3
    assert g3.meshes()[0].shape == (8, 8, 16)
    assert g3.cell_volume == pytest.approx(0.125)


def test_grid_validation():
    with pytest.raises(ValueError, match="1-d or 3-d"):
        Grid((1.0, 1.0), (8, 8))
    with pytest.raises(ValueError, match="8 points"):
        Grid((1.0,), (4,))
    with pytest.raises(ValueError, match="positive"):
        Grid((-1.0,), (16,))
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
    x, y, z = g.meshes()
    psi = np.exp(-((x - 3) ** 2 + (y - 3) ** 2 + (z - 3) ** 2))
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
    x, y, z = g.meshes()
    psi = np.exp(-((x - 2) ** 2 + (y - 2) ** 2 + (z - 2) ** 2)).astype(complex)
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
    g = Grid((10.0,), (16,))
    st = GridState(g, np.zeros(16, dtype=complex), np.zeros(16, dtype=complex))
    obs = measure_observables(st, lf_config(0.01, 1, 1.0))
    assert obs.norm == 0.0
    assert obs.centroid == (0.0,)
    assert obs.width == (0.0,)


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


# -- the spectral core -------------------------------------------------------------


def random_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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


@settings(max_examples=60, deadline=None)
@given(grid=st.one_of(grids_1d, grids_3d), seed=st.integers(0, 2**32 - 1))
def test_symbol_is_the_stencil_on_fourier_modes(grid, seed):
    rng = np.random.default_rng(seed)
    sym = laplacian_symbol(grid)
    assert sym.shape == grid.points and np.all(sym <= 0.0)
    idx = tuple(int(rng.integers(n)) for n in grid.points)
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
def test_stencil_is_the_roll_expression_bit_for_bit(grid, seed):
    f = random_field(np.random.default_rng(seed), grid.points)
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
    psi = random_field(rng, grid.points)
    pot = POTENTIALS[kind]
    coords = grid.meshes() if three_d else (0.0, 0.0, grid.axis(0))
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
    [((256,), 0.1), ((12, 12, 12), 0.1), ((12, 12, 12), 0.0)],
    ids=["points0", "points1", "points2_z_only"],
)
def test_cn_stiff_varying_potential_converges_and_conserves_norm(points, across):
    # dt = 1000 dx^2: 1-d and a 3-d potential of z alone take the z-line LU; across
    # x, the mean-potential Cayley preconditioner keeps BiCGStab short
    g = Grid((20.0,) * len(points), points)
    z = g.meshes()[-1]
    dx = g.spacing[0]
    psi = np.exp(-((z - 10.0) ** 2) / 2.0) * np.exp(1.5j * z)
    pot = lambda x, y, zz: 0.5 * (zz - 10.0) ** 2 + across * np.cos(2.0 * np.pi * x / 20.0)
    cfg = cn_config(1000.0 * dx * dx, 20, potential=pot)
    st_ = GridState(g, psi)
    with pytest.warns(UserWarning, match="accuracy"):
        fin = evolve_schrodinger(st_, cfg)
    n0, n1 = measure_observables(st_, cfg).norm, measure_observables(fin, cfg).norm
    assert np.all(np.isfinite(fin.field))
    assert abs(n1 - n0) / n0 < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    grid=st.one_of(grids_1d, grids_3d),
    m_s=st.floats(0.0, 4.0),
    courant=st.floats(0.05, 1.0),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_kgf_is_a_plain_verlet_loop_bit_for_bit(grid, m_s, courant, steps, seed):
    rng = np.random.default_rng(seed)
    psi0, pi0 = random_field(rng, grid.points), random_field(rng, grid.points)
    dt = 2.0 * courant / np.sqrt(m_s - laplacian_symbol(grid).min())
    st_ = GridState(grid, psi0.copy(), pi0.copy())
    fin = evolve_kgf(st_, lf_config(dt, steps, m_s), monitor=lambda s: None)
    assert np.array_equal(st_.field, psi0) and np.array_equal(st_.pi, pi0)  # input untouched
    psi, pi = psi0, pi0
    accel = roll_laplacian(psi, grid) - m_s * psi
    for _ in range(steps):
        pi = pi + 0.5 * dt * accel
        psi = psi + dt * pi
        accel = roll_laplacian(psi, grid) - m_s * psi
        pi = pi + 0.5 * dt * accel
    assert np.array_equal(fin.field, psi) and np.array_equal(fin.pi, pi)


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
    psi0, pi0 = random_field(rng, grid.points), random_field(rng, grid.points)
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


@pytest.mark.parametrize("equation", ["kgf", "cn_free", "cn_potential", "cn_potential_3d"])
def test_nan_written_by_a_monitor_stops_the_run(equation):
    g = Grid((8.0,) * 3, (8, 8, 32)) if equation.endswith("3d") else Grid((8.0,), (32,))
    z = g.meshes()[-1]
    psi = np.exp(-((z - 4.0) ** 2)).astype(complex)
    if equation == "kgf":
        run, cfg = evolve_kgf, lf_config(0.05, 10, 1.0)
        st_ = GridState(g, psi, np.zeros_like(psi))
    else:
        pot = None if equation == "cn_free" else (lambda x, y, zz: np.cos(zz))
        run, cfg, st_ = evolve_schrodinger, cn_config(0.01, 10, potential=pot), GridState(g, psi)
    seen = []

    def poison(s):
        seen.append(s.step_count)
        if s.step_count == 3:
            s.field[5] = np.nan

    with pytest.raises(SolverError, match="non-finite field values at step [34]"):
        run(st_, cfg, monitor=poison)
    assert seen == [1, 2, 3]


def test_finite_check_is_exact():
    g = Grid((8.0,), (16,))
    big = np.full(16, 1e308, dtype=complex)  # finite values whose sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and silently: the sum's overflow is not reported
        _check_finite(GridState(g, big, big.copy()))
        for where in ("field", "pi"):
            for bad in (np.nan, np.inf, complex(0.0, -np.inf), (np.inf, -np.inf)):
                st_ = GridState(g, np.ones(16, dtype=complex), np.ones(16, dtype=complex))
                getattr(st_, where)[7:7 + np.size(bad)] = bad
                with pytest.raises(SolverError, match="non-finite"):
                    _check_finite(st_)


def test_z_only_potential_monitored_and_unmonitored_runs_agree():
    # unmonitored steps stay in transverse Fourier space; a monitor sees psi after each
    g = Grid((6.0, 7.0, 8.0), (8, 10, 16))
    x, y, z = g.meshes()
    psi = np.exp(-((z - 4.0) ** 2) + 0.5j * x) * (1.0 + 0.2 * np.cos(2.0 * np.pi * y / 7.0))
    cfg = cn_config(0.05, 12, potential=POTENTIALS["z_only"])
    free = evolve_schrodinger(GridState(g, psi), cfg)
    seen = []
    watched = evolve_schrodinger(GridState(g, psi), cfg, monitor=lambda s_: seen.append(s_.step_count))
    assert seen == list(range(1, 13))
    assert np.linalg.norm(watched.field - free.field) < 1e-13 * np.linalg.norm(free.field)


def test_1d_varying_potential_is_the_sparse_lu_bit_for_bit():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    g = Grid((20.0,), (256,))
    z, dx, n, dt = g.axis(0), g.spacing[0], 256, 0.9 * g.spacing[0] ** 2
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
)
def test_observables_are_the_roll_formula_bit_for_bit(grid, scheme, m_s, seed):
    rng = np.random.default_rng(seed)
    st_ = GridState(grid, random_field(rng, grid.points), random_field(rng, grid.points))
    if scheme == "leapfrog":
        cfg = lf_config(0.01, 1, m_s)
    else:
        cfg = cn_config(0.01, 1, potential=lambda x, y, z: m_s * np.cos(z))
    assert measure_observables(st_, cfg) == reference_observables(st_, cfg)
