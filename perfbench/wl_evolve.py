"""evolve: Crank-Nicolson and leapfrog evolutions on periodic grids.

Five evolutions whose initial states are built the way the CLI builds
them (an on-axis envelope or harmonic broadcast to the grid), plus one
direct call of the periodic Laplacian.  `pde` does the work; the per-event
layers do almost none.  The unit of work is a cell-step: grid cells times
steps, summed over the evolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import Op, Tracer, require

import boostfield as bf

NAME = "evolve"
EXTENT = 8.0 * np.pi

CN_3D = dict(points=(32, 32, 32), dt=0.05, steps=20)
CN_1D = dict(points=(1024,), steps=1000)  # dt is set below dx^2, where the solver stays quiet
KGF_3D = dict(points=(64, 64, 64), dt=0.05, steps=20)
KGF_1D = dict(points=(512,), dt=0.02, steps=700, mode=-3)

NORM_DRIFT_TOL = 1e-7  # acceptance criterion 8
DISPERSION_TOL = 1e-2  # acceptance criterion 7
LAPLACIAN_TOL = 1e-9


def _cells(grid: bf.Grid) -> float:
    return float(np.prod(grid.points))


@dataclass
class Run:
    """One evolution: its initial state, solver configuration and label."""

    label: str
    state: bf.GridState
    cfg: bf.SolverConfig

    @property
    def cell_steps(self) -> float:
        return _cells(self.state.grid) * self.cfg.steps


@dataclass
class Inputs:
    cn_3d: Run
    cn_3d_potential: Run
    cn_1d: Run
    kgf_3d: Run
    kgf_1d: Run
    mode_k: float
    omega_expected: float


def _line_state(tracer: Tracer, spec: bf.FieldSpec, grid: bf.Grid, second_order: bool) -> bf.GridState:
    """Initial state as ``boostfield evolve`` builds it: a line along z, broadcast."""
    z = grid.axis(grid.dim - 1)
    if second_order:
        line = tracer.call("fields.FieldSpec.harmonic_on_axis", spec.harmonic_on_axis, 0, z, 0.0, work=z.size)
        dline = tracer.call(
            "fields.FieldSpec.harmonic_dtau_on_axis", spec.harmonic_dtau_on_axis, 0, z, 0.0, work=z.size
        )
    else:
        line = tracer.call("fields.FieldSpec.envelope_on_axis", spec.envelope_on_axis, 0, z, 0.0, work=z.size)
        dline = None
    field = np.broadcast_to(line, grid.points).copy()
    pi = None if dline is None else np.broadcast_to(dline, grid.points).copy()
    return bf.GridState(grid, field, pi)


def build(seed: int, tracer: Tracer) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    omega = rng.uniform(1.4, 2.0)
    mass = bf.MassParameters(omega, 1.0)
    moving = bf.FieldSpec(
        (
            bf.HarmonicComponent(
                omega,
                bf.GaussianProfile(
                    complex(rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2)),
                    EXTENT / 2 + rng.uniform(-1.0, 1.0),
                    rng.uniform(2.0, 3.0),
                ),
            ),
        ),
        bf.LorentzBoost(rng.uniform(0.1, 0.3)),
    )
    static = bf.FieldSpec(
        (bf.HarmonicComponent(omega, bf.GaussianProfile(1.0, EXTENT / 2, rng.uniform(2.5, 3.5))),),
        bf.LorentzBoost(0.0),
    )
    potential = tracer.call("verify.separable_potential", bf.separable_potential, static, 0)

    grid3 = bf.Grid((EXTENT,) * 3, CN_3D["points"])
    psi3 = _line_state(tracer, moving, grid3, second_order=False)

    def cn(dt, steps, potential=None):
        return bf.SolverConfig(dt=dt, steps=steps, scheme="crank_nicolson", mass=mass, potential=potential)

    grid1 = bf.Grid((EXTENT,), CN_1D["points"])
    dt1 = 0.9 * grid1.spacing[0] ** 2

    # the dispersion run: a boosted constant carrier whose wavenumber is mode
    # KGF_1D["mode"] of the ring, with beta drawn and omega0 solved for
    beta = rng.uniform(0.5, 0.7)
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    mode_k = 2.0 * np.pi * KGF_1D["mode"] / EXTENT
    omega0 = abs(mode_k) / (gamma * beta)
    carrier = bf.FieldSpec(
        (bf.HarmonicComponent(omega0, bf.ConstantProfile(complex(rng.uniform(0.8, 1.2), 0.0))),),
        bf.LorentzBoost(beta),
    )
    grid_k1 = bf.Grid((EXTENT,), KGF_1D["points"])
    grid_k3 = bf.Grid((EXTENT,) * 3, KGF_3D["points"])
    return Inputs(
        cn_3d=Run("3d", psi3, cn(CN_3D["dt"], CN_3D["steps"])),
        cn_3d_potential=Run("3d_potential", psi3, cn(CN_3D["dt"], CN_3D["steps"], potential)),
        cn_1d=Run("1d", _line_state(tracer, moving, grid1, second_order=False), cn(dt1, CN_1D["steps"])),
        kgf_3d=Run(
            "3d",
            _line_state(tracer, moving, grid_k3, second_order=True),
            bf.SolverConfig(dt=KGF_3D["dt"], steps=KGF_3D["steps"], scheme="leapfrog", mass=mass),
        ),
        kgf_1d=Run(
            "1d_monitored",
            _line_state(tracer, carrier, grid_k1, second_order=True),
            bf.SolverConfig(dt=KGF_1D["dt"], steps=KGF_1D["steps"], scheme="leapfrog", mass_scalar=omega0**2),
        ),
        mode_k=mode_k,
        omega_expected=float(np.sqrt(mode_k**2 + omega0**2)),
    )


# -- expectations the benchmark works out itself --------------------------------


def _laplacian_symbol(grid: bf.Grid) -> np.ndarray:
    """Eigenvalues -sum 4/dx^2 sin^2(k dx / 2) of the periodic second-order stencil."""
    parts = []
    for n, dx in zip(grid.points, grid.spacing):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        parts.append(-4.0 / dx**2 * np.sin(0.5 * k * dx) ** 2)
    return sum(np.meshgrid(*parts, indexing="ij", sparse=True))


def leapfrog_energy_band(state: bf.GridState, dt: float, mass_scalar: float) -> float:
    """Largest relative swing of the discrete energy that velocity Verlet allows.

    Each Fourier mode j of psi_tt = lap psi - m psi is an oscillator of
    frequency w_j.  Velocity Verlet conserves a shadow energy H_j below the
    energy the solver reports, and the reported energy swings within
    H_j * c_j^2 / (1 - c_j^2) above it, with c_j = w_j dt / 2.  Summed over
    the modes of the initial state and divided by the smallest total the
    energy can reach, that is an O(dt^2) band set by the state itself.
    """
    w2 = -_laplacian_symbol(state.grid) + mass_scalar
    c2 = 0.25 * dt * dt * w2
    psi_hat = np.fft.fftn(state.field)
    pi_hat = np.fft.fftn(state.pi)
    e = np.abs(pi_hat) ** 2 + w2 * np.abs(psi_hat) ** 2
    swing = float(np.sum(e * c2 / (1.0 - c2)))
    return swing / float(np.sum(e * (1.0 - c2)))


def _norm_drift(before: bf.Observables, after: bf.Observables) -> float:
    return abs(after.norm - before.norm) / before.norm


def make_ops(inp: Inputs) -> tuple[list[Op], float]:
    """The operations of one pass and the pass's work: cell-steps."""
    ops = []

    def schrodinger(run: Run, diag_key: str):
        grid = run.state.grid

        def go(t: Tracer):
            obs = t.wrap("pde.measure_observables", bf.measure_observables, _cells(grid), f"crank_nicolson_{grid.dim}d")
            before = obs(run.state, run.cfg)
            final = t.call(
                "pde.evolve_schrodinger", bf.evolve_schrodinger, run.state, run.cfg, work=run.cell_steps, tag=run.label
            )
            return before, obs(final, run.cfg)

        def check(out):
            drift = _norm_drift(*out)
            require(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.2e} above {NORM_DRIFT_TOL:.0e}")
            return {diag_key: drift}

        ops.append(Op(f"pde.evolve_schrodinger[{run.label}]", go, check))

    schrodinger(inp.cn_3d, "pde.evolve_schrodinger.3d.norm_drift")
    schrodinger(inp.cn_3d_potential, "pde.evolve_schrodinger.3d.norm_drift")
    schrodinger(inp.cn_1d, "pde.evolve_schrodinger.1d.norm_drift")

    k3 = inp.kgf_3d
    band3 = leapfrog_energy_band(k3.state, k3.cfg.dt, k3.cfg.resolved_mass_scalar())

    def go_kgf3(t: Tracer):
        obs = t.wrap("pde.measure_observables", bf.measure_observables, _cells(k3.state.grid), "leapfrog_3d")
        before = obs(k3.state, k3.cfg)
        final = t.call("pde.evolve_kgf", bf.evolve_kgf, k3.state, k3.cfg, work=k3.cell_steps, tag=k3.label)
        return before.energy, obs(final, k3.cfg).energy

    def check_kgf3(out):
        e0, e1 = out
        rel = abs(e1 - e0) / e0
        require(rel <= band3, f"energy moved {rel:.2e}, outside the O(dt^2) band {band3:.2e}")
        return {"pde.evolve_kgf.energy_band_rel": rel}

    ops.append(Op("pde.evolve_kgf[3d]", go_kgf3, check_kgf3))

    k1 = inp.kgf_1d
    band1 = leapfrog_energy_band(k1.state, k1.cfg.dt, k1.cfg.resolved_mass_scalar())
    n1 = k1.state.grid.points[0]
    mode_index = KGF_1D["mode"] % n1

    def go_kgf1(t: Tracer):
        obs = t.wrap("pde.measure_observables", bf.measure_observables, float(n1), "leapfrog_1d")
        energies, modes, snaps = [], [], [k1.state.copy()]

        def record(st: bf.GridState) -> None:
            energies.append(obs(st, k1.cfg).energy)
            modes.append(np.fft.fft(st.field)[mode_index] / n1)
            snaps.append(st.copy())

        energies.append(obs(k1.state, k1.cfg).energy)
        t.call(
            "pde.evolve_kgf",
            bf.evolve_kgf,
            k1.state,
            k1.cfg,
            monitor=t.wrap("bench.monitor", record),
            work=k1.cell_steps,
            tag=k1.label,
        )
        omega = t.call("pde.measure_dispersion", bf.measure_dispersion, snaps, inp.mode_k, work=n1 * len(snaps))
        return energies, modes, omega

    def check_kgf1(out):
        energies, modes, omega = out
        e = np.asarray(energies)
        band = float((e.max() - e.min()) / e.mean())
        require(band <= band1, f"energy band {band:.2e} outside the O(dt^2) band {band1:.2e}")
        require(len(modes) == k1.cfg.steps and min(abs(m) for m in modes) > 1e-12, "carrier mode lost")
        rel = abs(omega - inp.omega_expected) / inp.omega_expected
        require(rel <= DISPERSION_TOL, f"dispersion {omega:.6f} vs {inp.omega_expected:.6f}: rel {rel:.2e}")
        return {"pde.evolve_kgf.energy_band_rel": band, "pde.dispersion.rel_err": rel}

    ops.append(Op("pde.evolve_kgf[1d_monitored]", go_kgf1, check_kgf1))

    # the Laplacian of the 64^3 leapfrog state, against the stencil's Fourier symbol
    f_l, grid_l = k3.state.field, k3.state.grid
    lap_ref = np.fft.ifftn(_laplacian_symbol(grid_l) * np.fft.fftn(f_l))
    lap_scale = float(np.max(np.abs(lap_ref)))

    def go_lap(t: Tracer):
        return t.call("pde.periodic_laplacian", bf.periodic_laplacian, f_l, grid_l, work=_cells(grid_l))

    def check_lap(out):
        err = float(np.max(np.abs(out - lap_ref))) / lap_scale
        require(err <= LAPLACIAN_TOL, f"periodic_laplacian differs from its Fourier symbol by {err:.2e}")
        return {}

    ops.append(Op("pde.periodic_laplacian[64^3]", go_lap, check_lap))
    runs = (inp.cn_3d, inp.cn_3d_potential, inp.cn_1d, inp.kgf_3d, inp.kgf_1d)
    return ops, sum(r.cell_steps for r in runs)
