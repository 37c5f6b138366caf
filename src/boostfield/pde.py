"""Finite-difference evolution on periodic grids.

Two integrators, second order in space and time, on uniform periodic grids
in 1 or 3 dimensions.  The periodic second-order stencil is diagonal in
Fourier space; one symbol, ``laplacian_symbol``, serves both.  Both abort on
the first non-finite value rather than letting NaNs propagate.

* Crank-Nicolson for the first-order-in-time equation

      -i hbar c psi_t + (hbar^2 / 2m) lap psi = (hbar^2 u / 2m) psi

  i.e. psi_t = +i H psi with the real symmetric H = (hbar/2mc)(-lap + u).
  The Cayley form (1 - i dt H / 2) psi+ = (1 + i dt H / 2) psi is exactly
  unitary in the discrete L2 norm, so norm drift measures round-off, not
  physics.  A constant potential makes a step a Cayley multiplier in Fourier
  space; one of z alone makes H one periodic z-line per transverse Fourier
  mode, all solved by one prefactorized sparse LU; one that varies across x
  or y takes a BiCGStab to 1e-12, preconditioned by the Cayley denominator
  at the mean potential.

* Velocity-Verlet leapfrog for the second-order equation

      psi_tt = lap psi - m_s psi

  storing (psi, pi = psi_t) at whole steps.  The scheme is symplectic:
  the discrete energy oscillates within an O(dt^2) band with no secular
  drift.  Stability requires dt * sqrt(max(-symbol) + m_s) <= 2; at m_s = 0
  in 1-d that is the unit Courant number, where every Fourier mode advances
  with exact phase speed and a full periodic transit returns the state to
  round-off.  A monitored run steps the stencil in real space, where real
  and imaginary parts never mix; with no monitor each Fourier mode takes the
  N-th power of its 2x2 step matrix (repeated squaring) in one go.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .fields import MassParameters


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; axis i covers [0, extents[i]) with points[i] cells."""

    extents: tuple[float, ...]
    points: tuple[int, ...]
    max_points: int = 1 << 22

    def __post_init__(self) -> None:
        ext = tuple(float(L) for L in self.extents)
        pts = tuple(int(n) for n in self.points)
        if len(ext) != len(pts) or len(ext) not in (1, 3):
            raise ValueError("grid must be 1-d or 3-d with matching extents/points")
        if any(not np.isfinite(L) or L <= 0 for L in ext):
            raise ValueError(f"extents must be positive, got {ext}")
        if any(n < 8 for n in pts):
            raise ValueError(f"need at least 8 points per axis, got {pts}")
        total = int(np.prod(pts))
        if total > self.max_points:
            raise ValueError(f"{total} points exceed the cap {self.max_points}")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis(self, i: int) -> np.ndarray:
        return self.spacing[i] * np.arange(self.points[i])

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis(i) for i in range(self.dim)), indexing="ij"))


@dataclass
class GridState:
    """Field (and for second-order equations its time derivative) on a grid."""

    grid: Grid
    field: np.ndarray
    pi: np.ndarray | None = None
    t: float = 0.0
    step_count: int = 0

    def __post_init__(self) -> None:
        f = np.asarray(self.field, dtype=complex)
        if f.shape != self.grid.points:
            raise ValueError(f"field shape {f.shape} != grid {self.grid.points}")
        self.field = f
        if self.pi is not None:
            p = np.asarray(self.pi, dtype=complex)
            if p.shape != self.grid.points:
                raise ValueError(f"pi shape {p.shape} != grid {self.grid.points}")
            self.pi = p

    def copy(self) -> "GridState":
        return GridState(
            self.grid,
            self.field.copy(),
            None if self.pi is None else self.pi.copy(),
            self.t,
            self.step_count,
        )


@dataclass(frozen=True)
class SolverConfig:
    """Time step, step count and the physics of one evolution run."""

    dt: float
    steps: int
    scheme: Literal["crank_nicolson", "leapfrog"]
    mass: MassParameters | None = None
    mass_scalar: float | None = None
    potential: Callable | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps!r}")
        if self.scheme not in ("crank_nicolson", "leapfrog"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.mass_scalar is not None and (
            not np.isfinite(self.mass_scalar) or self.mass_scalar < 0
        ):
            raise ValueError(f"mass scalar must be finite and >= 0, got {self.mass_scalar!r}")

    def resolved_mass_scalar(self) -> float:
        if self.mass_scalar is not None:
            return float(self.mass_scalar)
        if self.mass is not None:
            return float((self.mass.m * self.mass.c / self.mass.hbar) ** 2)
        raise ValueError("config carries neither mass_scalar nor mass parameters")


def laplacian_symbol(grid: Grid, folded: bool = False) -> np.ndarray:
    """Eigenvalues -sum_i (4 / dx_i^2) sin^2(k_i dx_i / 2) of the stencil, in fftn order."""
    parts = [  # indices j and n - j agree bit for bit, so ``folded`` keeps the first n // 2 + 1
        -4.0 / dx**2 * np.sin(np.pi * np.fft.fftfreq(n)[: n // 2 + 1 if folded else n]) ** 2
        for n, dx in zip(grid.points, grid.spacing)
    ]
    return sum(np.meshgrid(*parts, indexing="ij", sparse=True))


def _shifts(ax: int) -> tuple[tuple[slice, ...], ...]:
    """Slices i+1 and i along a periodic axis, then the wrap-around pair 0 and n-1."""
    pre = (slice(None),) * ax
    return pre + (slice(1, None),), pre + (slice(None, -1),), pre + (slice(0, 1),), pre + (slice(-1, None),)


def _laplacian_into(f: np.ndarray, grid: Grid, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # (f[i+1] - 2 f[i] + f[i-1]) / dx^2, summed over the axes in order, built from
    # slices in place (tmp is scratch).  numpy divides a complex by a real through
    # the real's reciprocal, so multiplying by 1 / dx^2 rounds the same, faster
    for ax, dx in enumerate(grid.spacing):
        term, (head, tail, first, last) = (tmp if ax else out), _shifts(ax)
        np.multiply(2.0, f, out=term)
        np.subtract(f[head], term[tail], out=term[tail])
        np.subtract(f[first], term[last], out=term[last])
        np.add(term[head], f[tail], out=term[head])
        np.add(term[first], f[last], out=term[first])
        np.multiply(term, 1.0 / (dx * dx), out=term)
        if ax:
            out += tmp
    return out


def periodic_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.empty_like(f)
    return _laplacian_into(f, grid, out, np.empty_like(f) if grid.dim > 1 else out)


def _potential_on_grid(grid: Grid, potential: Callable | None) -> np.ndarray:
    if potential is None:
        return np.zeros(grid.points)
    if grid.dim == 1:
        z = grid.axis(0)
        vals = potential(np.zeros_like(z), np.zeros_like(z), z)
    else:
        x, y, z = grid.meshes()
        vals = potential(x, y, z)
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grid.points).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential evaluated to non-finite values on the grid")
    return vals


def _check_finite(state: GridState) -> None:
    # a finite sum proves every term finite; scan the elements only when it is not
    for a in (state.field, state.pi):
        if a is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # the scan below decides
            total = a.sum()
        if not np.isfinite(total) and not np.isfinite(a).all():
            raise SolverError(f"non-finite field values at step {state.step_count}")


def _periodic_lap_matrix(n: int, dx: float):
    import scipy.sparse as sp

    m = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1], shape=(n, n), format="csr")
    return m / (dx * dx)


def evolve_schrodinger(
    initial: GridState, cfg: SolverConfig, monitor: Callable | None = None
) -> GridState:
    """Crank-Nicolson evolution of psi_t = i (hbar/2mc)(-lap + u) psi.

    Constant u (none, a plane wave's) takes the Cayley step, u of z alone (any 1-d u,
    a static profile's) the z-line LU, u varying in x or y (library callers only)
    BiCGStab.  Returns a fresh evolved state; the input is left untouched.  ``monitor``
    is called with the live working state after every step, whose arrays the
    next step overwrites (copy them if you keep them).
    """
    if cfg.scheme != "crank_nicolson":
        raise ValueError("evolve_schrodinger requires the crank_nicolson scheme")
    if cfg.mass is None:
        raise ValueError("Schrodinger evolution needs mass parameters")
    grid = initial.grid
    dx_max = max(grid.spacing)
    if cfg.dt > dx_max * dx_max:
        warnings.warn(
            f"dt={cfg.dt} above dx^2={dx_max**2}: unconditionally stable but "
            "accuracy degrades",
            stacklevel=2,
        )
    coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
    half = 0.5j * cfg.dt
    u = _potential_on_grid(grid, cfg.potential)
    sym = laplacian_symbol(grid)
    # i dt H / 2 at the mean potential in Fourier space: exact if u is constant
    ih = half * coef * (u.mean() - sym)
    state = initial.copy()
    _check_finite(state)

    # each branch advances psi's Fourier transform over ``axes`` by one step
    if np.all(u == u.flat[0]):
        axes, cayley = tuple(range(grid.dim)), (1.0 + ih) / (1.0 - ih)
        advance = lambda psi: np.multiply(psi, cayley, out=psi)

    elif np.all(u == u[(slice(1),) * (grid.dim - 1)]):  # u varies along z only; always in 1-d
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        # in the transverse Fourier modes H is one periodic z-line per (kx, ky), shifted by the
        # transverse symbol.  SuperLU's panels and relaxed supernodes gain nothing on such sparse
        # lines but workspace, so 3-d goes without; 1-d keeps the defaults, and so its old bits
        axes, shape, nz = tuple(range(grid.dim - 1)), grid.points, grid.points[-1]
        hz = coef * (-_periodic_lap_matrix(nz, grid.spacing[-1]) + sp.diags(u.reshape(-1, nz)[0]))
        H = sp.kron(sp.identity(u.size // nz), hz) - sp.diags(coef * np.repeat(sym[..., 0], nz))
        eye = sp.identity(u.size, dtype=complex, format="csr")
        lu = spla.splu((eye - half * H).tocsc(), **({"panel_size": 1, "relax": 1} if axes else {}))
        B = (eye + half * H).tocsr()
        advance = lambda psi: lu.solve(B @ psi.ravel()).reshape(shape)

    else:
        import scipy.sparse.linalg as spla

        axes, shape, n = (), grid.points, u.size
        lap, tmp, inverse = np.empty_like(state.field), np.empty_like(state.field), 1.0 / (1.0 - ih)
        dv = (half * coef * (u - u.mean())).ravel()

        def solve_mean(v: np.ndarray) -> np.ndarray:  # (1 - i dt H / 2)^-1 at the mean potential
            w = np.fft.fftn(v.reshape(shape), out=np.empty(shape, dtype=complex))
            return np.fft.ifftn(np.multiply(w, inverse, out=w), out=w).ravel()

        # right preconditioning: (1 - i dt H / 2) solve_mean(y) = y - dv solve_mean(y), no stencil
        A = spla.LinearOperator((n, n), matvec=lambda y: y - dv * solve_mean(y), dtype=complex)

        def advance(psi: np.ndarray) -> np.ndarray:
            b = (psi + half * coef * (u * psi - _laplacian_into(psi, grid, lap, tmp))).ravel()
            y, info = spla.bicgstab(A, b, x0=b, rtol=1e-12, atol=0.0, maxiter=1000)
            if info != 0:
                raise SolverError(f"implicit solve did not converge (info={info})")
            return solve_mean(y).reshape(shape)

    spectral = monitor is None and cfg.steps > 0 and bool(axes)  # unobserved steps stay transformed
    if spectral:
        np.fft.fftn(state.field, axes=axes, out=state.field)
    for _ in range(cfg.steps):
        if spectral or not axes:
            state.field = advance(state.field)
        else:  # a monitor sees psi after every step
            psi = np.fft.fftn(state.field, axes=axes, out=state.field)
            state.field = np.fft.ifftn(advance(psi), axes=axes, out=psi)
        state.t += cfg.dt
        state.step_count += 1
        _check_finite(state)
        if monitor is not None:
            monitor(state)
            _check_finite(state)  # before a solve spends its iterations on NaNs
    if spectral:
        np.fft.ifftn(state.field, axes=axes, out=state.field)
    return state


def _verlet_power(w2: np.ndarray, dt: float, n: int) -> list[np.ndarray]:
    """Entries [a, b, c, d] of M^n, M the velocity-Verlet step of (psi, pi) for psi_tt = -w2 psi.

    Binary powering of all four entries of M - I, (I + P)(I + Q) = I + (P + Q + PQ), which keeps
    the digits that a rounded diagonal 1 - dt^2 w2 / 2 takes from a slow mode's phase every step.
    """
    mul = lambda p, q: [p[i + j] + q[i + j] + p[i] * q[j] + p[i + 1] * q[j + 2] for i in (0, 2) for j in (0, 1)]
    h = -0.5 * dt * dt * w2
    out = base = [h, np.full_like(w2, dt), -dt * w2 * (1.0 + 0.5 * h), h]
    for bit in bin(n)[3:]:  # left to right: square, and step once more where the bit is set
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return [1.0 + out[0], out[1], out[2], 1.0 + out[3]]


def _leapfrog(
    initial: GridState, cfg: SolverConfig, m_s: float, monitor: Callable | None
) -> GridState:
    grid = initial.grid
    if initial.pi is None:
        raise ValueError("second-order evolution needs an initial pi = psi_t")
    w2 = m_s - laplacian_symbol(grid, folded=True)  # each mode's squared frequency
    courant = 0.5 * cfg.dt * np.sqrt(w2.max())  # velocity Verlet
    if courant > 1.0 + 1e-12:
        raise SolverError(
            f"Courant violation: dt*omega_max/2 = {courant:.6g} > 1 "
            f"(dt={cfg.dt}, dx={grid.spacing}, m_s={m_s})"
        )
    state = initial.copy()
    _check_finite(state)
    psi, pi = state.field, state.pi
    if monitor is None and cfg.steps > 0:  # nobody sees the steps in between: M^N per mode
        m = _verlet_power(w2, cfg.dt, cfg.steps)
        fold = [np.minimum(np.arange(n), n - np.arange(n)) for n in grid.points]
        slabs = [slice(None)] if grid.dim == 1 else [slice(i, i + 1) for i in range(grid.points[0])]
        psi, pi = (np.fft.fftn(f, out=f) for f in (psi, pi))
        for at in slabs:  # slab by slab along axis 0: no full-grid temporaries
            a, b, c, d = (e[np.ix_(fold[0][at], *fold[1:])] for e in m)
            p, q = psi[at], pi[at]
            psi[at], pi[at] = a * p + b * q, c * p + d * q
        psi, pi = (np.fft.ifftn(f, out=f) for f in (psi, pi))
        for _ in range(cfg.steps):  # the loop's own sum, so t stays bit-equal
            state.t += cfg.dt
        state.step_count += cfg.steps
        _check_finite(state)
        return state

    accel, tmp = np.empty_like(psi), np.empty_like(psi)

    def force() -> None:  # accel = lap psi - m_s psi
        _laplacian_into(psi, grid, accel, tmp)
        np.subtract(accel, np.multiply(m_s, psi, out=tmp), out=accel)

    force()
    for _ in range(cfg.steps):
        pi += np.multiply(0.5 * cfg.dt, accel, out=tmp)
        psi += np.multiply(cfg.dt, pi, out=tmp)
        force()
        pi += np.multiply(0.5 * cfg.dt, accel, out=tmp)
        state.t += cfg.dt
        state.step_count += 1
        _check_finite(state)
        monitor(state)  # only a monitored run reaches a step here
        psi, pi = state.field, state.pi
    return state


def evolve_kgf(
    initial: GridState, cfg: SolverConfig, monitor: Callable | None = None
) -> GridState:
    """Leapfrog for psi_tt = lap psi - m_s psi; ``monitor`` as for CN; without one, M^N per Fourier mode."""
    if cfg.scheme != "leapfrog":
        raise ValueError("evolve_kgf requires the leapfrog scheme")
    return _leapfrog(initial, cfg, cfg.resolved_mass_scalar(), monitor)


def evolve_wave(
    initial: GridState, cfg: SolverConfig, monitor: Callable | None = None
) -> GridState:
    """Leapfrog evolution of psi_tt = lap psi, as above; a nonzero resolved mass scalar is refused."""
    if cfg.scheme != "leapfrog":
        raise ValueError("evolve_wave requires the leapfrog scheme")
    if (cfg.mass_scalar, cfg.mass) != (None, None) and cfg.resolved_mass_scalar() != 0.0:
        raise ValueError("wave evolution requires a zero mass scalar")
    return _leapfrog(initial, cfg, 0.0, monitor)


@dataclass(frozen=True)
class Observables:
    norm: float
    energy: float
    centroid: tuple[float, ...]
    width: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "norm": self.norm,
            "energy": self.energy,
            "centroid": list(self.centroid),
            "width": list(self.width),
        }


def measure_observables(state: GridState, cfg: SolverConfig) -> Observables:
    """Norm, scheme-consistent energy, and |psi|^2 centroid/width per axis."""
    grid = state.grid
    dv = grid.cell_volume
    density = np.abs(state.field)
    np.square(density, out=density)
    weight = float(density.sum()) * dv
    norm = float(np.sqrt(weight))

    if cfg.scheme == "crank_nicolson":
        if cfg.mass is None:
            raise ValueError("Schrodinger observables need mass parameters")
        coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
        u = _potential_on_grid(grid, cfg.potential)
        hpsi = coef * (-periodic_laplacian(state.field, grid) + u * state.field)
        energy = float(np.real(np.vdot(state.field, hpsi)) * dv)
    else:
        if state.pi is None:
            raise ValueError("second-order observables need pi")
        m_s = cfg.resolved_mass_scalar() if (cfg.mass or cfg.mass_scalar is not None) else 0.0
        # |pi|^2 + m_s |psi|^2 + sum over axes of |forward difference|^2, in place
        f, grad, e = state.field, np.empty_like(state.field), np.abs(state.pi)
        np.square(e, out=e)
        term = m_s * density
        e += term
        for ax, dx in enumerate(grid.spacing):
            head, tail, first, last = _shifts(ax)
            np.subtract(f[head], f[tail], out=grad[tail])
            np.subtract(f[first], f[last], out=grad[last])
            e += np.square(np.abs(np.divide(grad, dx, out=grad), out=term), out=term)
        energy = float(0.5 * e.sum() * dv)

    centroid, width = [], []
    for ax in range(grid.dim):
        coords = grid.axis(ax)
        other = tuple(i for i in range(grid.dim) if i != ax)
        marginal = density.sum(axis=other) if other else density
        if weight == 0.0:
            centroid.append(0.0)
            width.append(0.0)
            continue
        w = marginal / marginal.sum()
        mean = float(np.sum(coords * w))
        var = float(np.sum((coords - mean) ** 2 * w))
        centroid.append(mean)
        width.append(float(np.sqrt(max(var, 0.0))))
    return Observables(norm, energy, tuple(centroid), tuple(width))


def measure_dispersion(states: list[GridState], k: float) -> float:
    """Oscillation frequency of the spatial mode exp(i k z) over a run.

    Fits the unwrapped phase of the mode's Fourier coefficient against time
    and returns |d phase / dt|.  The states must come from a 1-d evolution
    sampled at distinct times.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots to fit a rotation rate")
    grid = states[0].grid
    if grid.dim != 1:
        raise ValueError("dispersion measurement expects 1-d states")
    n, L = grid.points[0], grid.extents[0]
    mode = k * L / (2.0 * np.pi)
    m = int(round(mode))
    if abs(mode - m) > 1e-9 * max(1.0, abs(mode)):
        raise ValueError(f"wavenumber {k} is not commensurate with extent {L}")
    coeffs = np.array([np.fft.fft(s.field)[m % n] / n for s in states])
    if np.any(np.abs(coeffs) < 1e-12):
        raise ValueError("mode amplitude below 1e-12: signal too weak to fit")
    times = np.array([s.t for s in states])
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshots must be ordered in time")
    return _rotation_rate(times, coeffs)


def _rotation_rate(times: np.ndarray, coeffs: np.ndarray) -> float:
    """|d phase / dt| of a mode's coefficients: a line fitted to the unwrapped phase."""
    return float(abs(np.polyfit(times, np.unwrap(np.angle(coeffs)), 1)[0]))
