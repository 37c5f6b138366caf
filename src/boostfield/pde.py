"""Finite-difference evolution on periodic grids.

Two integrators, second order in space and time, on uniform periodic grids
in 1 or 3 dimensions.  The periodic second-order stencil is diagonal in
Fourier space; one symbol serves both.  Both abort on a non-finite value,
checked after every step of a monitored run; an unobserved Fourier or
eigenbasis CN run, or leapfrog run, checks only its input and result, as each
mode's one multiplier is finite (for CN of modulus 1).  One loop serves both
integrators, and its monitor observes: it sees the lines read-only.

A 3-d state is one z-line repeated across x and y, as every profile is a
function of xi = gamma (z - beta tau) alone: ``GridState`` refuses any other,
keeps the line and shows it read-only.  Every run, watched or not, steps the
line, whose x and y differences vanish, and the line decides the run: the
Courant bound reads its symbol, the CN warning its dz^2, the CN branch its nz.
A 3-d run is the run of the 1-d grid along z, bit for bit.  The 3-d grid
decides only the refusal of a potential that varies across x or y.

* Crank-Nicolson for the first-order-in-time equation

      -i hbar c psi_t + (hbar^2 / 2m) lap psi = (hbar^2 u / 2m) psi

  i.e. psi_t = +i H psi with the real symmetric H = (hbar/2mc)(-lap + u).
  The Cayley form (1 - i dt H / 2) psi+ = (1 + i dt H / 2) psi is exactly
  unitary in the discrete L2 norm, so norm drift measures round-off, not
  physics.  The potential depends on z alone, as the static potential
  u = lap q / q of a profile q(z) does.  A constant u makes a step a Cayley
  multiplier in Fourier space.  Any other makes H a real symmetric z-line
  matrix: a step is a Cayley multiplier in its eigenbasis up to nz = 192 in a
  watched run and nz = 512 in an unwatched one, and a prefactorized sparse LU
  solves it on longer lines.

* Velocity-Verlet leapfrog for the second-order equation

      psi_tt = lap psi - m_s psi

  storing (psi, pi = psi_t) at whole steps.  The scheme is symplectic:
  the discrete energy oscillates within an O(dt^2) band with no secular
  drift.  Stability requires dt * sqrt(max(-symbol) + m_s) <= 2; at m_s = 0
  that is the unit Courant number, where every Fourier mode advances
  with exact phase speed and a full periodic transit returns the state to
  round-off.  A monitored run steps the stencil in real space, where real
  and imaginary parts never mix, by a plan: the step's ufunc calls over
  fixed views, built once per run and replayed each step.  psi and pi live
  in one buffer, so one sum checks both for finite values; psi carries a
  ghost cell at each end, copied after each drift, and the stencil is four
  calls over shifted views.  Multiplies by a real scalar run on float views.
  With no monitor each Fourier mode takes the N-th power of its 2x2 step
  matrix (repeated squaring) in one go.

``measure_observables`` reads the line in eight whole-array calls, the width
in two passes: the mean, then the spread about it.  One kinetic sum
K = sum of |psi_{i+1} - psi_i|^2 / dz^2 serves both energies: the leapfrog's
(|pi|^2 + m_s |psi|^2 + K) / 2, and by summation by parts the CN
<psi, H psi> = coef (K + u . |psi|^2).  ``measure_dispersion`` reads one
Fourier mode of each state's line as a dot with that mode's phasor, built once
per call (an FFT per state above 2^21 points), and divides them all by n at once.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple

import numpy as np

from .fields import MassParameters, _check_spacing
from .kinematics import _read_field, _real


class SolverError(RuntimeError):
    pass


_MAX_POINTS = 1 << 22
# the longest z-line whose z-varying CN run steps in the line's eigenbasis, in a watched run (two nz^2
# products a step) and in an unwatched one (one eigh); a longer line takes the sparse LU
_EIGH_MAX_WATCHED, _EIGH_MAX = 192, 512


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; axis i covers [0, extents[i]) with points[i] cells."""

    extents: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        ext = tuple(_real("extents", L) for L in self.extents)
        pts = tuple(_read_field("int", "points", n) for n in self.points)
        if len(ext) != len(pts) or len(ext) not in (1, 3):
            raise ValueError("grid must be 1-d or 3-d with matching extents/points")
        if any(n < 8 for n in pts):
            raise ValueError(f"need at least 8 points per axis, got {pts}")
        for L, n in zip(ext, pts):  # the stencil's 1 / dx^2 is built once per run
            _check_spacing(L / n, f"grid ({L!r} over {n} points)")
        total = int(np.prod(pts))
        if total > _MAX_POINTS:
            raise ValueError(f"{total} points exceed the cap {_MAX_POINTS}")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.points)

    @functools.cached_property  # read on every step: computed once per grid
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extents, self.points))

    @functools.cached_property  # read on every observation: computed once per grid
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @functools.cached_property  # read on every observation: computed once per grid, read-only
    def coords(self) -> tuple[np.ndarray, ...]:
        axes = tuple(dx * np.arange(n) for dx, n in zip(self.spacing, self.points))
        for a in axes:
            a.flags.writeable = False
        return axes

    @functools.cached_property  # read on every observation: computed once per grid, read-only
    def _line_weights(self) -> tuple[np.ndarray, float]:
        """Rows 1 and z, each value twice, to weigh a z-line's squared real and imaginary parts; and the
        volume one line cell stands for, nx ny cells in 3-d."""
        w = np.repeat([np.ones(self.points[-1]), self.coords[-1]], 2, axis=1)
        w.flags.writeable = False
        return w, self.cell_volume * math.prod(self.points[:-1])

    def axis(self, i: int) -> np.ndarray:
        return self.coords[i].copy()


@dataclass
class GridState:
    """Field (and for second-order equations its time derivative) on a grid.

    On a 3-d grid every (x, y) line of each array must equal the (0, 0) line bit for bit (a
    -0.0 is not a +0.0), else ValueError naming the first that differs, in the constructor
    and at every later assignment.  The state keeps that line and shows it as a read-only
    view of the grid's shape.
    """

    grid: Grid
    field: np.ndarray
    pi: np.ndarray | None = None
    t: float = 0.0
    step_count: int = 0

    def __setattr__(self, name: str, value) -> None:
        if name in ("field", "pi") and (value is not None or name == "field"):
            value = _show(self.grid, _grid_line(self.grid, np.asarray(value, dtype=complex), name))
        object.__setattr__(self, name, value)

    def copy(self) -> "GridState":
        """A state with copies of this one's arrays, a 3-d state's line alone, which need no check anew."""
        new = object.__new__(GridState)
        (d := new.__dict__).update(self.__dict__)
        for name in ("field", "pi"):
            if (a := d[name]) is not None:
                d[name] = a.copy() if a.ndim == 1 else _show(self.grid, a[0, 0].copy())
        return new


def _grid_line(grid: Grid, a: np.ndarray, name: str) -> np.ndarray:
    """The line of ``a`` (float or complex) on ``grid``: ``a`` itself in 1-d; in 3-d its (0, 0) z-line, a
    copy unless every line is that line's memory.  ValueError unless ``a`` has the grid's shape and, in 3-d,
    every (x, y) line equals line (0, 0) bit for bit; read slab by slab, no scratch beyond a slab."""
    if a.shape != grid.points:
        raise ValueError(f"{name} shape {a.shape} != grid {grid.points}")
    if grid.dim == 1 or a.strides[:2] == (0, 0):
        return a if grid.dim == 1 else a[0, 0]
    bits = lambda s: np.ascontiguousarray(s).view(np.int64)
    line = bits(a[0, 0])
    for i, s in enumerate(a):
        same = (bits(s) == line).all(axis=-1)
        if not same.all():
            raise ValueError(f"{name} is not uniform across x and y: line ({i}, {same.argmin()}) differs from (0, 0)")
    return a[0, 0].copy()


class _Watched(GridState):
    def __setattr__(self, name: str, value) -> None:  # the state a monitor sees refuses any assignment
        raise ValueError(f"a monitor only observes the run: it cannot set the state's {name}")


def _line(a: np.ndarray | None) -> np.ndarray | None:
    """The line a state's array shows: a 1-d array itself, a 3-d view's (0, 0) z-line."""
    return a if a is None or a.ndim == 1 else a[0, 0]


def _show(grid: Grid, line: np.ndarray | None) -> np.ndarray | None:
    """``line`` as a state on ``grid`` holds it: itself in 1-d, a read-only view of the grid's shape in 3-d."""
    return line if line is None or grid.dim == 1 else np.broadcast_to(line, grid.points)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, step count and the physics of one evolution run.

    ``potential``, u(x, y, z) called on coordinate arrays that broadcast to the grid, must depend on z alone.
    """

    dt: float
    steps: int
    scheme: Literal["crank_nicolson", "leapfrog"]
    mass: MassParameters | None = None
    mass_scalar: float | None = None
    potential: Callable | None = None
    _potential_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", dt := _real("dt", self.dt))
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive, got {dt!r}")
        object.__setattr__(self, "steps", _read_field("int", "steps", self.steps))  # 3.0 reads as 3
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps!r}")
        if self.scheme not in ("crank_nicolson", "leapfrog"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.mass_scalar is not None:
            object.__setattr__(self, "mass_scalar", m_s := _real("mass scalar", self.mass_scalar))
            if not (math.isfinite(m_s) and m_s >= 0):
                raise ValueError(f"mass scalar must be finite and >= 0, got {m_s!r}")

    def resolved_mass_scalar(self) -> float:
        if self.mass_scalar is not None:
            return self.mass_scalar
        if self.mass is not None:
            return self.mass.omega**2
        raise ValueError("config carries neither mass_scalar nor mass parameters")

    def potential_on(self, grid: Grid) -> np.ndarray:
        """u on ``grid``'s z-line, read-only, once per config and grid; ValueError if u varies in x or y."""
        if self._potential_memo[0] != grid:
            u = _potential_on_grid(grid, self.potential)
            u.flags.writeable = False
            object.__setattr__(self, "_potential_memo", (grid, u))
        return self._potential_memo[1]


def _axis_symbol(n: int, dx: float) -> np.ndarray:
    """Eigenvalues -(4 / dx^2) sin^2(pi j / n) of one axis's stencil, in fft order; j and n - j agree bit
    for bit.  The grid's symbol is the sum over its axes, so its kx = ky = 0 line is the z axis's, the
    zero at j = 0 a +0.0 as in a sum started from 0."""
    return 0.0 + -4.0 / dx**2 * np.sin(np.pi * np.fft.fftfreq(n)) ** 2


def _floats(a: np.ndarray) -> np.ndarray:
    return a.view(float)  # a real scalar times each part of each element, in one call


def _stencil(ext: np.ndarray, dz: float, out: np.ndarray) -> list[tuple]:
    """The ufunc calls (fn, a, b, out) that write the stencil of the line ext[1:-1] into ``out``: first
    ext[0] takes ext[n], line[n - 1], and ext[n + 1] takes ext[1], line[0]; then ((line[i+1] - 2 line) +
    line[i-1]) * (1 / dz^2) over shifted views, which numpy rounds as the division."""
    n = out.size
    return [
        (np.copyto, ext[:: n + 1], ext[n:0 : 1 - n], "no"),
        (np.multiply, 2.0, _floats(ext[1:-1]), _floats(out)),
        (np.subtract, ext[2:], out, out),
        (np.add, out, ext[:-2], out),
        (np.multiply, _floats(out), 1.0 / (dz * dz), _floats(out)),
    ]


def _run(calls: list[tuple]) -> None:
    for fn, a, b, c in calls:  # a ufunc's two inputs and out, or np.copyto's dst, src and casting
        fn(a, b, c)


def periodic_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """The periodic stencil of ``f``, a fresh array of the grid's shape.  A 3-d ``f`` must be uniform
    across x and y, as a ``GridState``'s arrays are (ValueError otherwise); its stencil is its line's."""
    f = np.asarray(f)
    f = np.asarray(f, dtype=np.result_type(f.dtype, float))
    line = _grid_line(grid, f, "field")
    ext = np.pad(line, 1, mode="wrap")  # the line between its ghost cells
    _run(_stencil(ext, grid.spacing[-1], out := np.empty_like(line)))
    return out if grid.dim == 1 else np.broadcast_to(out, grid.points).copy()


def _potential_on_grid(grid: Grid, potential: Callable | None) -> np.ndarray:
    if potential is None:
        return np.zeros(grid.points[-1])
    if grid.dim == 1:
        z = grid.axis(0)
        vals = potential(np.zeros_like(z), np.zeros_like(z), z)
    else:
        vals = potential(*np.meshgrid(*grid.coords, indexing="ij", sparse=True))
    u = np.asarray(vals, dtype=float)
    vals = np.broadcast_to(u, grid.points)
    if not np.all(np.isfinite(u)):
        raise ValueError("potential evaluated to non-finite values on the grid")
    spread = [np.ptp(vals, axis=ax).max() for ax in range(grid.dim - 1)]
    across = " and ".join(f"{a} by up to {s:.3g}" for a, s in zip("xy", spread) if s)
    if across:
        raise ValueError(f"potential varies across {across}; u must depend on z alone")
    return vals[(0,) * (grid.dim - 1)].copy()


def _check_finite(state: GridState, *arrays: np.ndarray) -> None:
    # a finite sum of |f|^2 proves every element finite, and BLAS raises no floating-point
    # warnings when it overflows; scan the elements only when it is not finite.  ``arrays``,
    # the state's psi and pi lines by default, may be one buffer that holds both
    for f in arrays or (_line(state.field), _line(state.pi)):
        if f is not None and not math.isfinite(np.vdot(f, f).real) and not np.isfinite(f).all():
            raise SolverError(f"non-finite field values at step {state.step_count}")


def evolve_schrodinger(
    initial: GridState, cfg: SolverConfig, monitor: Callable | None = None
) -> GridState:
    """Crank-Nicolson evolution of psi_t = i (hbar/2mc)(-lap + u) psi.

    u is of z alone (``SolverConfig.potential_on``).  Constant u (none, a plane wave's)
    takes the Cayley step in Fourier space; any other (a static profile's) takes it in
    the z-line eigenbasis for nz <= 192 in a watched run and nz <= 512 in an unwatched
    one, and on a longer line the z-line LU.  Every choice reads the z-line alone, so a
    3-d run is its line's 1-d run; a dt above dz^2 warns (stable, but less accurate).
    Unobserved, the Fourier and eigenbasis branches take N steps as one phase
    e^{2iN arctan x} per mode: the Cayley multiplier (1 + ix) / (1 - ix), x = dt H / 2, is
    e^{2i arctan x}, so the phase is that of one step of tan(N arctan x).  Returns a fresh
    evolved state; the input is left untouched.
    ``monitor`` observes: after each step it sees the lines as read-only views, which the next
    step overwrites (copy to keep); a write into them or any assignment to its state raises.
    """
    if cfg.scheme != "crank_nicolson":
        raise ValueError("evolve_schrodinger requires the crank_nicolson scheme")
    if cfg.mass is None:
        raise ValueError("Schrodinger evolution needs mass parameters")
    grid = initial.grid
    nz, dz = grid.points[-1], grid.spacing[-1]
    if cfg.dt > dz * dz:
        warnings.warn(f"dt={cfg.dt} above dx^2={dz**2}: unconditionally stable but accuracy degrades", stacklevel=2)
    coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
    u = cfg.potential_on(grid)
    _check_finite(initial)
    psi = _line(initial.field).copy()

    # every branch steps psi in place.  Where H is diagonal in a basis, x is dt H / 2 per mode, and a step
    # maps psi to its coefficients c there (forward), multiplies them by the Cayley multiplier and maps back
    if np.all(u == u[0]):  # Fourier modes, psi's FFT taken in place
        x, c = 0.5 * cfg.dt * coef * (u[0] - _axis_symbol(nz, dz)), psi
        forward, inverse = functools.partial(np.fft.fftn, psi, out=psi), functools.partial(np.fft.ifftn, psi, out=psi)
    elif nz <= (_EIGH_MAX if monitor is None else _EIGH_MAX_WATCHED):  # the line's eigenbasis, on numpy alone
        eye = np.eye(nz)
        lap_z = (np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)) / (dz * dz)
        lam, V = np.linalg.eigh(coef * (np.diag(u) - lap_z))
        x, c = 0.5 * cfg.dt * lam, np.empty_like(psi)
        pairs, c_pairs = (a.view(float).reshape(nz, 2) for a in (psi, c))  # V is real: one real matmul each way
        forward = functools.partial(np.matmul, V.T, pairs, out=c_pairs)
        inverse = functools.partial(np.matmul, V, c_pairs, out=pairs)
    else:  # a longer line: one sparse LU, as V grows as nz^2 (32 GB at nz = 65536)
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        lap_z = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - nz, -1, 0, 1, nz - 1], shape=(nz, nz), format="csr")
        H = coef * (-lap_z / (dz * dz) + sp.diags(u))
        eye = sp.identity(nz, dtype=complex, format="csr")
        lu, B = spla.splu((eye - 0.5j * cfg.dt * H).tocsc()), (eye + 0.5j * cfg.dt * H).tocsr()
        return _stepped(initial, cfg, lambda: np.copyto(psi, lu.solve(B @ psi)), psi, None, psi, monitor)

    # N steps that nobody sees are one of tan(N arctan x): numpy's float tan is vectorized, its complex exp is not
    spectral = monitor is None and cfg.steps > 0
    x = np.tan(cfg.steps * np.arctan(x)) if spectral else x
    cayley = (1.0 + 1j * x) / (1.0 - 1j * x)

    def step():
        forward()
        np.multiply(c, cayley, out=c)
        inverse()

    if spectral:
        step()
        return _unobserved_steps_taken(initial, cfg, psi)
    return _stepped(initial, cfg, step, psi, None, psi, monitor)


def _stepped(initial: GridState, cfg: SolverConfig, step: Callable, psi, pi, checked, monitor) -> GridState:
    """The state of lines psi and pi after cfg.steps calls of ``step``, which advances them in place, from
    ``initial``'s t and step count.  After each step t and step_count advance, ``checked`` (psi, or one buffer
    that holds psi and pi) is checked finite, and ``monitor``, if any, sees the lines read-only."""
    grid, dt = initial.grid, cfg.dt
    shown = [None if a is None else np.broadcast_to(a, grid.points) for a in (psi, pi)]  # read-only, in 1-d too
    watched = object.__new__(_Watched)
    live = watched.__dict__  # the loop writes t and step_count past the refusing __setattr__
    live.update(grid=grid, field=shown[0], pi=shown[1], t=initial.t, step_count=initial.step_count)
    for _ in range(cfg.steps):
        step()
        live["t"] += dt
        live["step_count"] += 1
        _check_finite(watched, checked)
        if monitor is not None:
            monitor(watched)
    return GridState(grid, _show(grid, psi), _show(grid, pi), live["t"], live["step_count"])


def _unobserved_steps_taken(initial: GridState, cfg: SolverConfig, psi: np.ndarray, pi=None) -> GridState:
    """The state of lines psi and pi, cfg.steps steps taken at once after ``initial``, its values checked."""
    grid, t = initial.grid, initial.t
    for _ in range(cfg.steps):  # the loop's own sum, so t stays bit-equal
        t += cfg.dt
    state = GridState(grid, _show(grid, psi), _show(grid, pi), t, initial.step_count + cfg.steps)
    _check_finite(state)
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
    n, dz = grid.points[-1], grid.spacing[-1]
    sym = _axis_symbol(n, dz)  # the line's: its largest squared frequency m_s - symbol bounds dt
    courant = 0.5 * cfg.dt * np.sqrt(m_s - sym.min())  # velocity Verlet
    if courant > 1.0 + 1e-12:
        raise SolverError(f"Courant violation: dt*omega_max/2 = {courant:.6g} > 1 (dt={cfg.dt}, dz={dz}, m_s={m_s})")
    _check_finite(initial)
    if monitor is None and cfg.steps > 0:  # nobody sees the steps in between: M^N per mode
        fold = np.minimum(np.arange(n), n - np.arange(n))  # modes j and n - j share their frequency
        a, b, c, d = (e[fold] for e in _verlet_power(m_s - sym[: n // 2 + 1], cfg.dt, cfg.steps))
        p, q = (np.fft.fftn(_line(f)) for f in (initial.field, initial.pi))
        p, q = a * p + b * q, c * p + d * q
        return _unobserved_steps_taken(initial, cfg, np.fft.ifftn(p, out=p), np.fft.ifftn(q, out=q))

    # psi and pi in one buffer, so one dot of its float view checks both; psi sits between its two ghost cells
    buf = np.empty(2 * n + 2, dtype=complex)
    ext, pi = buf[: n + 2], buf[n + 2 :]
    psi = ext[1:-1]
    psi[...], pi[...] = _line(initial.field), _line(initial.pi)
    accel, tmp = np.empty_like(psi), np.empty_like(psi)
    # the force, then its half kick dt / 2 accel, left in tmp for this step's last kick and the next one's first
    force = _stencil(ext, dz, accel)
    force += [(np.multiply, m_s, _floats(psi), _floats(tmp)), (np.subtract, accel, tmp, accel)]
    force += [(np.multiply, 0.5 * cfg.dt, _floats(accel), _floats(tmp))]
    kick = [(np.add, pi, tmp, pi)]
    step = kick + [(np.multiply, cfg.dt, _floats(pi), _floats(tmp)), (np.add, psi, tmp, psi)] + force + kick
    _run(force)
    return _stepped(initial, cfg, functools.partial(_run, step), psi, pi, _floats(buf), monitor)


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


class Observables(NamedTuple):
    norm: float
    energy: float
    centroid: tuple[float, ...]
    width: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"norm": self.norm, "energy": self.energy, "centroid": list(self.centroid), "width": list(self.width)}


def measure_observables(state: GridState, cfg: SolverConfig) -> Observables:
    """Norm, scheme-consistent energy, and |psi|^2 centroid/width per axis, read off the z-line.

    From s, the squares of psi's real and imaginary parts, in this order: one product of s with the
    grid's weights gives S = sum |psi|^2 and Z = sum z |psi|^2; then K = sum |psi_{i+1} - psi_i|^2 / dz^2,
    wrapping at the end; then sum |pi|^2 (leapfrog) or sum u |psi|^2 (CN); then the width in two passes,
    the mean Z / S and the spread sum (z - mean)^2 |psi|^2 / S about it.  On a periodic grid
    <psi, -lap psi> = K, so the energies are (sum |pi|^2 + m_s S + K) dv / 2 and coef (K + sum u |psi|^2) dv.
    A 3-d line cell stands for nx ny cells, and the x and y centroid and width are the box's own.
    """
    grid = state.grid
    if cfg.scheme == "crank_nicolson" and cfg.mass is None:
        raise ValueError("Schrodinger observables need mass parameters")
    if cfg.scheme == "leapfrog" and state.pi is None:
        raise ValueError("second-order observables need pi")
    f = np.ascontiguousarray(_line(state.field))  # a C-ordered line, as the solvers keep, is read in place
    (weights, dv), dz, ff = grid._line_weights, grid.spacing[-1], f.view(float)
    sq, g, wrap = np.square(ff), np.subtract(ff[2:], ff[:-2]), f.item(0) - f.item(-1)
    total, first = weights.dot(sq).tolist()
    kinetic = (float(g.dot(g)) + wrap.real**2 + wrap.imag**2) / (dz * dz)
    if cfg.scheme == "leapfrog":
        pf = np.ascontiguousarray(_line(state.pi)).view(float)
        m_s = cfg.resolved_mass_scalar() if (cfg.mass or cfg.mass_scalar is not None) else 0.0
        energy = 0.5 * (float(pf.dot(pf)) + m_s * total + kinetic) * dv
    else:  # u is of z alone
        coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
        energy = coef * (kinetic + sum(cfg.potential_on(grid).dot(sq.reshape(-1, 2)).tolist())) * dv
    centroid = width = (0.0,) * grid.dim
    if total:
        r = np.subtract(weights[1], mean := first / total)
        centroid, width = (mean,), (math.sqrt(float((r * sq).dot(r)) / total),)
        if grid.dim == 3:  # the line repeated across the box: x and y each weigh their points alike
            box = lambda stat: tuple(float(stat(a)) for a in grid.coords[:2])
            centroid, width = box(np.mean) + centroid, box(np.std) + width
    return tuple.__new__(Observables, (math.sqrt(total * dv), energy, centroid, width))


def measure_dispersion(states: list[GridState], k: float) -> float:
    """Oscillation frequency of the spatial mode exp(i k z) over a run.

    Fits the unwrapped phase of the mode's Fourier coefficient on each state's z-line
    against time and returns |d phase / dt|.  The states must come from one evolution,
    1-d or 3-d, sampled at distinct times; a 3-d run measures as its line's 1-d run.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots to fit a rotation rate")
    project, n = _mode_projector(states[0].grid, [k]), states[0].grid.points[-1]
    coeffs = project([_line(s.field) for s in states])[0] / n  # divided at once, as each coefficient alone rounds
    return _rotation_rate(np.array([s.t for s in states]), coeffs)


def _mode_projector(grid: Grid, ks: list[float]) -> Callable[[list[np.ndarray]], np.ndarray]:
    """lines -> n fft(f)[m] for the FFT mode m of each wavenumber in ``ks`` (rows) and each line f (columns),
    set up once per call or run; the caller divides by n.  Up to log2 n modes whose phasors fit in 32 MB are
    projections on exp(-2 pi i (m j mod n) / n), j < n, as m dots then cost less than one FFT (2-vCPU Xeon:
    11 to 100 dots, 512 to 2^20 points); more are one FFT of each line."""
    n, index = grid.points[-1], [_mode_index(grid, k) for k in ks]
    if len(index) > min(math.log2(n), (1 << 21) / n):
        return lambda lines: np.array([np.fft.fft(f)[index] for f in lines]).T
    phasors = [np.exp(-2j * np.pi * (m * np.arange(n) % n) / n) for m in index]
    return lambda lines: np.array([[np.dot(f, p) for f in lines] for p in phasors])


def _mode_index(grid: Grid, k: float) -> int:
    """The FFT index of exp(i k z) on the grid's z-line; k commensurate with its extent, |m| <= n / 2."""
    n, L = grid.points[-1], grid.extents[-1]
    mode = k * L / (2.0 * np.pi)
    m = int(round(mode))
    if abs(mode - m) > 1e-9 * max(1.0, abs(mode)):
        raise ValueError(f"wavenumber {k} is not commensurate with extent {L}")
    if 2 * abs(m) > n:
        raise ValueError(f"mode {m} aliases on {n} points: need |m| <= {n // 2}")
    return m % n


def _rotation_rate(times: np.ndarray, coeffs: np.ndarray) -> float:
    """|d phase / dt| of a mode's coefficients: a line fitted to the unwrapped phase."""
    if np.any(np.abs(coeffs) < 1e-12):
        raise ValueError("mode amplitude below 1e-12: signal too weak to fit")
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshots must be ordered in time")
    return float(abs(np.polyfit(times, np.unwrap(np.angle(coeffs)), 1)[0]))
