"""Finite-difference evolution on periodic grids.

Two integrators, second order in space and time, on uniform periodic grids
in 1 or 3 dimensions.  The periodic second-order stencil is diagonal in
Fourier space; one symbol, ``laplacian_symbol``, serves both.  Both abort on a
non-finite value, checked after every step of a monitored run; an unobserved
Fourier or eigenbasis CN run, or leapfrog run, checks only its input and result,
as each mode's one multiplier is finite (for CN of modulus 1).

* Crank-Nicolson for the first-order-in-time equation

      -i hbar c psi_t + (hbar^2 / 2m) lap psi = (hbar^2 u / 2m) psi

  i.e. psi_t = +i H psi with the real symmetric H = (hbar/2mc)(-lap + u).
  The Cayley form (1 - i dt H / 2) psi+ = (1 + i dt H / 2) psi is exactly
  unitary in the discrete L2 norm, so norm drift measures round-off, not
  physics.  The potential depends on z alone, as the static potential
  u = lap q / q of a profile q(z) does: on a 3-d grid a u that varies across
  x or y is refused.  A constant u makes a step a Cayley multiplier in
  Fourier space.  Any other makes H one real symmetric z-line matrix per
  transverse Fourier mode, shifted by that mode's transverse symbol: on a 3-d
  grid with nz <= nx ny one eigendecomposition of the line diagonalizes them
  all, and a step is again a Cayley multiplier, in that eigenbasis; in 1-d
  and on longer lines one prefactorized sparse LU solves them.

* Velocity-Verlet leapfrog for the second-order equation

      psi_tt = lap psi - m_s psi

  storing (psi, pi = psi_t) at whole steps.  The scheme is symplectic:
  the discrete energy oscillates within an O(dt^2) band with no secular
  drift.  Stability requires dt * sqrt(max(-symbol) + m_s) <= 2; at m_s = 0
  in 1-d that is the unit Courant number, where every Fourier mode advances
  with exact phase speed and a full periodic transit returns the state to
  round-off.  A monitored run steps the stencil in real space, where real
  and imaginary parts never mix, by a plan: the step's ufunc calls over
  fixed views, built once per run and replayed each step.  psi and pi live
  in one buffer, so one sum checks both for finite values.  On a line psi
  carries a ghost cell at each end, copied after each drift, and the stencil
  is four calls over shifted views; in 3-d it is ``_stencil``'s blocks.
  Multiplies by a real scalar run on float views, and a monitor's rebound
  arrays are copied into the buffer.  With no monitor each Fourier mode takes
  the N-th power of its 2x2 step matrix (repeated squaring) in one go.

A 3-d state uniform across x and y, every (x, y) line of psi and pi equal to the (0, 0)
line bit for bit (``_uniform``), is that line repeated.  An unmonitored run of one steps the
line alone, in the branch its grid selects, after the grid's dt warning, Courant refusal, input
check and potential, and broadcasts the result; ``measure_observables`` reads it as a line.

``measure_observables`` reads a line, 1-d or a uniform 3-d state's, in about ten
whole-array calls, and a 3-d grid slab by slab along axis 0, keeping no scratch
larger than a slab; both paths then share the energy, centroid and width
arithmetic, each width in two passes: the mean, then the spread about it.  One
kinetic sum K = sum over axes of |psi_{i+1} - psi_i|^2 / dx^2 serves both
energies: the leapfrog's (|pi|^2 + m_s |psi|^2 + K) / 2, and by summation by
parts the CN <psi, H psi> = coef (K + u . m_z), m_z being |psi|^2 summed over
x and y.
``measure_dispersion`` reads one Fourier mode of each state as a projection on
that mode's phasor, built once per call (an FFT per state above 2^21 points),
not as an FFT of the whole run.
"""

from __future__ import annotations

import copy
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from .fields import MassParameters, _check_spacing


class SolverError(RuntimeError):
    pass


_MAX_POINTS = 1 << 22


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid; axis i covers [0, extents[i]) with points[i] cells."""

    extents: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        ext = tuple(float(L) for L in self.extents)
        pts = tuple(int(n) for n in self.points)
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

    def axis(self, i: int) -> np.ndarray:
        return self.coords[i].copy()

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.coords, indexing="ij"))


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
        return GridState(self.grid, self.field.copy(), None if self.pi is None else self.pi.copy(), self.t, self.step_count)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, step count and the physics of one evolution run.

    ``potential``, u(x, y, z) called on coordinate arrays, must depend on z alone.
    """

    dt: float
    steps: int
    scheme: Literal["crank_nicolson", "leapfrog"]
    mass: MassParameters | None = None
    mass_scalar: float | None = None
    potential: Callable | None = None
    _potential_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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

    def potential_on(self, grid: Grid) -> np.ndarray:
        """u on ``grid``'s z-line, read-only, once per config and grid; ValueError if u varies in x or y."""
        if self._potential_memo[0] != grid:
            u = _potential_on_grid(grid, self.potential)
            u.flags.writeable = False
            object.__setattr__(self, "_potential_memo", (grid, u))
        return self._potential_memo[1]


def laplacian_symbol(grid: Grid, folded: bool = False) -> np.ndarray:
    """Eigenvalues -sum_i (4 / dx_i^2) sin^2(k_i dx_i / 2) of the stencil, in fftn order."""
    parts = [  # indices j and n - j agree bit for bit, so ``folded`` keeps the first n // 2 + 1
        -4.0 / dx**2 * np.sin(np.pi * np.fft.fftfreq(n)[: n // 2 + 1 if folded else n]) ** 2
        for n, dx in zip(grid.points, grid.spacing)
    ]
    return sum(np.meshgrid(*parts, indexing="ij", sparse=True))


@functools.lru_cache(maxsize=3)
def _shifts(ax: int) -> tuple[tuple[slice, ...], ...]:
    """Slices i+1 and i along a periodic axis, then the wrap-around pair 0 and n-1."""
    pre = (slice(None),) * ax
    return pre + (slice(1, None),), pre + (slice(None, -1),), pre + (slice(0, 1),), pre + (slice(-1, None),)


def _stencil(f: np.ndarray, grid: Grid, out: np.ndarray) -> list[tuple]:
    # the ufunc calls (fn, a, b, out), views built once, writing (next - 2 f + previous) * (1 / dx^2), which
    # numpy rounds as the division, summed over the axes; a 256 KB block of slabs along axis 0 at a time stays
    # in cache (64^3, 2-vCPU Xeon: 4.6 ms; whole arrays 6.5, slabs 6.3).  A block's axis-0 neighbours are
    # slices of f: in 1-d f[j] is a scalar, copied when the list is built, where a replay must read f anew
    inv, n0 = [1.0 / (dx * dx) for dx in grid.spacing], len(f)
    size = max(1, (1 << 18) * n0 // f.nbytes)
    tmp = np.empty_like(out[:size]) if grid.dim > 1 else None
    calls = []
    for i0 in range(0, n0, size):
        i1 = min(i0 + size, n0)
        s, o = f[i0:i1], out[i0:i1]
        for ax in range(grid.dim):
            head, tail, first, last = _shifts(ax)
            term = o if ax == 0 else tmp[: i1 - i0]
            nxt, prv = (f[i1 % n0 : i1 % n0 + 1], f[i0 - 1 : i0 or None]) if ax == 0 else (s[first], s[last])
            calls += [
                (np.multiply, 2.0, s, term),
                (np.subtract, s[head], term[tail], term[tail]),
                (np.subtract, nxt, term[last], term[last]),
                (np.add, term[head], s[tail], term[head]),
                (np.add, term[first], prv, term[first]),
                (np.multiply, term, inv[ax], term),
            ] + ([(np.add, o, term, o)] if ax else [])
    return calls


def _run(calls: list[tuple]) -> None:
    for fn, a, b, c in calls:  # a ufunc's two inputs and out, or np.copyto's dst, src and casting
        fn(a, b, c)


def periodic_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    _run(_stencil(f, grid, out := np.empty_like(f)))
    return out


def _potential_on_grid(grid: Grid, potential: Callable | None) -> np.ndarray:
    if potential is None:
        return np.zeros(grid.points[-1])
    if grid.dim == 1:
        z = grid.axis(0)
        vals = potential(np.zeros_like(z), np.zeros_like(z), z)
    else:
        vals = potential(*grid.meshes())
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grid.points)
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential evaluated to non-finite values on the grid")
    spread = [np.ptp(vals, axis=ax).max() for ax in range(grid.dim - 1)]
    across = " and ".join(f"{a} by up to {s:.3g}" for a, s in zip("xy", spread) if s)
    if across:
        raise ValueError(f"potential varies across {across}; u must depend on z alone")
    return vals[(0,) * (grid.dim - 1)].copy()


def _uniform(*arrays: np.ndarray | None) -> bool:
    """True if every array given is 3-d and each of its (x, y) lines equals its (0, 0) line bit for bit, so
    a -0.0 line is not a +0.0 one.  Read slab by slab, up to the first slab that differs; no scratch beyond a slab."""
    bits = lambda a: np.ascontiguousarray(a).view(np.int64)
    return all(a.ndim == 3 and all((bits(s) == bits(a[0, 0])).all() for s in a) for a in arrays if a is not None)


def _working_copy(initial: GridState, cfg: SolverConfig, monitor: Callable | None, symbol: np.ndarray):
    """``initial`` checked finite, then the state a run steps and the part of ``symbol`` it steps with: a copy of
    ``initial``, or, unmonitored and uniform across x and y (``_uniform``), a copy of its (0, 0) z-line alone, arrays
    and symbol shaped (1, 1, n)."""
    _check_finite(initial)
    if monitor is not None or cfg.steps == 0 or not _uniform(initial.field, initial.pi):
        return initial.copy(), symbol
    line = copy.copy(initial)  # the constructor refuses arrays of another shape than the grid's
    line.field, line.pi = (None if a is None else a[:1, :1].copy() for a in (initial.field, initial.pi))
    return line, symbol[:1, :1]


def _spread(state: GridState) -> GridState:
    """``state`` on its whole grid: a z-line from ``_working_copy`` broadcast into fresh arrays."""
    if state.field.shape == state.grid.points:
        return state
    full = lambda a: None if a is None else np.broadcast_to(a, state.grid.points).copy()
    return GridState(state.grid, full(state.field), full(state.pi), state.t, state.step_count)


def _check_finite(state: GridState, *arrays: np.ndarray) -> None:
    # a finite sum of |f|^2 proves every element finite, and BLAS raises no floating-point
    # warnings when it overflows; scan the elements only when it is not finite.  ``arrays``,
    # the state's psi and pi by default, may be one buffer that holds both
    for f in arrays or (state.field, state.pi):
        if f is not None and not math.isfinite(np.vdot(f, f).real) and not np.isfinite(f).all():
            raise SolverError(f"non-finite field values at step {state.step_count}")


def _periodic_lap_matrix(n: int, dx: float):
    import scipy.sparse as sp

    m = sp.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1], shape=(n, n), format="csr")
    return m / (dx * dx)


def _ffts(axes: tuple[int, ...]) -> tuple[Callable, Callable]:
    """FFT and inverse FFT over ``axes``, in place; the identity over no axes."""
    if not axes:
        return (lambda f: f), (lambda f: f)
    return (lambda f: np.fft.fftn(f, axes=axes, out=f)), (lambda f: np.fft.ifftn(f, axes=axes, out=f))


def evolve_schrodinger(
    initial: GridState, cfg: SolverConfig, monitor: Callable | None = None
) -> GridState:
    """Crank-Nicolson evolution of psi_t = i (hbar/2mc)(-lap + u) psi.

    u is of z alone (``SolverConfig.potential_on``).  Constant u (none, a plane wave's)
    takes the Cayley step in Fourier space; any other (a static profile's) takes it in
    the z-line eigenbasis on a 3-d grid with nz <= nx ny, and on a longer line or in 1-d
    the z-line LU.  Unobserved, the Fourier and eigenbasis branches take N steps as one phase
    e^{2iN arctan x} per mode: the Cayley multiplier (1 + ix) / (1 - ix), x = dt H / 2, is
    e^{2i arctan x}, so the phase is that of one step of tan(N arctan x).  Returns a fresh
    evolved state; the input is left untouched.
    ``monitor`` is called with the live working state after every step, whose arrays
    the next step overwrites (copy them if you keep them).
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
    u = cfg.potential_on(grid)
    state, sym = _working_copy(initial, cfg, monitor, laplacian_symbol(grid))

    # each branch maps psi to the basis it steps in (forward), advances one step there, and
    # maps back (inverse); where H is diagonal in that basis, x is dt H / 2 per mode
    nz, x = grid.points[-1], None
    if np.all(u == u[0]):
        x, (forward, inverse) = 0.5 * cfg.dt * coef * (u[0] - sym), _ffts(tuple(range(grid.dim)))
    elif grid.dim == 3 and nz <= grid.points[0] * grid.points[1]:
        # in each transverse Fourier mode (kx, ky) H is one real symmetric z-line matrix Hz,
        # shifted by -coef times the transverse symbol, so Hz = V diag(lam) V^T diagonalizes
        # them all.  With nz <= nx ny, eigh costs no more than one basis change and V holds no
        # more numbers than one field
        eye, dz = np.eye(nz), grid.spacing[-1]
        lap_z = (np.roll(eye, 1, axis=1) - 2.0 * eye + np.roll(eye, -1, axis=1)) / (dz * dz)
        lam, V = np.linalg.eigh(coef * (np.diag(u) - lap_z))
        x, (fft_xy, ifft_xy) = 0.5 * cfg.dt * (lam - coef * sym[..., :1]), _ffts((0, 1))
        psi, coeffs = state.field, np.empty_like(state.field)

        def forward(f: np.ndarray) -> np.ndarray:
            np.matmul(fft_xy(f).reshape(-1, nz), V, out=coeffs.reshape(-1, nz))
            return coeffs

        def inverse(c: np.ndarray) -> np.ndarray:
            np.matmul(c.reshape(-1, nz), V.T, out=psi.reshape(-1, nz))
            return ifft_xy(psi)

    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        # 1-d, and 3-d lines longer than nx ny: the same z-lines as above, solved by one sparse
        # LU.  A basis change costs O(nz) per point, a sparse solve O(1), so past nz ~ nx ny the
        # eigenbasis stops paying: timed on 2 CPUs, a monitored run's two changes per step
        # overtake the LU at nz of 1 to 4 nx ny, an unmonitored run's eigh at 4 to 8 nx ny, and
        # V grows as nz^2 (32 GB at 8 x 8 x 65536).  SuperLU's panels and relaxed
        # supernodes gain nothing on such sparse lines but workspace, so 3-d goes without;
        # 1-d keeps the defaults, and so its old bits
        axes, shape, size = tuple(range(grid.dim - 1)), state.field.shape, state.field.size
        hz = coef * (-_periodic_lap_matrix(nz, grid.spacing[-1]) + sp.diags(u))
        H = sp.kron(sp.identity(size // nz), hz) - sp.diags(coef * np.repeat(sym[..., 0], nz))
        eye = sp.identity(size, dtype=complex, format="csr")
        lu = spla.splu((eye - half * H).tocsc(), **({"panel_size": 1, "relax": 1} if axes else {}))
        B = (eye + half * H).tocsr()
        forward, inverse = _ffts(axes)
        advance = lambda c: lu.solve(B @ c.ravel()).reshape(shape)

    spectral = monitor is None and cfg.steps > 0  # unobserved steps stay in the stepping basis
    if x is not None:  # N steps that nobody sees are one of tan(N arctan x): numpy's float tan is
        x = np.tan(cfg.steps * np.arctan(x)) if spectral else x  # vectorized, its complex exp is not
        cayley = (1.0 + 1j * x) / (1.0 - 1j * x)
        advance = lambda c: np.multiply(c, cayley, out=c)
        if spectral:
            state.field = inverse(advance(forward(state.field)))
            return _unobserved_steps_taken(state, cfg)
    if spectral:
        state.field = forward(state.field)
    for _ in range(cfg.steps):
        # a monitor sees psi after every step
        state.field = advance(state.field) if spectral else inverse(advance(forward(state.field)))
        state.t += cfg.dt
        state.step_count += 1
        _check_finite(state)
        if monitor is not None:
            monitor(state)
            _check_finite(state)  # the monitor may have written into the live state
    if spectral:
        state.field = inverse(state.field)
    return _spread(state)


def _unobserved_steps_taken(state: GridState, cfg: SolverConfig) -> GridState:
    """``state`` after cfg.steps steps taken at once: its clock advanced, its values checked, a line spread."""
    for _ in range(cfg.steps):  # the loop's own sum, so t stays bit-equal
        state.t += cfg.dt
    state.step_count += cfg.steps
    _check_finite(state)
    return _spread(state)


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
    state, w2 = _working_copy(initial, cfg, monitor, w2)
    psi, pi = state.field, state.pi
    if monitor is None and cfg.steps > 0:  # nobody sees the steps in between: M^N per mode
        m = _verlet_power(w2, cfg.dt, cfg.steps)
        fold = [np.minimum(np.arange(n), n - np.arange(n)) for n in psi.shape]
        for ax in range(grid.dim > 1, grid.dim):  # unfold all but axis 0 of a 3-d grid once
            m = [e.take(fold[ax], axis=ax) for e in m]
        psi, pi = (np.fft.fftn(f, out=f) for f in (psi, pi))
        s1, s2 = np.empty((2,) + psi.shape[grid.dim > 1:], dtype=complex)
        for i, j in [(..., ...)] if grid.dim == 1 else enumerate(fold[0]):  # slab by slab, in place
            (a, b, c, d), p, q = (e[j] for e in m), psi[i], pi[i]
            np.add(np.multiply(a, p, out=s1), np.multiply(b, q, out=s2), out=s1)  # a p + b q
            np.add(np.multiply(d, q, out=q), np.multiply(c, p, out=s2), out=q)  # d q + c p, as c p + d q
            p[...] = s1
        psi, pi = (np.fft.ifftn(f, out=f) for f in (psi, pi))
        return _unobserved_steps_taken(state, cfg)

    # psi and pi in one buffer, so one vdot checks both.  A line's psi sits between two ghost cells, copied
    # after each drift: ext[0] takes ext[n], psi[n - 1], and ext[n + 1] takes ext[1], psi[0]
    n, gh = psi.size, int(grid.dim == 1)  # ghost cells at each end: one on a line
    buf = np.empty(2 * (n + gh), dtype=complex)
    ext = buf[: n + 2 * gh]
    psi, pi = ext[gh : n + gh].reshape(psi.shape), buf[n + 2 * gh :].reshape(psi.shape)
    psi[...], pi[...] = state.field, state.pi
    state.field, state.pi = psi, pi
    accel, tmp = np.empty_like(psi), np.empty_like(psi)
    floats = lambda a: a.view(float)  # a real scalar times each part of each element, in one call
    if gh:  # (psi[i+1] - 2 psi) + psi[i-1], times 1 / dx^2, as _stencil rounds it, over shifted views
        ghosts, inv = [(np.copyto, ext[:: n + 1], ext[n:0:1 - n], "no")], 1.0 / (grid.spacing[0] * grid.spacing[0])
        lap = [(np.multiply, 2.0, floats(psi), floats(accel)), (np.subtract, ext[2:], accel, accel)]
        lap += [(np.add, accel, ext[:-2], accel), (np.multiply, floats(accel), inv, floats(accel))]
    else:
        ghosts, lap = [], _stencil(psi, grid, accel)
    # the force, then its half kick dt / 2 accel, left in tmp for this step's last kick and the next one's first
    force = ghosts + lap + [(np.multiply, m_s, floats(psi), floats(tmp)), (np.subtract, accel, tmp, accel)]
    force += [(np.multiply, 0.5 * cfg.dt, floats(accel), floats(tmp))]
    kick = [(np.add, pi, tmp, pi)]
    step = kick + [(np.multiply, cfg.dt, floats(pi), floats(tmp)), (np.add, psi, tmp, psi)] + force + kick
    _run(force)
    for _ in range(cfg.steps):
        _run(step)
        state.t += cfg.dt
        state.step_count += 1
        _check_finite(state, buf)
        monitor(state)  # only a monitored run reaches a step here
        if state.field is not psi or state.pi is not pi:  # rebound: the next step starts from the new values
            psi[...], pi[...] = state.field, state.pi
            state.field, state.pi = psi, pi
    _check_finite(state, buf)  # a step checks what the monitor wrote before it; this checks the last call
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
    if cfg.scheme == "crank_nicolson" and cfg.mass is None:
        raise ValueError("Schrodinger observables need mass parameters")
    if cfg.scheme == "leapfrog" and state.pi is None:
        raise ValueError("second-order observables need pi")
    f = np.ascontiguousarray(state.field)  # a C-ordered field, as the solvers return, is read in place
    pi = np.ascontiguousarray(state.pi) if cfg.scheme == "leapfrog" else None
    # kinetic: sum |psi_{i+1} - psi_i|^2 / dx^2 over each axis, wrapping at the end; marginals: |psi|^2 per axis
    copies = f.size // grid.points[-1]
    if copies == 1 or _uniform(f, pi):  # one line, in whole-array calls: a 1-d grid, or a 3-d one's (0, 0) line
        if copies > 1:
            f, pi = (None if a is None else a.reshape(copies, -1)[0] for a in (f, pi))
        sq, g, wrap = np.square(f.view(float)), np.subtract(f[1:], f[:-1]), f.item(0) - f.item(-1)
        total, marginals, dz = float(sq.sum()), (sq[0::2] + sq[1::2],), grid.spacing[-1]
        kinetic = (np.vdot(g, g).real + wrap.real**2 + wrap.imag**2) / (dz * dz)
        pi_sq = 0.0 if pi is None else np.vdot(pi, pi).real
        if copies > 1:  # the line copied n0 n1 times, none differing from the next across x or y
            (n0, n1, _), line = grid.points, total
            total, marginals = copies * line, (np.full(n0, n1 * line), np.full(n1, n0 * line), copies * marginals[0])
            kinetic, pi_sq = copies * kinetic, copies * pi_sq
    else:  # slab by slab along axis 0, keeping no scratch larger than a slab
        n0, n1, n2 = grid.points
        rows, m_z, sums = np.empty((n0, n1)), np.zeros(2 * n2), np.zeros(4)
        sq, g = np.empty((n1, 2 * n2)), np.empty((n1, n2), dtype=complex)
        for i, s in enumerate(f):
            np.square(s.view(float), out=sq)  # re^2 and im^2, side by side
            sq.sum(axis=1, out=rows[i])
            m_z += sq.sum(axis=0)
            for ax in range(3):  # along axis 0, against the next slab (the first after the last)
                if ax == 0:
                    np.subtract(f[(i + 1) % n0], s, out=g)
                else:
                    head, tail, first, last = _shifts(ax - 1)
                    np.subtract(s[head], s[tail], out=g[tail])
                    np.subtract(s[first], s[last], out=g[last])
                sums[ax] += np.vdot(g, g).real
            if pi is not None:
                sums[3] += np.vdot(pi[i], pi[i]).real
        total, marginals = float(rows.sum()), (rows.sum(axis=1), rows.sum(axis=0), m_z[0::2] + m_z[1::2])
        kinetic, pi_sq = sum(k / (dx * dx) for k, dx in zip(sums[:3], grid.spacing)), sums[3]
    dv = grid.cell_volume
    if pi is None:  # <psi, H psi>: on a periodic grid <psi, -lap psi> = kinetic, and u is of z alone
        coef = cfg.mass.hbar / (2.0 * cfg.mass.m * cfg.mass.c)
        energy = coef * (kinetic + np.dot(cfg.potential_on(grid), marginals[-1])) * dv
    else:
        m_s = cfg.resolved_mass_scalar() if (cfg.mass or cfg.mass_scalar is not None) else 0.0
        energy = 0.5 * (pi_sq + m_s * total + kinetic) * dv

    centroid, width = [0.0] * grid.dim, [0.0] * grid.dim
    for ax, (x, m) in enumerate(zip(grid.coords, marginals)):
        if total:  # two passes: the mean, then the spread about it; each marginal sums to total
            centroid[ax] = mean = float(x.dot(m) / total)
            r = x - mean
            width[ax] = math.sqrt(r.dot(r * m) / total)
    return Observables(math.sqrt(total * dv), float(energy), tuple(centroid), tuple(width))


def measure_dispersion(states: list[GridState], k: float) -> float:
    """Oscillation frequency of the spatial mode exp(i k z) over a run.

    Fits the unwrapped phase of the mode's Fourier coefficient against time
    and returns |d phase / dt|.  The states must come from a 1-d evolution
    sampled at distinct times.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 snapshots to fit a rotation rate")
    project = _mode_projector(states[0].grid, [k])
    coeffs = [project(s.field)[0] for s in states]
    return _rotation_rate(np.array([s.t for s in states]), np.array(coeffs))


def _mode_projector(grid: Grid, ks: list[float]) -> Callable[[np.ndarray], list[complex]]:
    """f -> fft(f)[m] / n for the FFT mode m of each wavenumber in ``ks``, set up once per call or run.  Up to
    log2 n modes whose phasors fit in 32 MB are projections on exp(-2 pi i (m j mod n) / n), j < n, as m dots
    then cost less than one FFT (2-vCPU Xeon: 11 to 100 dots, 512 to 2^20 points); more are one FFT of f."""
    n, index = grid.points[-1], [_mode_index(grid, k) for k in ks]
    if len(index) > min(math.log2(n), (1 << 21) / n):
        return lambda f: list(np.fft.fft(f)[index] / n)
    phasors = [np.exp(-2j * np.pi * (m * np.arange(n) % n) / n) for m in index]
    return lambda f: [np.dot(f, p) / n for p in phasors]


def _mode_index(grid: Grid, k: float) -> int:
    """The FFT index of exp(i k z) on a 1-d grid; k commensurate with the extent, |m| <= n / 2."""
    if grid.dim != 1:
        raise ValueError("dispersion measurement expects 1-d states")
    n, L = grid.points[0], grid.extents[0]
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
