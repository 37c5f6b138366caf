"""Boxcar harmonic extraction from uniformly sampled signals.

The only averaging operator here is the plain symmetric mean

    <f>_T = (1/(2T)) * integral_{-T}^{+T} f(t) dt

evaluated by the trapezoid rule (second order in the sample spacing), with
linear interpolation at the window edges when T does not land on a sample.
No FFTs and no window functions: the window length T itself is the
resolution knob, errors from off-resonant harmonics decay like 1/T.

Extraction projects with the conjugate kernel,

    q_hat(omega) = < f(t) * exp(-i omega t) >_T,

which is the projection that returns the coefficient q of a component
q * exp(+i omega t): for such a component the integrand becomes the
constant q, while every other harmonic contributes a sinc tail bounded by
|q_other| / (|delta omega| * T).

How the sums are evaluated: the trapezoid rule with interpolated edges is
a set of sample weights, dt on the samples inside [-T, T] and adjusted at
the two ends, reaching at most one sample beyond each edge, so only that
slice of M samples is read.  On it exp(-i omega t_j) = outer[b] inner[r]
for j = b B + r, B = C^2 and C^4 >= M; each table is the product of two
C-column tables, so P probes cost 4 P C (about 4 P M^(1/4)) complex
exponentials instead of P M.  Many probes are demodulated by one complex
matrix product.  One probe is a real one, the samples' (re, im) pairs
times the (2B, 2) real form [c, s; -s, c] of its table: on 160k samples
and 2 vCPUs, 1,000 calls took p50 0.12 ms, p99 0.18 ms, where einsum
took 0.29-0.38 ms and the complex matrix-vector product p50 0.04 ms but
p99 8 ms and max 16 ms, as BLAS worker threads stalled.  The results
are those of the direct per-sample sums, to round-off.  A scan's residual
is a quadratic form in q_hat over the estimate's sums and the probes' Gram
matrix, a Dirichlet kernel in closed form: 4 P trig calls and O(P^2)
products after the estimate, the nearest pairs in the direct form (see
_dirichlet).  Where that form cancels by more than kappa = 1e4, or G
would outgrow the window, the residual is resynthesized as `reconstruct`
is on evenly spaced times, by the conjugate product with the same
tables, a block of rows at a time in O(P sqrt(M)) memory.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import le, lt
from typing import NamedTuple

import numpy as np

from .kinematics import _read_field, _real


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a uniform time grid t0 + j*dt."""

    samples: np.ndarray
    dt: float
    t0: float

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("need a 1-d signal with at least 2 samples")
        if not np.all(np.isfinite(s.real) & np.isfinite(s.imag)):
            raise ValueError("signal samples must be finite")
        object.__setattr__(self, "dt", _real("dt", self.dt))
        object.__setattr__(self, "t0", _read_field("float", "t0", self.t0))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        object.__setattr__(self, "samples", s)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.samples.size - 1)

    def max_symmetric_window(self) -> float:
        """Largest T with [-T, T] inside the sampled range."""
        T = min(-self.t0, self.t_end)
        if T <= 0:
            raise ValueError("samples do not straddle t = 0")
        return T


@dataclass(frozen=True)
class SpectrumEntry:
    omega: float
    q_hat: complex
    window_T: float


@dataclass(frozen=True)
class SpectrumEstimate:
    entries: tuple[SpectrumEntry, ...]
    residual_rms: float


def _locate(sig: SampledSignal, t: float, side: str) -> int:
    """np.searchsorted(sig.times, t, side), stepping on floats from the sample nearest t."""
    t0, dt, n = sig.t0, sig.dt, sig.samples.size
    before = lt if side == "left" else le  # is sample j before t?
    j = min(max(math.ceil((t - t0) / dt), 0), n)
    while j > 0 and not before(t0 + dt * (j - 1), t):
        j -= 1
    while j < n and before(t0 + dt * j, t):
        j += 1
    return j


class _Window(NamedTuple):
    """The trapezoid rule over [-T, T], edges interpolated, as sample weights.

    Samples first..last are the ones inside the window.  The interior
    samples first+1..last-1 weigh dt each.  The few samples in `ends`, the
    window's end samples and at most one beyond each edge, weigh their
    entry.  The end samples are kept out of the interior so that a window
    narrower than dt is not the difference of two dt-sized terms.
    """

    first: int
    last: int
    ends: dict[int, float]

    @property
    def interior(self) -> slice:
        return slice(self.first + 1, max(self.first + 1, self.last))


def _window(sig: SampledSignal, T: float) -> _Window:
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"window half-width T must be positive, got {T!r}")
    slack = 1e-9 * sig.dt
    lo, hi = max(-T, sig.t0), min(T, sig.t_end)
    if sig.t0 > -T + slack or sig.t_end < T - slack or lo > hi:
        raise ValueError(
            f"window [-{T}, {T}] not covered by samples "
            f"[{sig.t0}, {sig.t_end}]"
        )
    dt = sig.dt
    first, last = _locate(sig, lo, "left"), _locate(sig, hi, "right") - 1

    def t(j: int) -> float:
        return sig.t0 + dt * j

    ends: dict[int, float] = defaultdict(float)
    if first > last:
        # the whole window sits between samples last and first
        a, b = ((x - t(last)) / (t(first) - t(last)) for x in (lo, hi))
        ends[last] += 0.5 * (hi - lo) * (2.0 - a - b)
        ends[first] += 0.5 * (hi - lo) * (a + b)
    else:
        if first < last:
            ends[first] += 0.5 * dt
            ends[last] += 0.5 * dt
        if t(first) > lo:
            edge = t(first) - lo
            a = (lo - t(first - 1)) / (t(first) - t(first - 1))
            ends[first - 1] += 0.5 * edge * (1.0 - a)
            ends[first] += 0.5 * edge * (1.0 + a)
        if hi > t(last):
            edge = hi - t(last)
            b = edge / (t(last + 1) - t(last))
            ends[last] += 0.5 * edge * (2.0 - b)
            ends[last + 1] += 0.5 * edge * b
    return _Window(first, last, ends)


_MAX_SAMPLES = 1 << 22  # the most samples sample_rest_signal writes, as many as pde's grids hold
_KAPPA_MAX = 1e4  # the most cancellation kept in a Gram residual, 4 of its 16 digits
_REAL_FORM = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])  # (c, s) to (c, s, -s, c), exactly


def _probes(omegas, reach: float) -> np.ndarray:
    """The probes, read by _real; each must keep every phase w t of the tables, |t| <= 65 reach (see _phasors), finite."""
    if isinstance(omegas, (str, bytes)) or not np.iterable(omegas):
        raise ValueError(f"omegas must be a sequence of real numbers, got {omegas!r}")
    w, reach = [_real("omega", o) for o in omegas], float(reach)  # Python floats overflow to inf without a warning
    for o in w:
        if not math.isfinite(o):
            raise ValueError(f"omega must be finite, got {o!r}")
        if not math.isfinite(o * (128.0 * reach)):
            raise ValueError(f"omega {o!r} overflows the phase omega * t for |t| up to {reach!r}")
    return np.array(w)


def _phasors(omegas: np.ndarray, t_start: float, dt: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables with exp(-i w t_j) = outer[:, j // B] * inner[:, j % B] for t_j = t_start + j dt, j < m.

    With C the least integer with C^4 >= m, inner has B = C^2 columns and outer
    ceil(m / B).  They are products of four C-column tables from one phase array:
    inner[C b1 + b0] = exp(-i w dt C b1) exp(-i w dt b0), and outer[C r1 + r0] =
    exp(-i w (t_start + dt C^3 r1)) exp(-i w dt C^2 r0).  Their times reach
    |t_start| + dt C^4 <= |t_start| + 16 dt max(m, 1).
    """
    c = math.isqrt(math.isqrt(max(m - 1, 0))) + 1
    t = np.multiply.outer([-dt, -dt * c, -dt * c * c, -dt * c**3], np.arange(c))
    t[3] -= t_start
    phase = t[:, None, :] * omegas[:, None]
    tab = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=tab.real)
    np.sin(phase, out=tab.imag)
    inner, outer = (tab[1::2, :, :, None] * tab[0::2, :, None, :]).reshape(2, len(omegas), c * c)
    return inner, outer[:, : -(-m // (c * c))]


def _demodulate(x: np.ndarray, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """sum_j x_j exp(-i w t_j) for every probe w of the tables."""
    width = inner.shape[1]
    full = x.size // width
    rows = x[: full * width].reshape(full, width)
    if len(inner) == 1:  # a real product; see the module docstring
        real_form = (inner[0].view(float).reshape(-1, 2) @ _REAL_FORM).reshape(-1, 2)
        partial = (rows.view(float) @ real_form).view(complex).T
    else:
        partial = inner @ rows.T
    out = np.einsum("pb,pb->p", outer[:, :full], partial)
    tail = x[full * width :]
    if tail.size:
        out += outer[:, full] * (inner[:, : tail.size] @ tail)
    return out


def _synthesize(coeffs: np.ndarray, inner: np.ndarray, outer: np.ndarray, rows: slice) -> np.ndarray:
    """sum_p coeffs_p exp(+i w_p t_j) over the table rows `rows`, flattened.

    It is the conjugate of demodulating conj(coeffs), so the same tables serve.
    """
    out = (coeffs.conj()[:, None] * outer[:, rows]).T @ inner
    return np.conj(out, out=out).ravel()


def _dirichlet(omegas: np.ndarray, dt: float, m: int) -> np.ndarray:
    """sin(m h) / sin(h) for every pair of probes, h = (w_p - w_p') dt / 2 (Oppenheim & Schafer, sec. 8.1).

    With a = w dt / 2, sin(m a_p - m a_p') and sin(a_p - a_p') are S_p C_p' - C_p S_p' of one
    sine and cosine per probe and phase: 4 P trig calls and O(P^2) products.  Where |sin h|
    >= m^(-1/2) those keep the phases' digits, an error of about eps sqrt(m) |a| of m.  The
    nearer pairs, duplicates, near-coincident probes and probes 2 pi / dt apart, take the
    direct form from h reduced to r = h - k pi: (-1)^(k (m - 1)) sin(m r) / sin(r), m at r = 0.
    """
    a = omegas * (0.5 * dt)
    s, c = np.sin([m * a, a]), np.cos([m * a, a])
    gram, den = np.stack([s, -c], axis=2) @ np.stack([c, s], axis=1)
    near = np.flatnonzero(np.abs(den) < (m ** -0.5 if m else math.inf))
    with np.errstate(divide="ignore", invalid="ignore"):  # the near pairs are replaced below
        gram /= den
        h = (omegas[near // a.size] - omegas[near % a.size]) * (0.5 * dt)
        k = np.rint(h / np.pi)
        r = h - np.pi * k
        g = np.sin(m * r) / np.sin(r)
    g[r == 0.0] = m
    if m % 2 == 0:
        g[k % 2 == 1] *= -1.0
    gram.ravel()[near] = g
    return gram


def _gram_power(x, q_hat, demod, omegas, t_start: float, dt: float) -> float | None:
    """sum_j |x_j - sum_p q_p exp(i w_p t_j)|^2 over t_j = t_start + j dt, j < M, or None.

    It is |x|^2 - 2 Re sum_p q_p conj(D_p) + q^H G q, D_p = sum_j x_j exp(-i w_p t_j),
    with G[p, p'] = sum_j exp(i (w_p' - w_p) t_j) = exp(i (w_p' - w_p) t_mid) times the
    Dirichlet kernel, 4 P trig calls and O(P^2) products (_dirichlet).  A close fit makes
    the terms cancel, losing about log10(kappa) digits, kappa = (|x|^2 + 2 |cross| +
    |quad|) / power: None above _KAPPA_MAX, and where G would hold more numbers than x.
    """
    m = x.size
    if omegas.size**2 > m:
        return None
    gram = _dirichlet(omegas, dt, m)
    y = (q_hat * np.exp(1j * omegas * (t_start + 0.5 * (m - 1) * dt))).view(float).reshape(-1, 2)
    norm, cross, quad = float(np.vdot(x, x).real), complex(np.vdot(demod, q_hat)), float(np.sum(y * (gram @ y)))
    power = norm - 2.0 * cross.real + quad
    return power if norm + 2.0 * abs(cross) + abs(quad) <= _KAPPA_MAX * power else None


def _uniform_grid(times: np.ndarray, reach: float) -> tuple[float, float] | None:
    """(t_start, dt) when times, of largest |t| reach, is t_start + j dt to round-off, else None."""
    if times.ndim != 1 or times.size < 2:
        return None
    dt = (times[-1] - times[0]) / (times.size - 1)
    dev = np.arange(times.size, dtype=float)
    dev *= dt
    dev += times[0]
    dev -= times
    np.abs(dev, out=dev)
    if not dev.max() <= 4.0 * np.finfo(float).eps * reach:
        return None
    return float(times[0]), float(dt)


def _estimate(sig: SampledSignal, omegas: np.ndarray, T: float):
    """q_hat for every probe, with the window, the interior sums D_p and the phasor tables that gave it."""
    win = _window(sig, T)
    x = sig.samples[win.interior]
    inner, outer = _phasors(omegas, sig.t0 + sig.dt * win.interior.start, sig.dt, x.size)
    demod = _demodulate(x, inner, outer)
    total = sig.dt * demod
    ends = list(win.ends)
    weighed = np.multiply(list(win.ends.values()), sig.samples[ends])
    total += np.exp(-1j * np.multiply.outer(omegas, [sig.t0 + sig.dt * j for j in ends])) @ weighed
    return total / (2.0 * T), win, demod, inner, outer


def time_average(sig: SampledSignal, T: float) -> complex:
    """Symmetric boxcar mean <f>_T over [-T, T]."""
    return extract_harmonic(sig, 0.0, T)


def extract_harmonic(sig: SampledSignal, omega: float, T: float) -> complex:
    """Coefficient estimate q_hat(omega) = <f(t) exp(-i omega t)>_T."""
    q_hat, *_ = _estimate(sig, _probes([omega], max(-sig.t0, sig.t_end)), _real("T", T))
    return complex(q_hat[0])


def scan_spectrum(sig: SampledSignal, omegas, T: float) -> SpectrumEstimate:
    """Extract q_hat at each probe frequency and report the residual RMS.

    The residual is signal minus reconstruction, measured over the samples
    inside [-T, T], from the probes' Gram matrix where it keeps its digits
    (see the module docstring).  An empty probe list yields the RMS of the
    signal itself.
    """
    omegas, T = _probes(omegas, max(-sig.t0, sig.t_end)), _real("T", T)
    q_hat, win, demod, inner, outer = _estimate(sig, omegas, T)
    entries = tuple(SpectrumEntry(w, q, T) for w, q in zip(omegas.tolist(), q_hat.tolist()))
    # the residual over samples first..last: the interior, then the two end samples
    x = sig.samples[win.interior]
    power = _gram_power(x, q_hat, demod, omegas, sig.t0 + sig.dt * win.interior.start, sig.dt)
    if power is None:
        width = inner.shape[1]
        block = max(1, 2**16 // width)
        power = 0.0
        for row in range(0, outer.shape[1], block):
            seg = x[row * width : (row + block) * width]
            resid = seg - _synthesize(q_hat, inner, outer, slice(row, row + block))[: seg.size]
            power += float(np.vdot(resid, resid).real)
    for j in {win.first, win.last} if win.first <= win.last else ():
        t_j = sig.t0 + sig.dt * j
        power += abs(sig.samples[j] - np.sum(q_hat * np.exp(1j * omegas * t_j))) ** 2
    count = win.last - win.first + 1
    rms = float(np.sqrt(power / count)) if count > 0 else 0.0
    return SpectrumEstimate(entries, rms)


def reconstruct(est: SpectrumEstimate, times) -> np.ndarray:
    """Sum of the estimated harmonics q_hat * exp(i omega t) at given times."""
    times = np.asarray(times, dtype=float)
    reach = float(max(times.max(initial=0.0), -times.min(initial=0.0)))  # not finite if a time is not
    if not math.isfinite(reach):
        raise ValueError("times must be finite")
    omegas = _probes([ent.omega for ent in est.entries], reach)
    coeffs = np.array([ent.q_hat for ent in est.entries], dtype=complex)
    grid = _uniform_grid(times, reach)
    if grid is None:
        return sum((c * np.exp(1j * w * times) for c, w in zip(coeffs, omegas)), np.zeros(times.shape, complex))
    inner, outer = _phasors(omegas, grid[0], grid[1], times.size)
    return _synthesize(coeffs, inner, outer, slice(None))[: times.size]


def sample_rest_signal(spec, z: float, T: float, dt: float) -> SampledSignal:
    """A spec's rest-frame psi at fixed z and t = j dt in [-T, T], from the tables `reconstruct` uses."""
    T, dt = _real("T", T), _real("dt", dt)
    if not (math.isfinite(T) and T > 0 and math.isfinite(dt) and dt > 0):
        raise ValueError(f"need positive T and dt, got {T!r}, {dt!r}")
    if not T / dt < _MAX_SAMPLES // 2:  # 2 floor(T / dt) + 1 <= the cap, and not inf
        raise ValueError(f"sampling [-{T!r}, {T!r}] at dt = {dt!r} needs more than the cap of {_MAX_SAMPLES} samples")
    n = math.floor(T / dt)
    omegas = _probes([comp.omega for comp in spec.components], T)
    coeffs = np.array([comp.profile.value(z) for comp in spec.components], dtype=complex)
    inner, outer = _phasors(omegas, dt * -n, dt, 2 * n + 1)
    return SampledSignal(_synthesize(coeffs, inner, outer, slice(None))[: 2 * n + 1], dt, dt * -n)
