"""spectral: boxcar harmonic extraction from one long multi-harmonic record.

A seeded ladder of harmonics (plus a static mean) is sampled in its rest
frame with ``sample_rest_signal``: about 160k samples at dt = 0.01.  On
that record the pass runs two spectrum scans at the full window, harmonic
extraction and time averages over a ladder of windows from 3% to 100% of
the record, and a reconstruction.  `spectral` does the work.  The unit of
work is a probe extraction on the full record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import Op, Tracer, require

import boostfield as bf

NAME = "spectral"
HALF_SPAN = 800.0
DT = 0.01
SAMPLES = 2 * int(np.floor(HALF_SPAN / DT)) + 1  # what sample_rest_signal returns
HARMONICS = 5
SCAN_PROBES = 64
WIDE_PROBES = 256
WINDOW_FRACTIONS = tuple(float(f) for f in np.geomspace(0.03, 1.0, 8))
MIN_PROBE_GAP = 0.05  # off-ladder probes keep this far from every harmonic


@dataclass
class Inputs:
    signal: bf.SampledSignal
    omegas: np.ndarray  # ladder frequencies, mean (0) first
    q: np.ndarray  # their coefficients at z0
    scan_probes: np.ndarray
    wide_probes: np.ndarray


def probes(rng: np.random.Generator, ladder: np.ndarray, count: int) -> np.ndarray:
    """The ladder's oscillating harmonics plus off-ladder probes spread over the band."""
    extra = []
    hi = ladder.max() + 2.0
    while len(extra) < count - (ladder.size - 1):
        w = rng.uniform(0.0, hi)
        if np.min(np.abs(ladder - w)) >= MIN_PROBE_GAP:
            extra.append(w)
    return np.concatenate([ladder[1:], np.array(extra)])


def build(seed: int, tracer: Tracer) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    omegas = np.concatenate([[0.0], np.cumsum(rng.uniform(0.7, 1.5, HARMONICS))])
    comps = [bf.HarmonicComponent(0.0, bf.ConstantProfile(rng.uniform(0.2, 0.6)))]
    for w in omegas[1:]:
        amp = complex(rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5))
        profile = bf.GaussianProfile(amp, rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0))
        comps.append(bf.HarmonicComponent(float(w), profile))
    spec = bf.FieldSpec(tuple(comps), bf.LorentzBoost(rng.uniform(0.3, 0.7)))
    z0 = float(rng.uniform(-0.3, 0.3))
    signal = tracer.call("spectral.sample_rest_signal", bf.sample_rest_signal, spec, z0, HALF_SPAN, DT, work=SAMPLES)
    return Inputs(
        signal=signal,
        omegas=omegas,
        q=np.array([complex(c.profile.value(z0)) for c in comps]),
        scan_probes=probes(rng, omegas, SCAN_PROBES),
        wide_probes=probes(rng, omegas, WIDE_PROBES),
    )


# -- expectations the benchmark works out itself --------------------------------


def extraction_bound(omegas, q, probe: float, T: float, dt: float) -> tuple[complex, float]:
    """The true coefficient at ``probe`` and the documented bound on the estimate's error.

    Every other harmonic leaks at most |q_o| / (|dw| T) through the boxcar
    (the sinc tail of spectral.py's docstring).  The trapezoid rule with
    interpolated edges integrates the piecewise-linear interpolant exactly,
    which is within (dw dt)^2 / 8 of each leaking exponential, so that much
    is added per harmonic.  A harmonic at the probe itself is recovered
    exactly.
    """
    dw = np.abs(omegas - probe)
    same = dw < 1e-12
    truth = complex(q[same].sum()) if same.any() else 0j
    qa = np.abs(q[~same])
    dwo = dw[~same]
    bound = float(np.sum(qa * (1.0 / (dwo * T) + (dwo * dt) ** 2 / 8.0)))
    return truth, bound + 1e-12 * float(np.abs(q).sum())


def _check_estimates(inp: Inputs, pairs) -> float:
    """Worst |q_hat - q| / bound over (probe, window, q_hat) triples; fails above 1."""
    worst = 0.0
    for probe, T, q_hat in pairs:
        truth, bound = extraction_bound(inp.omegas, inp.q, probe, T, inp.signal.dt)
        ratio = abs(q_hat - truth) / bound
        require(ratio <= 1.0, f"q_hat({probe:.4f}, T={T:.2f}) off by {ratio:.3f} x the 1/T bound")
        worst = max(worst, ratio)
    return worst


def make_ops(inp: Inputs) -> tuple[list[Op], float]:
    """The operations of one pass and the pass's work: probe extractions."""
    sig = inp.signal
    samples = sig.samples.size
    t_full = sig.max_symmetric_window()
    ops = []
    extractions = 0

    def scan(label: str, omegas: np.ndarray, tag: str):
        def go(t: Tracer):
            return t.call("spectral.scan_spectrum", bf.scan_spectrum, sig, omegas, t_full, work=omegas.size * samples, tag=tag)

        def check(est):
            require(len(est.entries) == omegas.size, "scan lost probes")
            pairs = [(e.omega, e.window_T, e.q_hat) for e in est.entries]
            return {"spectral.max_error_over_bound": _check_estimates(inp, pairs)}

        ops.append(Op(label, go, check))
        return omegas.size

    extractions += scan("spectral.scan_spectrum[64]", inp.scan_probes, "full")
    extractions += scan("spectral.scan_spectrum[256]", inp.wide_probes, "wide")

    ladder = inp.omegas[1:]
    for frac in WINDOW_FRACTIONS:
        T = frac * t_full
        tag = "full" if frac == WINDOW_FRACTIONS[-1] else ("narrow" if frac == WINDOW_FRACTIONS[0] else "mid")

        def go_extract(t: Tracer, T=T, tag=tag):
            f = t.wrap("spectral.extract_harmonic", bf.extract_harmonic, samples, tag)
            return [f(sig, float(w), T) for w in ladder]

        def check_extract(out, T=T):
            return {"spectral.max_error_over_bound": _check_estimates(inp, zip(ladder, [T] * ladder.size, out))}

        def go_mean(t: Tracer, T=T):
            return t.call("spectral.time_average", bf.time_average, sig, T, work=samples)

        def check_mean(out, T=T):
            return {"spectral.max_error_over_bound": _check_estimates(inp, [(0.0, T, out)])}

        ops.append(Op(f"spectral.extract_harmonic[{frac:.3f}]", go_extract, check_extract))
        ops.append(Op(f"spectral.time_average[{frac:.3f}]", go_mean, check_mean))
        extractions += ladder.size + 1

    # reconstructing from the true coefficients must give back the record;
    # the mean is left out of the probes, so it is taken off the record
    truths = [extraction_bound(inp.omegas, inp.q, p, t_full, sig.dt)[0] for p in inp.scan_probes]
    est = bf.SpectrumEstimate(
        tuple(bf.SpectrumEntry(float(p), q, t_full) for p, q in zip(inp.scan_probes, truths)), 0.0
    )
    times = sig.times
    inside = (times >= -t_full) & (times <= t_full)
    window = times[inside]
    reference = sig.samples[inside] - inp.q[0]
    recon_tol = 1e-9 * float(np.abs(inp.q).sum())

    def go_recon(t: Tracer):
        return t.call("spectral.reconstruct", bf.reconstruct, est, window, work=window.size * len(est.entries))

    def check_recon(out):
        err = float(np.max(np.abs(out - reference)))
        require(err <= recon_tol, f"reconstruction off the record by {err:.2e}")
        return {}

    ops.append(Op("spectral.reconstruct[64]", go_recon, check_recon))
    return ops, float(extractions)
