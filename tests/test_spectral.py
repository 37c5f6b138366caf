import numpy as np
import pytest
from conftest import spec_for
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from boostfield import (
    ConstantProfile,
    FieldSpec,
    GaussianProfile,
    HarmonicComponent,
    LorentzBoost,
    SampledSignal,
    SpectrumEntry,
    SpectrumEstimate,
    extract_harmonic,
    reconstruct,
    sample_rest_signal,
    scan_spectrum,
    time_average,
)
from boostfield import spectral


def harmonic_signal(qs, omegas, t_max=30.0, dt=1e-3):
    n = int(round(t_max / dt))
    t = dt * np.arange(-n, n + 1)
    f = np.zeros(t.size, dtype=complex)
    for q, w in zip(qs, omegas):
        f += q * np.exp(1j * w * t)
    return SampledSignal(f, dt, t[0])


def test_signal_validation():
    with pytest.raises(ValueError, match="at least 2"):
        SampledSignal(np.array([1.0 + 0j]), 0.1, 0.0)
    with pytest.raises(ValueError, match="dt"):
        SampledSignal(np.ones(5, dtype=complex), -0.1, 0.0)
    with pytest.raises(ValueError, match="finite"):
        SampledSignal(np.array([1.0, np.inf]), 0.1, 0.0)


def test_symmetric_constructor_centers_zero():
    sig = SampledSignal.symmetric(np.ones(11, dtype=complex), 0.5)
    assert sig.t0 == pytest.approx(-2.5)
    assert sig.t_end == pytest.approx(2.5)
    assert sig.times[5] == pytest.approx(0.0)
    assert sig.max_symmetric_window() == pytest.approx(2.5)


def test_max_window_needs_zero_inside():
    sig = SampledSignal(np.ones(5, dtype=complex), 0.1, 1.0)
    with pytest.raises(ValueError, match="straddle"):
        sig.max_symmetric_window()


def test_average_of_constant_is_constant():
    sig = SampledSignal(np.full(2001, 2.5 - 1.0j), 0.01, -10.0)
    # any window, including T between samples
    for T in (1.0, 7.3, 9.995):
        assert time_average(sig, T) == pytest.approx(2.5 - 1.0j, rel=1e-12)


def test_average_of_harmonic_is_sinc():
    # <exp(i w t)>_T = sin(wT) / (wT), trapezoid-accurate
    w, T, dt = 2.0, 3.0, 1e-3
    sig = harmonic_signal([1.0], [w], t_max=4.0, dt=dt)
    expected = np.sin(w * T) / (w * T)
    assert time_average(sig, T) == pytest.approx(expected, abs=5.0 * (w * dt) ** 2)


def test_window_coverage_enforced():
    sig = SampledSignal(np.ones(101, dtype=complex), 0.1, -5.0)
    with pytest.raises(ValueError, match="not covered"):
        time_average(sig, 5.2)
    with pytest.raises(ValueError, match="positive"):
        time_average(sig, 0.0)
    # a window narrower than the coverage slack, wholly before the first sample
    with pytest.raises(ValueError, match="not covered"):
        time_average(SampledSignal(np.ones(3, dtype=complex), 1.0, 5e-10), 1e-12)


def test_extract_single_harmonic_exact():
    q = 0.8 - 0.3j
    sig = harmonic_signal([q], [2.3], t_max=10.0, dt=5e-4)
    got = extract_harmonic(sig, 2.3, 8.0)
    # demodulated integrand is the constant q: trapezoid is exact up to round-off
    assert got == pytest.approx(q, rel=1e-12)


def test_two_harmonic_leakage_matches_closed_form():
    q1, q2 = 1.0 + 0j, 0.5 - 0.5j
    w1, w2 = 1.0, 2.4
    dt = 2e-4
    sig = harmonic_signal([q1, q2], [w1, w2], t_max=12.0, dt=dt)
    for T in (5.0, 10.0):
        d = (w2 - w1) * T
        predicted = q1 + q2 * np.sin(d) / d
        got = extract_harmonic(sig, w1, T)
        assert got == pytest.approx(predicted, abs=5e-7)


def test_leakage_shrinks_with_window():
    q1, q2 = 1.0, 1.0
    sig = harmonic_signal([q1, q2], [1.0, 2.0], t_max=120.0, dt=5e-3)
    errs = [abs(extract_harmonic(sig, 1.0, T) - q1) for T in (10.0, 40.0, 110.0)]
    assert errs[0] > errs[2]
    assert errs[2] < 1.2 / 110.0  # sinc tail bound with margin


def test_scan_spectrum_and_reconstruct():
    qs = [0.8, 0.3 - 0.4j]
    omegas = [1.0, 2.3]
    sig = harmonic_signal(qs, omegas, t_max=60.0, dt=5e-3)
    T = 55.0
    est = scan_spectrum(sig, omegas, T)
    assert [e.omega for e in est.entries] == omegas
    # each probe sees the other component through the boxcar sinc tail
    for i, (ent, q) in enumerate(zip(est.entries, qs)):
        d = (omegas[1 - i] - omegas[i]) * T
        predicted = q + qs[1 - i] * np.sin(d) / d
        assert abs(ent.q_hat - predicted) < 1e-4
    assert est.residual_rms < 2e-2
    t = np.linspace(-1.0, 1.0, 11)
    recon = reconstruct(est, t)
    truth = qs[0] * np.exp(1j * omegas[0] * t) + qs[1] * np.exp(1j * omegas[1] * t)
    assert_allclose(recon, truth, atol=2e-2)


def test_scan_with_no_probes_reports_signal_rms():
    sig = harmonic_signal([2.0], [1.0], t_max=5.0, dt=1e-3)
    est = scan_spectrum(sig, [], 4.0)
    assert est.entries == ()
    assert est.residual_rms == pytest.approx(2.0, rel=1e-12)


def test_sample_rest_signal_matches_field():
    spec = FieldSpec(
        (
            HarmonicComponent(0.0, ConstantProfile(0.4)),
            HarmonicComponent(1.7, GaussianProfile(1.0, 0.0, 2.0)),
        ),
        LorentzBoost(0.0),
    )
    sig = sample_rest_signal(spec, 0.5, 3.0, 0.01)
    assert sig.t0 == pytest.approx(-3.0)
    q = spec.components[1].profile.value(0.5)
    truth = 0.4 + q * np.exp(1.7j * sig.times)
    assert_allclose(sig.samples, truth, rtol=1e-12)


def test_sample_rest_signal_pad_extends_coverage():
    spec = spec_for(ConstantProfile(1.0), 0.0, omega=2.0)
    sig = sample_rest_signal(spec, 0.0, 2.0, 0.1, pad=1.0)
    assert sig.max_symmetric_window() >= 3.0 - 0.1
    with pytest.raises(ValueError, match="positive"):
        sample_rest_signal(spec, 0.0, -1.0, 0.1)


# -- the batched kernel against the direct per-probe sum -------------------------


def reference_extract(sig, omega, T):
    """Demodulate the whole record, then trapezoid over [-T, T] with interpolated edges."""
    t = sig.times
    v = sig.samples * np.exp(-1j * omega * t)
    lo, hi = max(-T, t[0]), min(T, t[-1])

    def at(x):
        return np.interp(x, t, v.real) + 1j * np.interp(x, t, v.imag)

    inside = np.nonzero((t >= lo) & (t <= hi))[0]
    if inside.size == 0:
        return 0.5 * (at(lo) + at(hi)) * (hi - lo) / (2.0 * T)
    a, b = inside[0], inside[-1]
    total = 0.5 * sig.dt * np.sum(v[a:b] + v[a + 1 : b + 1])
    total += 0.5 * (v[a] + at(lo)) * (t[a] - lo) + 0.5 * (at(hi) + v[b]) * (hi - t[b])
    return total / (2.0 * T)


@st.composite
def signal_and_window(draw):
    """A random record with t = 0 inside, and a window T it covers.

    T is the largest symmetric window, a sample time, a fraction of the
    largest window, or a sliver that may sit between two samples.
    """
    n = draw(st.integers(2, 400))
    dt = draw(st.floats(1e-3, 2.0))
    lead = draw(st.integers(0, n - 2)) + draw(st.floats(1e-3, 1.0 - 1e-3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sig = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), dt, -lead * dt)
    t_max = sig.max_symmetric_window()
    kind = draw(st.sampled_from(["max", "sample", "fraction", "sliver"]))
    if kind == "max":
        T = t_max
    elif kind == "sample":
        on_grid = sig.times[(sig.times > 0) & (sig.times <= t_max)]
        T = float(draw(st.sampled_from(list(on_grid)))) if on_grid.size else t_max
    elif kind == "fraction":
        T = t_max * draw(st.floats(1e-3, 1.0))
    else:
        T = min(t_max, dt * draw(st.floats(1e-3, 1.0)))
    return sig, T


probe_lists = st.lists(
    st.one_of(st.just(0.0), st.floats(-30.0, 30.0)), max_size=6
).flatmap(lambda ws: st.just(ws + ws[:1]) | st.just(ws))


def kernel_tol(sig, omegas):
    """Round-off scale of a phase sum: the largest phase on the record, times the signal size."""
    phase = 1.0 + max((abs(w) for w in omegas), default=0.0) * max(abs(sig.t0), abs(sig.t_end))
    return 1e-13 * phase * float(np.abs(sig.samples).max())


@settings(max_examples=150, deadline=None)
@given(signal_and_window(), probe_lists)
# a window far narrower than dt that starts on a sample: its estimate must
# not come out as the difference of two dt-sized sums
@example((SampledSignal(np.array([-1.75 - 0.67j, 0.2 + 0.37j, 1.0 + 0.5j]), 0.3, -1e-7), 1e-7), [7.0])
def test_scan_matches_direct_sum(case, omegas):
    sig, T = case
    est = scan_spectrum(sig, omegas, T)
    assert [e.omega for e in est.entries] == omegas
    tol = kernel_tol(sig, omegas)
    q = []
    for ent, w in zip(est.entries, omegas):
        assert ent.window_T == T
        assert abs(ent.q_hat - reference_extract(sig, w, T)) <= tol
        assert abs(ent.q_hat - extract_harmonic(sig, w, T)) <= tol
        q.append(ent.q_hat)
    t = sig.times
    inside = (t >= -T) & (t <= T)
    resid = sig.samples[inside] - sum(
        (c * np.exp(1j * w * t[inside]) for c, w in zip(q, omegas)), np.zeros(inside.sum(), complex)
    )
    rms = float(np.sqrt(np.mean(np.abs(resid) ** 2))) if inside.any() else 0.0
    assert est.residual_rms == pytest.approx(rms, rel=1e-9, abs=tol * (1 + sum(map(abs, q))))


@settings(max_examples=100, deadline=None)
@given(signal_and_window())
def test_time_average_is_extraction_at_zero(case):
    sig, T = case
    assert time_average(sig, T) == extract_harmonic(sig, 0.0, T)
    assert abs(time_average(sig, T) - reference_extract(sig, 0.0, T)) <= kernel_tol(sig, [0.0])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 300),
    st.floats(-50.0, 50.0),
    st.floats(1e-3, 1.0),
    probe_lists,
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_reconstruct_matches_direct_sum(m, t_start, step, omegas, seed, jitter):
    rng = np.random.default_rng(seed)
    times = t_start + step * np.arange(m)
    if jitter:
        times = times + rng.uniform(-0.25, 0.25, m) * step
    q = rng.normal(size=len(omegas)) + 1j * rng.normal(size=len(omegas))
    est = SpectrumEstimate(tuple(SpectrumEntry(w, c, 1.0) for w, c in zip(omegas, q)), 0.0)
    direct = np.zeros(m, dtype=complex)
    for c, w in zip(q, omegas):
        direct += c * np.exp(1j * w * times)
    scale = 1.0 + max(map(abs, omegas), default=0.0) * float(np.abs(times).max(initial=0.0))
    got = reconstruct(est, times)
    assert got.shape == times.shape
    assert_allclose(got, direct, rtol=0, atol=1e-13 * scale * (1 + np.abs(q).sum()))


@st.composite
def table_layout(draw):
    """m, t_start and dt over the ranges signal_and_window gives a window's interior."""
    m = draw(st.integers(0, 400))
    dt = draw(st.floats(1e-3, 2.0))
    lead = draw(st.integers(0, max(m - 2, 0))) + draw(st.floats(1e-3, 1.0 - 1e-3))
    return m, -lead * dt, dt


@settings(max_examples=200, deadline=None)
@given(table_layout(), probe_lists)
def test_product_built_phasors_match_direct_exponentials(layout, omegas):
    m, t_start, dt = layout
    omegas = np.array(omegas, dtype=float)
    inner, outer = spectral._phasors(omegas, t_start, dt, m)
    width = inner.shape[1]
    assert outer.shape == (omegas.size, -(-m // width)) and width * width >= m
    j = np.arange(m)
    t = t_start + dt * j
    got = outer[:, j // width] * inner[:, j % width]
    direct = np.exp(-1j * np.multiply.outer(omegas, t))
    eps = np.finfo(float).eps
    reach = float(np.abs(t).max(initial=0.0))
    # c = 64: four table phases and the reference's, each a few roundings of |w| max|t|
    bound = 64.0 * eps * (1.0 + np.abs(omegas)[:, None] * reach)
    assert np.all(np.abs(got - direct) <= bound)


@settings(max_examples=200, deadline=None)
@given(signal_and_window(), st.integers(0, 2**32 - 1), st.sampled_from(["sample", "between", "ends"]))
def test_locate_is_searchsorted_on_the_sample_times(case, seed, kind):
    sig, _ = case
    times = sig.times
    rng = np.random.default_rng(seed)
    k = int(rng.integers(times.size))
    if kind == "sample":
        ts = [times[k]]
    elif kind == "between":
        ts = [times[k] + sig.dt * rng.uniform(0.0, 1.0), np.nextafter(times[k], np.inf), np.nextafter(times[k], -np.inf)]
    else:
        ts = [sig.t0, sig.t_end, times[-1], sig.t0 - 0.5 * sig.dt, sig.t_end + 0.5 * sig.dt]
    for t in map(float, ts):
        for side in ("left", "right"):
            assert spectral._locate(sig, t, side) == np.searchsorted(times, t, side)


def test_reconstruct_takes_the_factored_path_on_sample_times():
    sig = sample_rest_signal(spec_for(ConstantProfile(1.0), 0.0), 0.0, 800.0, 0.01)
    assert spectral._uniform_grid(sig.times) == (sig.t0, pytest.approx(sig.dt, rel=1e-12))
    assert spectral._uniform_grid(np.array([0.0, 1.0, 3.0])) is None


# -- error contract ----------------------------------------------------------------


def test_nonfinite_probe_named_as_scalar():
    sig = harmonic_signal([1.0], [1.0], t_max=5.0, dt=1e-2)
    with pytest.raises(ValueError, match=r"^omega must be finite, got nan$"):
        scan_spectrum(sig, [1.0, float("nan"), 2.0], 4.0)
    with pytest.raises(ValueError, match=r"^omega must be finite, got inf$"):
        scan_spectrum(sig, np.array([1.0, np.inf]), 4.0)
    with pytest.raises(ValueError, match=r"^omega must be finite, got -inf$"):
        extract_harmonic(sig, np.float64(-np.inf), 4.0)


def test_strided_samples_give_the_results_of_a_copy():
    # one probe reads the samples as (re, im) float pairs, so a strided view is copied on entry
    rec = harmonic_signal([0.8 - 0.3j, 0.2j], [1.3, 2.9], t_max=20.0, dt=5e-3)
    strided = SampledSignal(rec.samples[::2], 2 * rec.dt, rec.t0)
    copied = SampledSignal(rec.samples[::2].copy(), 2 * rec.dt, rec.t0)
    for T in (19.0, 0.5):
        assert extract_harmonic(strided, 1.3, T) == extract_harmonic(copied, 1.3, T)
        assert scan_spectrum(strided, [1.3, 2.9], T) == scan_spectrum(copied, [1.3, 2.9], T)


def test_probe_whose_phase_overflows_is_refused():
    sig = harmonic_signal([1.0], [1.0], t_max=10.0, dt=1e-2)
    msg = r"^omega -?1e\+308 overflows the phase omega \* t for \|t\| up to 10\.0$"
    with pytest.raises(ValueError, match=msg):
        scan_spectrum(sig, [1.0, 1e308], 10.0)
    with pytest.raises(ValueError, match=msg):
        extract_harmonic(sig, -1e308, 1.0)
    est = SpectrumEstimate((SpectrumEntry(1.0, 1.0, 1.0), SpectrumEntry(1e308, 1.0, 1.0)), 0.0)
    for times in (sig.times, [0.0, 10.0, -3.0]):  # evenly spaced and not
        with pytest.raises(ValueError, match=msg):
            reconstruct(est, times)
    assert np.isfinite(extract_harmonic(sig, 1e300, 10.0))


def test_scan_window_errors():
    sig = harmonic_signal([1.0], [1.0], t_max=5.0, dt=1e-2)
    for omegas in ([], [1.0]):
        with pytest.raises(ValueError, match="^window half-width T must be positive"):
            scan_spectrum(sig, omegas, -1.0)
        with pytest.raises(ValueError, match="not covered by samples"):
            scan_spectrum(sig, omegas, 6.0)
