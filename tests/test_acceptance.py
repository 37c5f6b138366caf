"""End-to-end acceptance run.

Each test exercises one numbered claim the package stands behind, at its
stated tolerance, and records a single PASS/FAIL line (echoed in the
terminal summary).  Nothing here reuses package-internal derivations as its
own oracle: expected numbers are closed forms or frozen reference values.
"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from boostfield import (
    ConstantProfile,
    Event,
    FieldSpec,
    GaussianProfile,
    Grid,
    GridState,
    HarmonicComponent,
    LorentzBoost,
    MassParameters,
    PlaneWaveProfile,
    SampledSignal,
    SolverConfig,
    boost_event,
    compose_boosts,
    envelope_equation_residual,
    evolve_kgf,
    evolve_schrodinger,
    evolve_wave,
    extract_harmonic,
    fit_loglog_slope,
    interval,
    inverse_boost_event,
    klein_gordon_residual,
    measure_dispersion,
    measure_observables,
    neglected_term_scan,
    derivative_slopes,
    sample_events,
    save_spec,
    scalar_invariance_check,
    schrodinger_residual,
    separable_potential,
)
from boostfield.cli import main as cli_main
from conftest import analytic_profiles, catalog_profiles, spec_for


def test_criterion_01_lorentz_kinematics(criterion):
    betas = [0.0, 0.3, 0.6, 0.9, 0.99]
    worst_interval = worst_round = worst_compose = 0.0
    partner = LorentzBoost(0.3)
    for i, beta in enumerate(betas):
        b = LorentzBoost(beta)
        composed = compose_boosts(b, partner)
        for e in sample_events(1000, seed=11 + i):
            out = boost_event(e, b)
            s0, s1 = interval(e), interval(out)
            worst_interval = max(worst_interval, abs(s1 - s0) / (1.0 + abs(s0)))
            back = inverse_boost_event(out, b)
            worst_round = max(
                worst_round,
                abs(back.z - e.z),
                abs(back.tau - e.tau),
                abs(back.x - e.x),
                abs(back.y - e.y),
            )
            two = boost_event(out, partner)
            one = boost_event(e, composed)
            worst_compose = max(
                worst_compose, abs(two.z - one.z), abs(two.tau - one.tau)
            )
    ok = worst_interval <= 1e-12 and worst_round <= 1e-12 and worst_compose <= 1e-10
    criterion(
        1,
        ok,
        "interval/inverse/composition over 5 boosts x 1000 events: "
        f"max {worst_interval:.2e} / {worst_round:.2e} / {worst_compose:.2e} "
        "(tol 1e-12 / 1e-12 / 1e-10)",
    )


def test_criterion_02_lab_field_is_boosted_rest_field(criterion):
    worst = 0.0
    for name, profile in catalog_profiles().items():
        for beta in (0.0, 0.3, 0.6, 0.9, 0.99):
            spec = spec_for(profile, beta)
            rest_spec = replace(spec, boost=LorentzBoost(0.0))  # the rest frame is beta = 0
            for e in sample_events(1000, seed=29):
                lab = spec.psi_lab(e)
                rest = rest_spec.psi_lab(boost_event(e, spec.boost))
                worst = max(worst, abs(lab - rest) / (1.0 + abs(rest)))
    ok = worst <= 1e-12
    criterion(
        2,
        ok,
        "lab field equals rest field at the mapped event, 5 profiles x 5 boosts "
        f"x 1000 events: max rel {worst:.2e} (tol 1e-12)",
    )


def test_criterion_03_derivative_order_certification(criterion):
    bad = []
    seen_active = 0
    for name, profile in analytic_profiles().items():
        for beta in (0.0, 0.3, 0.6, 0.9):
            spec = spec_for(profile, beta)
            slopes = derivative_slopes(spec, 0, sample_events(6, seed=37))
            for entry, slope in slopes.items():
                if slope is None:
                    continue  # certified degenerate: error at round-off floor
                seen_active += 1
                if not 1.9 <= slope <= 2.1:
                    bad.append((name, beta, entry, slope))
    ok = not bad and seen_active > 0
    criterion(
        3,
        ok,
        f"finite-difference error slopes 2.0 +/- 0.1 ({seen_active} active entries, "
        f"{len(bad)} out of band) over 4 profiles x 4 boosts",
    )


def test_criterion_04_residual_identities(criterion):
    worst = {"envelope": 0.0, "second_order": 0.0, "scalar": 0.0}
    for name, profile in catalog_profiles().items():
        spec = spec_for(profile, 0.6)
        events = sample_events(100, seed=43)
        worst["envelope"] = max(
            worst["envelope"], envelope_equation_residual(spec, 0, events).max_abs
        )
        worst["second_order"] = max(
            worst["second_order"], klein_gordon_residual(spec, 0, events).max_abs
        )
        worst["scalar"] = max(
            worst["scalar"], scalar_invariance_check(spec, 0, events).max_abs
        )
    ok = all(v <= 1e-10 for v in worst.values())
    criterion(
        4,
        ok,
        "envelope / second-order / scalar-density residuals at 100 events, "
        f"5 profiles: max {worst['envelope']:.2e} / {worst['second_order']:.2e} / "
        f"{worst['scalar']:.2e} (tol 1e-10)",
    )


def test_criterion_05_neglected_term_quartic(criterion):
    scan = neglected_term_scan(MassParameters(1.0, 1.0), [0.01, 0.02, 0.04, 0.08, 0.1])
    ok = 3.8 <= scan.fitted_slope <= 4.2
    criterion(
        5,
        ok,
        f"rest-energy correction scales as beta^4: slope {scan.fitted_slope:.4f} "
        "(band 3.8..4.2)",
    )


def test_criterion_06_low_speed_reduction(criterion):
    profile = PlaneWaveProfile(1.0, 1.3)
    mass = MassParameters(2.0, 1.0)  # carrier frequency 2.0 with hbar = c = 1
    events = sample_events(100, seed=53)

    def unity_rms(beta):
        spec = spec_for(profile, beta)
        u = separable_potential(spec, 0)
        return schrodinger_residual(spec, 0, mass, u, events, gamma_mode="unity").rms

    rms = [unity_rms(b) for b in (0.1, 0.05, 0.025, 0.0125)]
    ratios = [rms[i] / rms[i + 1] for i in range(3)]
    at_zero = unity_rms(0.0)
    monotone = all(a > b for a, b in zip(rms, rms[1:]))
    cubic = all(6.5 <= r <= 9.5 for r in ratios)
    ok = monotone and cubic and at_zero <= 1e-10
    criterion(
        6,
        ok,
        "reduced-form remainder shrinks as beta^3 and vanishes at rest: "
        f"rms {rms[0]:.2e}->{rms[-1]:.2e}, halving ratios "
        f"{', '.join(f'{r:.2f}' for r in ratios)} (band 6.5..9.5), "
        f"beta=0 rms {at_zero:.2e} (tol 1e-10)",
    )


def test_criterion_07_dispersion_relation(criterion):
    b = LorentzBoost(0.6)
    omega0 = 1.0
    Omega = b.gamma * omega0
    K = b.gamma * b.beta * omega0
    kinematic_ok = (
        abs(Omega - 1.25) <= 1e-12
        and abs(K - 0.75) <= 1e-12
        and abs(Omega**2 - K**2 - omega0**2) <= 1e-12
    )

    n, L = 512, 8.0 * np.pi
    grid = Grid((L,), (n,))
    z = grid.axis(0)
    psi0 = np.exp(1j * K * z)
    state = GridState(grid, psi0, 1j * Omega * psi0)
    dt = 2.0 * np.pi / Omega / 228.0
    steps = 3 * 228
    snaps = [state.copy()]
    cfg = SolverConfig(dt=dt, steps=steps, scheme="leapfrog", mass_scalar=omega0**2)
    evolve_kgf(state, cfg, monitor=lambda s: snaps.append(s.copy()))
    measured = measure_dispersion(snaps, K)
    rel = abs(measured - Omega) / Omega
    ok = kinematic_ok and rel <= 1e-2
    criterion(
        7,
        ok,
        f"boosted carrier obeys Omega^2 - K^2 = omega0^2 (exact to 1e-12) and the "
        f"second-order solver reproduces Omega=1.25 at K=0.75: measured "
        f"{measured:.6f}, rel err {rel:.2e} (tol 1e-2)",
    )


def test_criterion_08_solver_conservation(criterion):
    # implicit scheme: norm drift over ten thousand steps
    g = Grid((20.0,), (256,))
    z = g.axis(0)
    psi = np.exp(-((z - 10.0) ** 2) / 2.0) * np.exp(1.5j * z)
    st = GridState(g, psi)
    cfg = SolverConfig(
        dt=1e-3, steps=10000, scheme="crank_nicolson", mass=MassParameters(1.0, 1.0)
    )
    n0 = measure_observables(st, cfg).norm
    fin = evolve_schrodinger(st, cfg)
    norm_drift = abs(measure_observables(fin, cfg).norm - n0) / n0

    # explicit scheme: bounded energy band, no secular drift
    g2 = Grid((16.0,), (128,))
    z2 = g2.axis(0)
    s = 0.8
    f0 = np.exp(-((z2 - 8.0) ** 2) / (2 * s * s)).astype(complex)
    fp = (-(z2 - 8.0) / (s * s) * f0).astype(complex)
    st2 = GridState(g2, f0, -fp)
    cfg2 = SolverConfig(dt=5e-4, steps=4000, scheme="leapfrog", mass_scalar=1.0)
    energies = []

    def mon(s_):
        if s_.step_count % 10 == 0:
            energies.append(measure_observables(s_, cfg2).energy)

    evolve_kgf(st2, cfg2, monitor=mon)
    e = np.asarray(energies)
    band = float((e.max() - e.min()) / e.mean())
    third = len(e) // 3
    drift = float(abs(e[-third:].mean() - e[:third].mean()) / e.mean())

    # unit Courant number: transport around the ring is exact
    g3 = Grid((16.0,), (512,))
    z3 = g3.axis(0)
    s3 = 16.0 / 20.0
    h0 = np.exp(-((z3 - 8.0) ** 2) / (2 * s3 * s3))
    hp = -(z3 - 8.0) / (s3 * s3) * h0
    st3 = GridState(g3, h0.astype(complex), (-hp).astype(complex))
    dx = g3.spacing[0]
    fin3 = evolve_wave(st3, SolverConfig(dt=dx, steps=512, scheme="leapfrog", mass_scalar=0.0))
    transit = float(np.sqrt(np.sum(np.abs(fin3.field - h0) ** 2) * dx))

    ok = norm_drift <= 1e-7 and band <= 1e-6 and drift <= 5e-7 and transit <= 1e-10
    criterion(
        8,
        ok,
        f"conservation: norm drift {norm_drift:.2e} (tol 1e-7), energy band "
        f"{band:.2e} (tol 1e-6), secular drift {drift:.2e} (tol 5e-7), "
        f"unit-Courant transit error {transit:.2e} (tol 1e-10)",
    )


def test_criterion_09_window_averaging_converges(criterion):
    qs = np.array([0.8, 0.5 - 0.3j, 0.35 + 0.2j])
    omegas = np.array([1.0, 2.3, 3.7])
    dt, t_max = 0.005, 400.0
    n = int(round(2 * t_max / dt)) + 1
    t = (np.arange(n) - (n - 1) / 2) * dt
    samples = sum(q * np.exp(1j * w * t) for q, w in zip(qs, omegas))
    sig = SampledSignal(samples, dt, float(t[0]))

    octave_starts = [12.5, 25.0, 50.0, 100.0, 200.0]
    sweep = 2.0 ** (np.arange(32) / 32.0)
    oct_err, oct_off = [], []
    for T0 in octave_starts:
        errs, offs = [], []
        for f in sweep:
            T = T0 * f
            errs.append(
                np.mean(
                    [abs(extract_harmonic(sig, w, T) - q) for q, w in zip(qs, omegas)]
                )
            )
            offs.append(abs(extract_harmonic(sig, 5.1, T)))
        oct_err.append(float(np.mean(errs)))
        oct_off.append(float(np.mean(offs)))

    slope = fit_loglog_slope(octave_starts, oct_err)
    off_ratio = oct_off[0] / oct_off[-1]
    ok = -1.2 <= slope <= -0.8 and off_ratio >= 4.0
    criterion(
        9,
        ok,
        f"octave-averaged extraction error decays as 1/T: slope {slope:.3f} "
        f"(band -1.2..-0.8); off-spectrum probe attenuates {off_ratio:.1f}x "
        "(need >= 4)",
    )


def test_criterion_10_manufactured_solution_loop(criterion):
    spec = FieldSpec(
        (HarmonicComponent(1.0, ConstantProfile(1.0)),), LorentzBoost(0.6)
    )
    n, L = 512, 8.0 * np.pi
    grid = Grid((L,), (n,))
    z = grid.axis(0)
    psi0 = spec.harmonic_on_axis(0, z, 0.0)
    pi0 = spec.harmonic_dtau_on_axis(0, z, 0.0)
    Omega = spec.boost.gamma * 1.0
    period = 2.0 * np.pi / Omega
    steps = 228
    cfg = SolverConfig(
        dt=period / steps, steps=steps, scheme="leapfrog", mass_scalar=1.0
    )
    fin = evolve_kgf(GridState(grid, psi0, pi0), cfg)
    exact = spec.harmonic_on_axis(0, z, period)
    rms = float(np.sqrt(np.mean(np.abs(fin.field - exact) ** 2)))
    ok = rms <= 1e-3
    criterion(
        10,
        ok,
        "second-order evolution of a boosted carrier closes a full period: "
        f"rms error {rms:.2e} (tol 1e-3)",
    )


def test_criterion_11_cli_reproducibility(criterion, tmp_path, capsys):
    gauss = tmp_path / "gauss.json"
    save_spec(
        FieldSpec(
            (HarmonicComponent(1.7, GaussianProfile(1.0, 0.0, 1.2)),),
            LorentzBoost(0.4),
        ),
        gauss,
    )
    const = tmp_path / "const.json"
    save_spec(
        FieldSpec((HarmonicComponent(1.0, ConstantProfile(1.0)),), LorentzBoost(0.6)),
        const,
    )

    def command_set(out_root):
        return [
            ["verify", "envelope", "--spec", str(gauss), "--events", "60",
             "--seed", "5", "--out", str(out_root / "envelope")],
            ["limit-scan", "--mass", "1.0", "--seed", "5",
             "--out", str(out_root / "scan")],
            ["spectrum", "--spec", str(gauss), "--t-max", "30", "--dt", "0.01",
             "--omegas-from-spec", "--window", "25", "--seed", "5",
             "--out", str(out_root / "spectrum")],
            ["evolve", "kgf", "--spec", str(const), "--grid", "64",
             "--extent", repr(8.0 * np.pi), "--dt", "0.05", "--steps", "20",
             "--snap-every", "10", "--seed", "5", "--out", str(out_root / "evolve")],
        ]

    roots = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        for argv in command_set(root):
            assert cli_main(argv) == 0
        roots.append(root)
    capsys.readouterr()

    mismatched = []
    compared = 0
    for path_a in sorted(roots[0].rglob("*")):
        if path_a.is_dir():
            continue
        path_b = roots[1] / path_a.relative_to(roots[0])
        if path_a.name == "manifest.json":
            recs = []
            for p in (path_a, path_b):
                rec = json.loads(p.read_text())
                rec.pop("created_utc")
                rec["config"]["out"] = None
                recs.append(rec)
            same = recs[0] == recs[1]
        else:
            same = path_a.read_bytes() == path_b.read_bytes()
        compared += 1
        if not same:
            mismatched.append(str(path_a.relative_to(roots[0])))
    ok = compared >= 10 and not mismatched
    criterion(
        11,
        ok,
        f"two seeded CLI runs agree byte for byte: {compared} files compared, "
        f"{len(mismatched)} mismatches {mismatched or ''}",
    )
