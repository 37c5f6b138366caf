"""cli: the ``boostfield`` command, one fresh subprocess per call.

Eight commands run one after another, each paying interpreter start-up
and ``import boostfield`` as a user's call does, so there is no warm-up
pass.  This is the only workload that measures the `cli` layer: start-up,
argument parsing, CSV and binary writes and manifests.  `field` and the
3-d `evolve` are the compute- and write-heavy calls, so a start-up gain
and a gain in the slow calls show apart.  The unit of work is a call.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import wl_certify
import wl_spectral
from harness import Op, Tracer, require
from wl_evolve import DISPERSION_TOL, EXTENT, NORM_DRIFT_TOL

import boostfield as bf

NAME = "cli"
FIELD_POINTS = 100_000
VERIFY_EVENTS = 200
CALL_TIMEOUT_S = 150
EXACT_TOL = 1e-11  # the CLI prints 12 significant digits


@dataclass
class Call:
    label: str
    argv: list[str]
    out: Path | None


@dataclass
class Inputs:
    work: Path
    env: dict
    calls: list[Call]
    field_spec: bf.FieldSpec
    field_tau: float
    boost: tuple[float, tuple[float, float, float, float]]
    spectral: wl_spectral.Inputs
    probes: np.ndarray


def run_cli(argv: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    """``boostfield <argv>`` in a fresh interpreter; waits for it to end."""
    return subprocess.run(
        [sys.executable, "-m", "boostfield", *argv], env=env, cwd=cwd, capture_output=True, timeout=CALL_TIMEOUT_S, check=False
    )


def build(seed: int, tracer: Tracer, work: Path, env: dict) -> Inputs:
    """Write the seeded input files under ``work`` and lay out the eight calls."""
    rng = np.random.default_rng([seed, 4])
    if work.exists():
        shutil.rmtree(work)
    (work / "in").mkdir(parents=True)
    inp = work / "in"

    omega = rng.uniform(1.4, 2.0)
    beta = rng.uniform(0.3, 0.6)
    field_spec = bf.FieldSpec(
        (bf.HarmonicComponent(omega, bf.GaussianProfile(complex(rng.uniform(0.8, 1.2), 0.1), rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.2))),),
        bf.LorentzBoost(beta),
    )
    tracer.call("fields.save_spec", bf.save_spec, field_spec, inp / "spec.json")

    cn_spec = bf.FieldSpec(
        (bf.HarmonicComponent(omega, bf.GaussianProfile(1.0, EXTENT / 2 + rng.uniform(-1.0, 1.0), rng.uniform(2.0, 3.0))),),
        bf.LorentzBoost(rng.uniform(0.1, 0.3)),
    )
    tracer.call("fields.save_spec", bf.save_spec, cn_spec, inp / "spec3d.json")

    # a boosted constant carrier on mode -3 of an 8 pi ring: K = gamma beta omega0 = 0.75
    kb = rng.uniform(0.5, 0.7)
    kgf_omega = 0.75 * np.sqrt((1.0 - kb) * (1.0 + kb)) / kb
    carrier = bf.FieldSpec((bf.HarmonicComponent(kgf_omega, bf.ConstantProfile(1.0)),), bf.LorentzBoost(kb))
    tracer.call("fields.save_spec", bf.save_spec, carrier, inp / "carrier.json")

    sp = wl_spectral.build(seed, tracer)
    t = sp.signal.times
    np.savetxt(
        inp / "signal.csv",
        np.column_stack([t, sp.signal.samples.real, sp.signal.samples.imag]),
        fmt="%.17g",
        delimiter=",",
        header="t,re,im",
        comments="",
    )
    probes = wl_spectral.probes(rng, sp.omegas, 8)

    event = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 4))
    z_lo = -rng.uniform(8.0, 12.0)
    z_hi = rng.uniform(8.0, 12.0)
    tau = rng.uniform(-1.0, 1.0)
    out = work / "out"

    def c(label, argv, with_out=True):
        d = out / label
        return Call(label, argv + ([f"--out={d}"] if with_out else []), d if with_out else None)

    def opt(**kw):
        # "--name=value", so a value that starts with "-" is never read as a flag
        return [f"--{k.replace('_', '-')}={v}" for k, v in kw.items()]

    spec, spec3d, carrier_json = (str(inp / n) for n in ("spec.json", "spec3d.json", "carrier.json"))
    calls = [
        c("boost", ["boost"] + opt(beta=repr(beta), event=",".join(repr(v) for v in event)), with_out=False),
        c("field_axis", ["field"] + opt(spec=spec, tau=repr(tau), z_min=repr(z_lo), z_max=repr(z_hi), n=FIELD_POINTS)),
        c(
            "spectrum_csv",
            ["spectrum"] + opt(csv=inp / "signal.csv", omegas=",".join(repr(float(w)) for w in probes), window="max"),
        ),
        c("verify_envelope", ["verify", "envelope"] + opt(spec=spec, events=VERIFY_EVENTS, seed=seed)),
        c("verify_derivatives", ["verify", "derivatives"] + opt(spec=spec, seed=seed)),
        c(
            "evolve_kgf_1d",
            ["evolve", "kgf"]
            + opt(spec=carrier_json, grid=512, extent=repr(EXTENT), dt=0.02, steps=700, dispersion_modes=-3, seed=seed),
        ),
        c(
            "evolve_schrodinger_3d",
            ["evolve", "schrodinger"]
            + opt(spec=spec3d, grid="32,32,32", extent=repr(EXTENT), dt=0.05, steps=20, seed=seed),
        ),
        Call("config_replay", ["--config", str(inp / "replay.json")], out / "config_replay"),
    ]
    return Inputs(work, env, calls, field_spec, tau, (beta, event), sp, probes)


# -- expectations the benchmark works out itself --------------------------------


def _digests(call: Call, proc: subprocess.CompletedProcess) -> dict[str, str]:
    """sha256 of stdout and of every output file except manifest.json."""
    out = {"<stdout>": hashlib.sha256(proc.stdout).hexdigest()}
    if call.out is not None:
        for p in sorted(call.out.rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                out[str(p.relative_to(call.out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def output_bytes(call: Call, proc: subprocess.CompletedProcess) -> int:
    total = len(proc.stdout)
    if call.out is not None:
        total += sum(p.stat().st_size for p in call.out.rglob("*") if p.is_file() and p.name != "manifest.json")
    return total


def _csv(path: Path, every: int = 1) -> np.ndarray:
    """Numeric CSV body (header skipped), every ``every``-th row."""
    lines = path.read_text().splitlines()[1::every]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


def _check_content(inp: Inputs, call: Call, proc: subprocess.CompletedProcess) -> None:
    label, out = call.label, call.out
    if label == "boost":
        beta, (x, y, z, tau) = inp.boost
        g = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
        want = np.array([x, y, g * (z - beta * tau), g * (tau - beta * z)])
        got = np.array([float(v) for v in proc.stdout.decode().strip().split(",")])
        err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
        require(err <= EXACT_TOL, f"boost printed {got}, expected {want}")
    elif label == "field_axis":
        rows = _csv(out / "field.csv")
        require(rows.shape[0] == FIELD_POINTS, f"field.csv has {rows.shape[0]} rows")
        psi, _ = wl_certify._lab_reference(inp.field_spec, rows[:, 0], inp.field_tau)
        err = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - psi)))
        require(err <= EXACT_TOL, f"field.csv differs from the expected field by {err:.2e}")
    elif label == "spectrum_csv":
        rows = _csv(out / "spectrum.csv")
        require(rows.shape[0] == inp.probes.size, f"spectrum.csv has {rows.shape[0]} rows")
        sp = inp.spectral
        for w, re, im, _, T in rows:
            truth, bound = wl_spectral.extraction_bound(sp.omegas, sp.q, w, T, sp.signal.dt)
            ratio = abs(complex(re, im) - truth) / bound
            require(ratio <= 1.0, f"spectrum.csv q_hat({w:.4f}) off by {ratio:.3f} x the 1/T bound")
    elif label in ("verify_envelope", "verify_derivatives", "config_replay"):
        report = json.loads((out / "report.json").read_text())
        require(report["passed"] is True, f"{label}: report says passed={report['passed']}")
        if label == "config_replay":
            first = (out.parent / "verify_envelope" / "report.json").read_bytes()
            require((out / "report.json").read_bytes() == first, "replayed report differs from the recorded run")
    elif label == "evolve_kgf_1d":
        _, measured, continuum = _csv(out / "dispersion.csv")[0]
        rel = abs(measured - continuum) / continuum
        require(rel <= DISPERSION_TOL, f"dispersion {measured:.6f} vs {continuum:.6f}: rel {rel:.2e}")
    elif label == "evolve_schrodinger_3d":
        norms = _csv(out / "observables.csv")[:, 1]
        drift = abs(norms[-1] - norms[0]) / norms[0]
        require(norms.size == 21 and drift <= NORM_DRIFT_TOL, f"norm drift {drift:.2e} over {norms.size} rows")


def _write_replay(call: Call) -> None:
    """Write the configuration verify_envelope's first run recorded in its manifest, for ``call`` to replay.

    Done in verify_envelope's check, so only the replayed run itself is timed.
    """
    recorded = json.loads((call.out.parent / "verify_envelope" / "manifest.json").read_text())["config"]
    recorded["out"] = str(call.out)
    Path(call.argv[1]).write_text(json.dumps(recorded))


def make_ops(inp: Inputs) -> tuple[list[Op], float]:
    """The operations of one pass and the pass's work: calls.

    Every repeat of a call must reproduce its first run byte for byte
    (manifest.json aside), as the CLI promises for a fixed seed.
    """
    first: dict[str, dict] = {}
    (replay,) = (c for c in inp.calls if c.label == "config_replay")
    ops = []
    for call in inp.calls:

        def go(t: Tracer, call=call):
            return t.call("cli.main", run_cli, call.argv, inp.env, inp.work, tag=call.label)

        def check(proc, call=call):
            err = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            require(proc.returncode == 0, f"{call.label} exited {proc.returncode}: {err}")
            _check_content(inp, call, proc)
            digests = _digests(call, proc)
            if call.label in first:
                require(digests == first[call.label], f"{call.label} output differs from its first run")
            else:
                first[call.label] = digests
                if call.label == "verify_envelope":
                    _write_replay(replay)
            return {f"cli.output_bytes.{call.label}": float(output_bytes(call, proc))}

        ops.append(Op(f"cli.{call.label}", go, check))
    return ops, float(len(ops))
