"""Command-line front end.

Exit codes: 0 success, 1 a verification or evolution failed, 2 bad usage or
configuration.  A flag error is one ``config error:`` line, like a bad
config.  Every exit-2 check comes before the first write, so such a run
leaves nothing behind; a write that fails is itself an exit-2 error.

One recorder per run is the only writer into ``--out``: it makes the
directory at its first write and records each file's name.  A run that
wrote anything gets a manifest.json for exactly those files, whatever its
exit code, recording the resolved configuration, the digest of the spec
bytes it parsed, seed, tolerances and library versions.  The manifest is
the only file that carries a timestamp, so reruns with the same seed are
byte-identical everywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .fields import FieldSpec, MassParameters, _check_spacing, loads_spec
from .kinematics import Event, LorentzBoost, boost_event, inverse_boost_event
from .pde import (
    Grid,
    GridState,
    SolverConfig,
    SolverError,
    _mode_projector,
    _rotation_rate,
    evolve_kgf,
    evolve_schrodinger,
    evolve_wave,
    measure_observables,
)
from .spectral import SampledSignal, sample_rest_signal, scan_spectrum
from .verify import (
    derivative_slopes,
    envelope_equation_residual,
    klein_gordon_residual,
    neglected_term_scan,
    sample_events,
    scalar_invariance_check,
    schrodinger_residual,
    separable_potential,
)


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _ConfigParser(argparse.ArgumentParser):
    """The flag parser, with every failure one ConfigError, for flags and a JSON config alike."""

    def error(self, message):
        raise ConfigError(message)


_TOLERANCES = {
    "envelope": 1e-10,
    "klein-gordon": 1e-10,
    "scalar": 1e-10,
    "schrodinger": 1e-10,
    "derivative_slope_band": [1.9, 2.1],
    "beta4_slope_band": [3.8, 4.2],
}

# the residual checks that take only the spec, component and events
_RESIDUAL_CHECKS = {
    "envelope": envelope_equation_residual,
    "klein-gordon": klein_gordon_residual,
    "scalar": scalar_invariance_check,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved run: command, inputs, parameters, output directory, seed.

    The command's subparser reads the whole config, each value given as its
    flag's text, so a config holds to the flags' types, choices, required
    flags and defaults.  A null value, or false for a switch, leaves the flag
    unset.  The stored params are the parsed flags that are set, as a flag
    run stores them.
    """

    command: str
    spec: str | None
    params: dict
    out: str | None
    seed: int

    def __post_init__(self) -> None:
        ap = _build_parser()
        commands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices
        if not isinstance(self.command, str) or self.command not in commands:
            raise ConfigError(f"unknown command {self.command!r}")
        flags = {a.dest: a for a in commands[self.command]._actions}
        unknown = set(self.params) - (set(flags) - {"help", "spec", "out", "seed"})
        if unknown:
            raise ConfigError(
                f"unknown parameters for {self.command}: {sorted(unknown)}"
            )
        argv, positional = [], []
        for dest, value in dict(self.params, spec=self.spec, out=self.out, seed=self.seed).items():
            flag = flags[dest].option_strings[:1]
            if value is None:
                continue
            if not flag:  # the check or equation, read as one even if it starts with "-"
                positional = ["--", str(value)]
            elif flags[dest].nargs != 0:
                argv.append(f"{flag[0]}={value}")
            elif isinstance(value, bool):  # a store_true switch
                argv += flag if value else []
            else:
                raise ConfigError(f"{flag[0]} takes true or false, got {value!r}")
        ns = vars(commands[self.command].parse_args(argv + positional))
        for name in ("spec", "out", "seed"):
            object.__setattr__(self, name, ns.pop(name))
        object.__setattr__(self, "params", {k: v for k, v in ns.items() if v is not None and v is not False})

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a mapping")
        required = {"command", "spec", "params", "out", "seed"}
        if set(d) != required:
            raise ConfigError(
                f"config keys must be exactly {sorted(required)}, got {sorted(d)}"
            )
        if not isinstance(d["params"], dict):
            raise ConfigError(f"config params must be a mapping, got {d['params']!r}")
        return cls(d["command"], d["spec"], dict(d["params"]), d["out"], d["seed"])


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


class _Outputs:
    """The run's one writer into --out: each file by name, the directory made at the first write.

    ``inputs`` maps each spec path to the sha256 of the bytes parsed from it.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.names: set[str] = set()
        self.inputs: dict[str, str] = {}

    def write_bytes(self, name: str, data: bytes) -> None:
        if not self.cfg.out:
            raise ConfigError(f"command {self.cfg.command!r} needs an output directory (--out)")
        path = Path(self.cfg.out, name)
        try:
            if not self.names:
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:  # a file in the way, a directory at the name, no permission
            raise ConfigError(f"cannot write {path}: {exc}") from None
        self.names.add(name)

    def write_json(self, name: str, obj) -> None:
        self.write_bytes(name, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())

    def write_csv(self, name: str, header: list[str], columns) -> None:
        """One row per index of the columns: numbers as their float repr, str columns as given."""
        cells = [col if isinstance(col[0], str) else map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
        lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
        self.write_bytes(name, ("\r\n".join(lines) + "\r\n").encode())  # the \r\n rows csv.writer wrote

    def close(self) -> None:
        """Write the manifest for the files written, if there are any."""
        if not self.names:
            return
        import importlib.metadata  # read scipy's version without importing scipy

        self.write_json("manifest.json", {
            "config": self.cfg.to_dict(),
            "inputs": self.inputs,
            "tolerances": _TOLERANCES,
            "versions": {
                "boostfield": __version__,
                "numpy": np.__version__,
                "scipy": importlib.metadata.version("scipy"),
                "python": platform.python_version(),
            },
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "outputs": sorted(self.names),
        })


def _refuse_spec(cfg: ExperimentConfig, name: str) -> None:
    """Refuse a --spec that the command never reads, before it writes anything."""
    if cfg.spec is not None:
        raise ConfigError(f"{name} reads no field spec; drop --spec {cfg.spec}")


def _load_spec_arg(cfg: ExperimentConfig, out: _Outputs) -> FieldSpec:
    """The spec parsed from one read of --spec; the recorder keeps those bytes' digest."""
    if not cfg.spec:
        raise ConfigError(f"command {cfg.command!r} needs a field spec (--spec)")
    try:
        data = Path(cfg.spec).read_bytes()
        spec = loads_spec(data.decode())
    except FileNotFoundError:
        raise ConfigError(f"spec file not found: {cfg.spec}") from None
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"cannot read spec file {cfg.spec}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad spec file {cfg.spec}: {exc}") from None
    out.inputs[cfg.spec] = hashlib.sha256(data).hexdigest()
    return spec


def _parse_floats(text: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse float list from {text!r}") from None
    if n is not None and len(vals) != n:
        raise ConfigError(f"expected {n} comma-separated values, got {text!r}")
    return vals


def _component(spec: FieldSpec, p: dict) -> int:
    """The --component index, checked against the spec; the first oscillating one if absent."""
    n = len(spec.components)
    if "component" in p:
        k = p["component"]
        if not 0 <= k < n:
            raise ConfigError(f"--component {k} out of range: the spec has components 0..{n - 1}")
        return k
    for i, comp in enumerate(spec.components):
        if comp.omega > 0:
            return i
    raise ConfigError("spec has no oscillating component")


def _stencil_spacing(p: dict) -> float | None:
    h = p.get("h")
    if h is not None:
        _check_spacing(h, "--h")
    return h


def _events_for(spec: FieldSpec, params: dict, n: int, seed: int):
    box_z = tuple(_parse_floats(params["box_z"], 2)) if params.get("box_z") else (-1.0, 1.0)
    box_tau = tuple(_parse_floats(params["box_tau"], 2)) if params.get("box_tau") else (-1.0, 1.0)
    return sample_events(n, seed, z=box_z, tau=box_tau)


# -- command bodies ---------------------------------------------------------


def _run_boost(cfg: ExperimentConfig, out: _Outputs) -> int:
    _refuse_spec(cfg, "boost")
    p = cfg.params
    b = LorentzBoost(p["beta"], p["c"])
    e = Event(*_parse_floats(p["event"], 4))
    moved = inverse_boost_event(e, b) if p.get("inverse") else boost_event(e, b)
    line = ",".join(_fmt(v) for v in (moved.x, moved.y, moved.z, moved.tau))
    print(line)
    if cfg.out:
        out.write_json(
            "boost.json",
            {
                "input": [e.x, e.y, e.z, e.tau],
                "beta": b.beta,
                "inverse": "inverse" in p,
                "output": [moved.x, moved.y, moved.z, moved.tau],
            },
        )
    return 0


def _run_field(cfg: ExperimentConfig, out: _Outputs) -> int:
    spec = _load_spec_arg(cfg, out)
    p = cfg.params
    if p.get("event"):  # the sampled path at one point
        e = Event(*_parse_floats(p["event"], 4))
        z, tau = e.z, e.tau
    else:
        for key in ("tau", "z_min", "z_max", "n"):
            if key not in p:
                raise ConfigError("field sampling needs tau, z_min, z_max and n (or event)")
        if p["n"] < 2:
            raise ConfigError("need at least 2 sample points")
        z, tau = np.linspace(p["z_min"], p["z_max"], p["n"]), p["tau"]
    ks = [_component(spec, p)] if "component" in p else range(len(spec.components))
    psi = sum(spec.harmonic_on_axis(k, z, tau) for k in ks)
    phi = sum(np.square(np.abs(spec.envelope_on_axis(k, z, tau))) for k in ks)
    if not p.get("event"):
        out.write_csv("field.csv", ["z", "re_psi", "im_psi", "phi"], [z, psi.real, psi.imag, phi])
        return 0
    psi, phi = complex(psi), float(phi)
    print(f"{_fmt(psi.real)},{_fmt(psi.imag)},{_fmt(phi)}")
    if cfg.out:
        record = {"event": [e.x, e.y, e.z, e.tau], "psi": [psi.real, psi.imag], "scalar_density": phi}
        out.write_json("field.json", record)
    return 0


def _read_csv_columns(path: str, what: str, names: tuple[str, ...]) -> np.ndarray:
    """The named columns of a csv file with a header row, one float array per name."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the caller reports a file without rows
            header = [name.strip() for name in fh.readline().split(",")]
            if not set(names) <= set(header):
                raise ConfigError(f"{what} csv needs columns {', '.join(names)}")
            cols = [header.index(name) for name in names]
            return np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2).T
    except (OSError, ValueError) as exc:  # a missing file, a ragged row, a bad number
        raise ConfigError(f"cannot read {what} csv {path}: {exc}") from None


def _read_signal_csv(path: str) -> SampledSignal:
    t, re, im = _read_csv_columns(path, "signal", ("t", "re", "im"))
    if t.size < 2:
        raise ConfigError("signal csv needs at least 2 rows")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ConfigError("signal csv must be uniformly sampled")
    return SampledSignal(re + 1j * im, float(dts[0]), float(t[0]))


def _run_spectrum(cfg: ExperimentConfig, out: _Outputs) -> int:
    p = cfg.params
    if p.get("csv"):
        sig = _read_signal_csv(p["csv"])
        spec = _load_spec_arg(cfg, out) if cfg.spec else None
    else:
        spec = _load_spec_arg(cfg, out)
        for key in ("t_max", "dt"):
            if key not in p:
                raise ConfigError("synthesized spectrum needs t_max and dt")
        sig = sample_rest_signal(spec, p["z"], p["t_max"], p["dt"])
    if p.get("omegas_from_spec"):
        if spec is None:
            raise ConfigError("--omegas-from-spec needs --spec")
        omegas = [c.omega for c in spec.components]
    elif p.get("omegas"):
        omegas = _parse_floats(p["omegas"])
    else:
        raise ConfigError("spectrum needs probe frequencies (--omegas or --omegas-from-spec)")
    window = p["window"]
    T = sig.max_symmetric_window() if window == "max" else float(window)
    est = scan_spectrum(sig, omegas, T)
    rows = [(ent.omega, ent.q_hat.real, ent.q_hat.imag, abs(ent.q_hat), ent.window_T) for ent in est.entries]
    out.write_csv("spectrum.csv", ["omega", "re_q", "im_q", "abs_q", "window_T"], zip(*rows))
    out.write_json("spectrum.json", {"residual_rms": est.residual_rms, "window_T": T})
    return 0


def _mass_from_params(p: dict, fallback_m: float | None = None) -> MassParameters:
    m = p.get("mass", fallback_m)
    if m is None:
        raise ConfigError("need --mass (plus optional --hbar, --c)")
    return MassParameters(m, p["hbar"], p["c"])


def _scan(p: dict):
    """The rest-energy correction scan that verify beta4 and limit-scan both run."""
    mass = _mass_from_params(p)
    betas = _parse_floats(p["betas"]) if p.get("betas") else [0.01, 0.02, 0.04, 0.08]
    return neglected_term_scan(mass, betas)


def _run_verify(cfg: ExperimentConfig, out: _Outputs) -> int:
    p = cfg.params
    check = p["check"]
    if "h" in p and check != "derivatives":
        raise ConfigError(f"--h applies only to verify derivatives, not to verify {check}")
    if check == "beta4":
        _refuse_spec(cfg, "verify beta4")
        scan = _scan(p)
        lo, hi = _TOLERANCES["beta4_slope_band"]
        ok = lo <= scan.fitted_slope <= hi
        out.write_json("report.json", {"check": check, "passed": bool(ok), "scan": scan.to_dict()})
        if not ok:
            raise VerificationFailure(
                f"beta4 slope {scan.fitted_slope:.4f} outside [{lo}, {hi}]"
            )
        return 0

    spec = _load_spec_arg(cfg, out)
    k = _component(spec, p)
    events = _events_for(spec, p, p["events"], cfg.seed)

    if check == "derivatives":
        h = _stencil_spacing(p)
        hs = None if h is None else [h, h / 2.0, h / 4.0]
        slopes = derivative_slopes(spec, k, events[: min(len(events), 8)], hs=hs)
        lo, hi = _TOLERANCES["derivative_slope_band"]
        bad = {n: s for n, s in slopes.items() if s is not None and not (lo <= s <= hi)}
        report = {
            "check": check,
            "passed": not bad,
            "slopes": {n: s for n, s in slopes.items()},
            "slope_band": [lo, hi],
        }
        out.write_json("report.json", report)
        names = sorted(slopes)
        cells = ["" if slopes[n] is None else repr(slopes[n]) for n in names]
        out.write_csv("derivative_slopes.csv", ["entry", "slope"], [names, cells])
        if bad:
            raise VerificationFailure(f"derivative slopes out of band: {bad}")
        return 0

    default = _TOLERANCES[check]
    if check == "schrodinger":
        mass = _mass_from_params(p, fallback_m=spec.components[k].omega)
        u = separable_potential(spec, k)
        rep = schrodinger_residual(spec, k, mass, u, events, gamma_mode=p["gamma_mode"])
        if p["gamma_mode"] == "unity":
            default = float("inf")
    else:
        rep = _RESIDUAL_CHECKS[check](spec, k, events)
    tol = p.get("tolerance", default)
    ok = rep.max_abs <= tol
    out.write_json("report.json", {"check": check, "passed": bool(ok), "tolerance": tol, "report": rep.to_dict()})
    if not ok:
        raise VerificationFailure(
            f"{check} residual max {rep.max_abs:.3e} above tolerance {tol:.3e}"
        )
    return 0


def _write_snapshot(out: _Outputs, state: GridState, index: int) -> None:
    base = f"snap_{index:06d}"
    if state.grid.dim == 1:
        out.write_csv(f"{base}.csv", ["z", "re", "im"], [state.grid.axis(0), state.field.real, state.field.imag])
        return
    data = np.empty(state.field.shape + (2,), dtype="<f8")
    data[..., 0] = state.field.real
    data[..., 1] = state.field.imag
    out.write_bytes(f"{base}.bin", data.tobytes(order="C"))
    out.write_json(
        f"{base}.json",
        {
            "shape": list(state.field.shape),
            "dtype": "<f8",
            "layout": "C-order, innermost axis interleaves re,im",
            "t": state.t,
            "step": state.step_count,
        },
    )


# the flags each equation never reads; kgf reads --mass only without --mass-scalar
_UNREAD = {
    "wave": ("mass", "mass_scalar", "potential_from_spec"),
    "schrodinger": ("mass_scalar",),
    "kgf": ("potential_from_spec",),
}


def _run_evolve(cfg: ExperimentConfig, out: _Outputs) -> int:
    p = cfg.params
    equation = p["equation"]
    for name in _UNREAD[equation]:
        if name in p:
            raise ConfigError(f"evolve {equation} reads no --{name.replace('_', '-')}; drop it")
    if equation == "kgf" and "mass" in p and "mass_scalar" in p:
        raise ConfigError("evolve kgf reads --mass only without --mass-scalar; drop one")
    if p["snap_every"] < 0:
        raise ConfigError(f"--snap-every must be >= 0, got {p['snap_every']}")
    pts = tuple(int(v) for v in _parse_floats(p["grid"]))
    ext = tuple(_parse_floats(p["extent"]))
    if len(ext) == 1 and len(pts) > 1:
        ext = ext * len(pts)
    grid = Grid(ext, pts)

    second_order = equation in ("kgf", "wave")
    spec = None
    if p.get("init"):
        _refuse_spec(cfg, "evolve --init")
        if "component" in p:
            raise ConfigError("evolve --init reads no --component; drop it")
        if grid.dim != 1:
            raise ConfigError("--init supports 1-d csv snapshots with a z column")
        names = ("z", "re", "im") + (("pi_re", "pi_im") if second_order else ())
        cols = _read_csv_columns(p["init"], "init", names)
        if cols[0].size != grid.points[0]:
            raise ConfigError("init snapshot size does not match grid")
        if not np.all(np.isfinite(cols)):
            raise ConfigError(f"init csv {p['init']} holds non-finite values")
        field = cols[1] + 1j * cols[2]
        pi = cols[3] + 1j * cols[4] if second_order else None
    else:
        spec = _load_spec_arg(cfg, out)
        k = _component(spec, p)
        z = grid.axis(grid.dim - 1)
        if equation == "schrodinger":
            lines = spec.envelope_on_axis(k, z, 0.0), None
        else:
            lines = spec.harmonic_on_axis(k, z, 0.0), spec.harmonic_dtau_on_axis(k, z, 0.0)
        field, pi = (None if a is None else np.broadcast_to(a, grid.points).copy() for a in lines)

    state = GridState(grid, field, pi)

    mass = None
    mass_scalar = None
    potential = None
    if equation == "schrodinger":
        fallback = spec.components[k].omega if spec is not None else None
        mass = _mass_from_params(p, fallback_m=fallback)
        if p.get("potential_from_spec"):
            if spec is None:
                raise ConfigError("--potential-from-spec needs --spec in place of --init")
            potential = separable_potential(spec, k)
        scheme = "crank_nicolson"
    else:
        scheme = "leapfrog"
        if equation == "wave":
            mass_scalar = 0.0
        elif "mass_scalar" in p:
            mass_scalar = p["mass_scalar"]
        else:
            # intrinsic default: the carrier frequency is m c / hbar
            fallback = spec.components[k].omega if spec is not None else None
            mass = _mass_from_params(p, fallback_m=fallback)
    sc = SolverConfig(
        dt=p["dt"],
        steps=p["steps"],
        scheme=scheme,
        mass=mass,
        mass_scalar=mass_scalar,
        potential=potential,
    )

    modes = _parse_floats(p["dispersion_modes"]) if p.get("dispersion_modes") else []
    if not all(m.is_integer() for m in modes):
        raise ConfigError(f"--dispersion-modes takes integers, got {p['dispersion_modes']!r}")
    if modes and sc.steps < 2:
        raise ConfigError("--dispersion-modes needs at least 2 steps to fit a rotation rate")
    ks = [2.0 * np.pi * m / grid.extents[-1] for m in modes]
    project = _mode_projector(grid, ks)  # ValueError, so exit 2, on a 3-d grid or an aliased mode
    continuum = lambda k: float(np.sqrt(k * k + sc.resolved_mass_scalar()))
    if modes and equation == "schrodinger":  # exp(ikz) under psi_t = i (hbar / 2mc)(-lap + u) psi, u constant
        u = sc.potential_on(grid)
        if np.any(u != u[0]):
            raise ConfigError("--dispersion-modes needs a constant potential; this one varies along z")
        continuum = lambda k: abs(mass.hbar / (2.0 * mass.m * mass.c) * (k * k + u[0]))

    snap_every = p["snap_every"]
    obs_rows = []
    coeffs: list[np.ndarray] = []
    times: list[float] = []

    def record(st: GridState) -> None:
        obs = measure_observables(st, sc)  # resolves the potential, so its refusal comes before any write
        if st.step_count == 0 or snap_every and st.step_count % snap_every == 0:
            _write_snapshot(out, st, st.step_count)
        obs_rows.append(
            (st.t, obs.norm, obs.energy)
            + obs.centroid
            + obs.width
        )
        if modes:  # each coefficient as measure_dispersion takes it
            times.append(st.t)
            coeffs.append(project(st.field))

    record(state)

    evolve = {
        "schrodinger": evolve_schrodinger,
        "kgf": evolve_kgf,
        "wave": evolve_wave,
    }[equation]
    final = evolve(state, sc, monitor=record)

    axes = ["z"] if grid.dim == 1 else ["x", "y", "z"]
    header = ["t", "norm", "energy"] + [f"centroid_{a}" for a in axes] + [f"width_{a}" for a in axes]
    out.write_csv("observables.csv", header, zip(*obs_rows))
    _write_snapshot(out, final, final.step_count)

    if modes:
        rows = []
        t_arr = np.asarray(times)
        for m, k, series in zip(modes, ks, np.array(coeffs).T):
            try:
                rows.append((k, _rotation_rate(t_arr, series), continuum(k)))
            except ValueError as exc:  # a weak mode
                raise VerificationFailure(f"mode {m:g}: {exc}") from None
        out.write_csv("dispersion.csv", ["k", "omega_measured", "omega_continuum"], zip(*rows))
    return 0


def _run_limit_scan(cfg: ExperimentConfig, out: _Outputs) -> int:
    _refuse_spec(cfg, "limit-scan")
    scan = _scan(cfg.params)
    out.write_csv("beta_term.csv", ["beta", "term"], zip(*scan.points))
    out.write_json("scan.json", scan.to_dict())
    return 0


_RUNNERS = {
    "boost": _run_boost,
    "field": _run_field,
    "spectrum": _run_spectrum,
    "verify": _run_verify,
    "evolve": _run_evolve,
    "limit-scan": _run_limit_scan,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one configured command; returns the process exit code.

    The manifest for what the command wrote comes last, whatever the exit
    code; a manifest that cannot be written makes the run exit 2.
    """
    out = _Outputs(cfg)
    with warnings.catch_warnings(record=True) as caught:  # each one line, not Python's two
        try:
            try:
                return _RUNNERS[cfg.command](cfg, out)
            finally:
                out.close()
        except VerificationFailure as exc:
            code, message = 1, f"FAIL: {exc}"
        except SolverError as exc:
            code, message = 1, f"solver error: {exc}"
        except (ConfigError, ValueError) as exc:
            code, message = 2, f"config error: {exc}"
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(message, file=sys.stderr)
    return code


# -- argument parsing --------------------------------------------------------


def _build_parser() -> _ConfigParser:
    ap = _ConfigParser(
        prog="boostfield",
        description="Boosted almost-periodic fields: evaluate, extract, verify, evolve.",
    )
    ap.add_argument("--config", help="run a JSON ExperimentConfig instead of flags")
    sub = ap.add_subparsers(dest="command")

    def common(sp, needs_spec=False):
        sp.add_argument("--spec", required=needs_spec, help="field spec JSON")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("boost", help="apply the coordinate map to one event")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--event", required=True, help="x,y,z,tau")
    sp.add_argument("--inverse", action="store_true")
    common(sp)

    sp = sub.add_parser("field", help="evaluate the lab field")
    sp.add_argument("--event", help="x,y,z,tau")
    sp.add_argument("--component", type=int)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--z-min", type=float, dest="z_min")
    sp.add_argument("--z-max", type=float, dest="z_max")
    sp.add_argument("--n", type=int)
    common(sp, needs_spec=True)

    sp = sub.add_parser("spectrum", help="boxcar harmonic extraction")
    sp.add_argument("--csv", help="signal csv with t,re,im columns")
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--omegas", help="comma-separated probe frequencies")
    sp.add_argument("--omegas-from-spec", action="store_true", dest="omegas_from_spec")
    sp.add_argument("--window", default="max", help="half-width T or 'max'")
    common(sp)

    sp = sub.add_parser("verify", help="residual and convergence certification")
    sp.add_argument(
        "check",
        choices=["envelope", "schrodinger", "klein-gordon", "scalar", "beta4", "derivatives"],
    )
    sp.add_argument("--component", type=int)
    sp.add_argument("--events", type=int, default=100)
    sp.add_argument("--h", type=float)
    sp.add_argument("--gamma-mode", choices=["exact", "unity"], default="exact", dest="gamma_mode")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--betas", help="comma-separated betas for beta4")
    sp.add_argument("--tolerance", type=float)
    sp.add_argument("--box-z", dest="box_z", help="zlo,zhi event box")
    sp.add_argument("--box-tau", dest="box_tau", help="taulo,tauhi event box")
    common(sp)

    sp = sub.add_parser("evolve", help="finite-difference evolution")
    sp.add_argument("equation", choices=["schrodinger", "kgf", "wave"])
    sp.add_argument("--component", type=int)
    sp.add_argument("--init", help="1-d csv snapshot (z,re,im[,pi_re,pi_im])")
    sp.add_argument("--grid", required=True, help="points per axis, e.g. 512 or 32,32,32")
    sp.add_argument("--extent", required=True, help="domain length per axis")
    sp.add_argument("--dt", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--snap-every", type=int, default=0, dest="snap_every")
    sp.add_argument("--mass-scalar", type=float, dest="mass_scalar")
    sp.add_argument("--mass", type=float)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--potential-from-spec", action="store_true", dest="potential_from_spec")
    sp.add_argument("--dispersion-modes", dest="dispersion_modes", help="integer mode numbers")
    common(sp)

    sp = sub.add_parser("limit-scan", help="rest-energy correction against beta")
    sp.add_argument("--mass", type=float, required=True)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--betas", help="comma-separated betas")
    common(sp)

    return ap


def _config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config", "spec", "out", "seed")}
    return ExperimentConfig(ns.command, ns.spec, params, ns.out, ns.seed)


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if ns.config:
            try:
                record = json.loads(Path(ns.config).read_text())
            except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
                raise ConfigError(f"cannot load config {ns.config}: {exc}") from None
            cfg = ExperimentConfig.from_dict(record)
        elif ns.command is None:
            raise ConfigError("name a command, or a config with --config")
        else:
            cfg = _config_from_args(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
