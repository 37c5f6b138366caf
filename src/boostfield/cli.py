"""Command-line front end.

Exit codes: 0 success, 1 a verification or evolution failed, 2 bad usage or
configuration.  A flag error is one ``config error:`` line, like a bad
config.  Every exit-2 check comes before the first write, so such a run
leaves nothing behind; a write that fails is itself an exit-2 error.

Each command, and each check of ``verify`` and equation of ``evolve``, has
its own parser, which declares exactly the flags that the run reads.  Flags
follow the check or equation name, a flag that the mode does not read exits
2, and ``--out`` is required except by ``boost`` and ``field --event``.
Within one parser, ``field --event`` refuses the grid flags, ``spectrum
--csv`` refuses ``--z``, ``--t-max``, ``--dt`` and a ``--spec`` without
``--omegas-from-spec``, and ``evolve --init`` refuses ``--component``.  A
config is read by the same parser, so one recorded by 0.1.0 that holds a
default its mode does not read is refused; ``--config`` with a command
beside it is refused too.

One recorder per run is the only writer into ``--out``: it makes the
directory at its first write and records each file's name.  A run that
wrote anything gets a manifest.json for exactly those files, whatever its
exit code, recording the resolved configuration, the digest of the spec
bytes it parsed, seed, tolerances and library versions.  The manifest is
the only file that carries a timestamp, so reruns with the same seed are
byte-identical everywhere else.

Every ``evolve`` snapshot is one ``snap_NNNNNN.npz`` of the state's z-line:
``z``, ``psi``, ``pi`` for ``kgf`` and ``wave``, ``t`` and ``step``.  ``evolve
--init`` reads exactly that file, on a 1-d or 3-d grid with its z axis.

A call loads only what its command runs.  At import this module loads
kinematics and no numeric module; each command imports its modules when it
runs, so ``--help``, a flag error, a config that its parser refuses and
``boost`` load no numpy.  The manifest reads the numpy and scipy versions
from their installed METADATA, importing neither.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .kinematics import Event, LorentzBoost, boost_event, inverse_boost_event

if TYPE_CHECKING:
    import numpy as np

    from .fields import FieldSpec, MassParameters
    from .pde import GridState
    from .spectral import SampledSignal


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _ConfigParser(argparse.ArgumentParser):
    """The flag parser, with every failure one ConfigError, for flags and a JSON config alike.

    A flag is read only by its full name, so a flag that a mode does not
    declare is never taken for a prefix of one that it does.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

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

# the residual checks that take only the spec, component and events, by their name in verify
_RESIDUAL_CHECKS = {
    "envelope": "envelope_equation_residual",
    "klein-gordon": "klein_gordon_residual",
    "scalar": "scalar_invariance_check",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved run: command, inputs, parameters, output directory, seed.

    The parser of the command, or of the check or equation that ``params``
    names, reads the whole config, each value given as its flag's text, so a
    config holds to the flags' types, choices, required flags, alternatives
    and defaults.  A null value, or false for a switch, leaves the flag
    unset.  The stored params are the parsed flags that are set, as a flag
    run stores them.
    """

    command: str
    spec: str | None
    params: dict
    out: str | None
    seed: int

    def __post_init__(self) -> None:
        parser = _modes(_build_parser()).choices.get(self.command) if isinstance(self.command, str) else None
        if parser is None:
            raise ConfigError(f"unknown command {self.command!r}")
        name, params, modes = self.command, dict(self.params), _modes(parser)
        if modes:  # the check or equation is a parser's name, never argv, so never read as a flag
            mode = params.pop(modes.dest, None)
            if not isinstance(mode, str) or mode not in modes.choices:
                choices = ", ".join(map(repr, modes.choices))
                raise ConfigError(f"argument {modes.dest}: invalid choice: {mode!r} (choose from {choices})")
            parser, name = modes.choices[mode], f"{name} {mode}"
        flags = {a.dest: a for a in parser._actions}
        unknown = (set(params) - set(flags)) | (set(params) & {"help", "spec", "out", "seed"})
        if self.spec is not None and "spec" not in flags:
            unknown.add("spec")
        if unknown:
            raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")
        argv = []
        for dest, value in dict(params, spec=self.spec, out=self.out, seed=self.seed).items():
            if value is None:
                continue
            flag = flags[dest].option_strings[0]
            if flags[dest].nargs != 0:
                argv.append(f"{flag}={value}")
            elif isinstance(value, bool):  # a store_true switch
                argv += [flag] if value else []
            else:
                raise ConfigError(f"{flag} takes true or false, got {value!r}")
        ns = vars(parser.parse_args(argv))
        for key in ("spec", "out", "seed"):
            object.__setattr__(self, key, ns.pop(key, None))
        if modes:
            ns[modes.dest] = mode
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

    ``inputs`` maps each input file's path to the sha256 of the bytes read from it.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.names: set[str] = set()
        self.inputs: dict[str, str] = {}

    def read_input(self, path: str, what: str) -> bytes:
        """The bytes of one input file, read once; the manifest records their digest."""
        import hashlib

        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            raise ConfigError(f"{what} not found: {path}") from None
        except OSError as exc:  # a directory, no permission
            raise ConfigError(f"cannot read {what} {path}: {exc}") from None
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return data

    def write_bytes(self, name: str, data: bytes) -> None:
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
        import numpy as np

        cells = [col if isinstance(col[0], str) else map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
        lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
        self.write_bytes(name, ("\r\n".join(lines) + "\r\n").encode())  # the \r\n rows csv.writer wrote

    def close(self) -> None:
        """Write the manifest for the files written, if there are any."""
        if not self.names:
            return
        import platform
        from datetime import datetime, timezone

        self.write_json("manifest.json", {
            "config": self.cfg.to_dict(),
            "inputs": self.inputs,
            "tolerances": _TOLERANCES,
            "versions": {
                "boostfield": __version__,
                "numpy": _installed_version("numpy"),
                "scipy": _installed_version("scipy"),
                "python": platform.python_version(),
            },
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "outputs": sorted(self.names),
        })


def _installed_version(package: str) -> str | None:
    """``importlib.metadata.version(package)`` without importing either: the Version header of
    the METADATA in the ``<package>-*.dist-info`` beside the package; None if there is none."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return None
    for metadata in sorted(Path(spec.origin).parent.parent.glob(f"{package}-*.dist-info/METADATA")):
        with metadata.open(encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Version:"):
                    return line.removeprefix("Version:").strip()
                if not line.strip():  # the end of the headers
                    break
    return None


def _load_spec_arg(cfg: ExperimentConfig, out: _Outputs) -> FieldSpec:
    """The spec parsed from the one read of --spec."""
    from .fields import loads_spec

    try:
        return loads_spec(out.read_input(cfg.spec, "spec file").decode())
    except ValueError as exc:
        raise ConfigError(f"bad spec file {cfg.spec}: {exc}") from None


def _parse_floats(text: str, n: int | None = None) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse float list from {text!r}") from None
    if n is not None and len(vals) != n:
        raise ConfigError(f"expected {n} comma-separated values, got {text!r}")
    return vals


def _parse_ints(p: dict, key: str) -> list[int]:
    """The comma-separated integers of a flag, refused with one line if any is not one; [] if unset."""
    vals = _parse_floats(p[key]) if p.get(key) else []
    if not all(v.is_integer() for v in vals):
        raise ConfigError(f"--{key.replace('_', '-')} takes integers, got {p[key]!r}")
    return [int(v) for v in vals]


def _refuse_unread(p: dict, mode: str, keys: tuple[str, ...]) -> None:
    """Refuse the flags among ``keys`` that ``p`` sets: ``mode`` reads none of them."""
    given = ["--" + key.replace("_", "-") for key in keys if key in p]
    if given:
        raise ConfigError(f"{mode} reads no {', '.join(given)}; drop {'it' if len(given) == 1 else 'them'}")


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


# -- command bodies ---------------------------------------------------------


def _run_boost(cfg: ExperimentConfig, out: _Outputs) -> int:
    p = cfg.params
    b = LorentzBoost(p["beta"])
    e = Event(*_parse_floats(p["event"], 4))
    moved = inverse_boost_event(e, b) if p.get("inverse") else boost_event(e, b)
    print(",".join(map(_fmt, moved)))
    if cfg.out:
        out.write_json("boost.json", {"input": list(e), "beta": b.beta, "inverse": "inverse" in p, "output": list(moved)})
    return 0


def _run_field(cfg: ExperimentConfig, out: _Outputs) -> int:
    import numpy as np

    p = cfg.params
    if p.get("event"):  # the sampled path at one point
        _refuse_unread(p, "field --event", ("tau", "z_min", "z_max", "n"))
        e = Event(*_parse_floats(p["event"], 4))
        z, tau = e.z, e.tau
    else:
        for key in ("tau", "z_min", "z_max", "n"):
            if key not in p:
                raise ConfigError("field sampling needs tau, z_min, z_max and n (or event)")
        if p["n"] < 2:
            raise ConfigError("need at least 2 sample points")
        if not cfg.out:
            raise ConfigError("field on a grid writes field.csv; it needs --out")
        z, tau = np.linspace(p["z_min"], p["z_max"], p["n"]), p["tau"]
    spec = _load_spec_arg(cfg, out)
    ks = [_component(spec, p)] if "component" in p else range(len(spec.components))
    psi = sum(spec.harmonic_on_axis(k, z, tau) for k in ks)
    phi = sum(np.square(np.abs(spec.envelope_on_axis(k, z, tau))) for k in ks)
    if not p.get("event"):
        out.write_csv("field.csv", ["z", "re_psi", "im_psi", "phi"], [z, psi.real, psi.imag, phi])
        return 0
    psi, phi = complex(psi), float(phi)
    print(f"{_fmt(psi.real)},{_fmt(psi.imag)},{_fmt(phi)}")
    if cfg.out:
        out.write_json("field.json", {"event": list(e), "psi": [psi.real, psi.imag], "scalar_density": phi})
    return 0


def _read_signal_csv(out: _Outputs, path: str) -> SampledSignal:
    """The t, re and im columns, read by name, of a signal csv with a header row."""
    import numpy as np

    from .spectral import SampledSignal

    data = out.read_input(path, "signal csv")
    names = ("t", "re", "im")
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows is refused below
            header = [name.strip() for name in fh.readline().split(",")]
            if not set(names) <= set(header):
                raise ConfigError(f"signal csv needs columns {', '.join(names)}")
            t, re, im = np.loadtxt(fh, delimiter=",", usecols=[header.index(n) for n in names], ndmin=2).T
    except ValueError as exc:  # not UTF-8, a ragged row, a bad number
        raise ConfigError(f"cannot read signal csv {path}: {exc}") from None
    if t.size < 2:
        raise ConfigError("signal csv needs at least 2 rows")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ConfigError("signal csv must be uniformly sampled")
    return SampledSignal(re + 1j * im, float(dts[0]), float(t[0]))


def _run_spectrum(cfg: ExperimentConfig, out: _Outputs) -> int:
    from .spectral import sample_rest_signal, scan_spectrum

    p = cfg.params
    if p.get("csv"):
        _refuse_unread(p, "spectrum --csv", ("z", "t_max", "dt"))
        if cfg.spec and not p.get("omegas_from_spec"):
            raise ConfigError("spectrum --csv reads --spec only for --omegas-from-spec; drop it")
    spec = _load_spec_arg(cfg, out) if cfg.spec else None
    if p.get("csv"):
        sig = _read_signal_csv(out, p["csv"])
    elif spec is None or "t_max" not in p or "dt" not in p:
        raise ConfigError("spectrum reads --csv, or synthesizes a signal from --spec, --t-max and --dt")
    else:
        sig = sample_rest_signal(spec, p.get("z", 0.0), p["t_max"], p["dt"])
    if p.get("omegas_from_spec"):
        if spec is None:
            raise ConfigError("--omegas-from-spec needs --spec")
        omegas = [c.omega for c in spec.components]
    else:
        omegas = _parse_floats(p["omegas"])
    window = p["window"]
    T = sig.max_symmetric_window() if window == "max" else float(window)
    est = scan_spectrum(sig, omegas, T)
    rows = [(ent.omega, ent.q_hat.real, ent.q_hat.imag, abs(ent.q_hat), ent.window_T) for ent in est.entries]
    out.write_csv("spectrum.csv", ["omega", "re_q", "im_q", "abs_q", "window_T"], zip(*rows))
    out.write_json("spectrum.json", {"residual_rms": est.residual_rms, "window_T": T})
    return 0


def _mass_from_params(p: dict, omega: float | None = None) -> MassParameters:
    """--mass, --hbar and --c; without --mass, the mass whose carrier m c / hbar is ``omega``."""
    from .fields import MassParameters

    if "mass" in p:
        m = p["mass"]
    elif omega is None:
        raise ConfigError("need --mass (plus optional --hbar, --c)")
    else:
        m = omega * p["hbar"] / p["c"]
    return MassParameters(m, p["hbar"], p["c"])


def _scan(p: dict):
    """The rest-energy scan of verify beta4 and limit-scan; m c^2 (gamma - 1)^2 / 2 reads no hbar, so 1 stands in."""
    from .fields import MassParameters
    from .verify import neglected_term_scan

    betas = _parse_floats(p["betas"]) if p.get("betas") else [0.01, 0.02, 0.04, 0.08]
    return neglected_term_scan(MassParameters(p["mass"], 1.0, p["c"]), betas)


def _run_verify(cfg: ExperimentConfig, out: _Outputs) -> int:
    from . import verify
    from .fields import _check_spacing

    p = cfg.params
    check = p["check"]
    if check == "beta4":
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
    box = {axis: tuple(_parse_floats(p[f"box_{axis}"], 2)) for axis in ("z", "tau") if p.get(f"box_{axis}")}
    events = verify.sample_events(p["events"], cfg.seed, **box)  # an unset bound takes sample_events' default

    if check == "derivatives":
        h = p.get("h")
        if h is not None:
            _check_spacing(h, "--h")
        hs = None if h is None else [h, h / 2.0, h / 4.0]
        slopes = verify.derivative_slopes(spec, k, events[: min(len(events), 8)], hs=hs)
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
        mass = _mass_from_params(p, spec.components[k].omega)
        u = verify.separable_potential(spec, k)
        rep = verify.schrodinger_residual(spec, k, mass, u, events, gamma_mode=p["gamma_mode"])
        if p["gamma_mode"] == "unity":
            default = float("inf")
    else:
        rep = getattr(verify, _RESIDUAL_CHECKS[check])(spec, k, events)
    tol = p.get("tolerance", default)
    ok = rep.max_abs <= tol
    out.write_json("report.json", {"check": check, "passed": bool(ok), "tolerance": tol, "report": rep.to_dict()})
    if not ok:
        raise VerificationFailure(
            f"{check} residual max {rep.max_abs:.3e} above tolerance {tol:.3e}"
        )
    return 0


def _write_snapshot(out: _Outputs, state: GridState) -> None:
    """snap_NNNNNN.npz of the state's z-line: arrays z, psi, pi where the state has one, t and step."""
    import numpy as np

    from .pde import _line

    arrays = {"z": state.grid.coords[-1], "psi": _line(state.field), "pi": _line(state.pi), "t": state.t,
              "step": state.step_count}
    buf = io.BytesIO()
    np.savez(buf, **{k: v for k, v in arrays.items() if v is not None})  # each entry dated 1980: bytes repeat
    out.write_bytes(f"snap_{state.step_count:06d}.npz", buf.getvalue())


def _run_evolve(cfg: ExperimentConfig, out: _Outputs) -> int:
    import zipfile

    import numpy as np

    from . import pde

    p = cfg.params
    equation = p["equation"]
    if p["snap_every"] < 0:
        raise ConfigError(f"--snap-every must be >= 0, got {p['snap_every']}")
    pts = tuple(_parse_ints(p, "grid"))
    ext = tuple(_parse_floats(p["extent"]))
    if len(ext) == 1 and len(pts) > 1:
        ext = ext * len(pts)
    grid = pde.Grid(ext, pts)

    spec = None
    if "init" in p:
        _refuse_unread(p, "evolve --init", ("component",))
        path = p["init"]
        names = ("z", "psi") if equation == "schrodinger" else ("z", "psi", "pi")
        try:
            snap = np.load(io.BytesIO(out.read_input(path, "init snapshot")), allow_pickle=False)
            if not isinstance(snap, np.lib.npyio.NpzFile):  # a .npy
                raise ValueError
            missing = [name for name in names if name not in snap]
            if missing:
                raise ConfigError(f"init snapshot {path} holds no {', '.join(missing)}")
            z, *lines = (snap[name] for name in names)  # ValueError for an object array
        except (OSError, ValueError, EOFError, zipfile.BadZipFile):  # numpy takes what is neither for a pickle
            raise ConfigError(f"init {path} is not an evolve .npz snapshot") from None
        nz, dz = grid.points[-1], grid.spacing[-1]
        for name, a in zip(names, [z, *lines]):
            if a.shape != (nz,) or a.dtype.kind not in "fc":
                raise ConfigError(f"init snapshot {path} {name} is {a.dtype} of shape {a.shape}, not {nz} numbers")
            if not np.isfinite(a).all():
                raise ConfigError(f"init snapshot {path} holds non-finite values")
        if np.max(np.abs(z - grid.coords[-1])) > 1e-9 * dz:
            raise ConfigError(f"init snapshot {path} z is not the grid's z axis j * {dz!r}, j < {nz}")
    else:
        spec = _load_spec_arg(cfg, out)
        k = _component(spec, p)
        z = grid.axis(grid.dim - 1)
        if equation == "schrodinger":
            lines = (spec.envelope_on_axis(k, z, 0.0),)
        else:
            lines = spec.harmonic_on_axis(k, z, 0.0), spec.harmonic_dtau_on_axis(k, z, 0.0)
    state = pde.GridState(grid, *(np.broadcast_to(a, grid.points) for a in lines))  # psi, and pi if second order

    # the parser gives --mass-scalar to kgf alone and --potential-from-spec to schrodinger alone
    mass_scalar = 0.0 if equation == "wave" else p.get("mass_scalar")
    mass = None if mass_scalar is not None else _mass_from_params(p, spec.components[k].omega if spec is not None else None)
    potential = None
    if p.get("potential_from_spec"):
        if spec is None:
            raise ConfigError("--potential-from-spec needs --spec in place of --init")
        from .verify import separable_potential

        potential = separable_potential(spec, k)
    sc = pde.SolverConfig(
        dt=p["dt"],
        steps=p["steps"],
        scheme="crank_nicolson" if equation == "schrodinger" else "leapfrog",
        mass=mass,
        mass_scalar=mass_scalar,
        potential=potential,
    )

    modes = _parse_ints(p, "dispersion_modes")
    if modes and sc.steps < 2:
        raise ConfigError("--dispersion-modes needs at least 2 steps to fit a rotation rate")
    ks = [2.0 * np.pi * m / grid.extents[-1] for m in modes]
    project = pde._mode_projector(grid, ks)  # ValueError, so exit 2, on an aliased mode
    continuum = lambda k: float(np.sqrt(k * k + sc.resolved_mass_scalar()))
    if modes and equation == "schrodinger":  # exp(ikz) under psi_t = i (hbar / 2mc)(-lap + u) psi, u constant
        u = sc.potential_on(grid)
        if np.any(u != u[0]):
            raise ConfigError("--dispersion-modes needs a constant potential; this one varies along z")
        continuum = lambda k: abs(mass.hbar / (2.0 * mass.m * mass.c) * (k * k + u[0]))

    snap_every = p["snap_every"]
    obs_rows = []
    coeffs: list[np.ndarray] = []  # one column per step
    times: list[float] = []

    def record(st: GridState) -> None:
        obs = pde.measure_observables(st, sc)  # resolves the potential, so its refusal comes before any write
        if st.step_count in (0, sc.steps) or snap_every and st.step_count % snap_every == 0:
            _write_snapshot(out, st)
        obs_rows.append(
            (st.t, obs.norm, obs.energy)
            + obs.centroid
            + obs.width
        )
        if modes:  # each coefficient as measure_dispersion takes it
            times.append(st.t)
            coeffs.append(project([pde._line(st.field)]))

    record(state)

    getattr(pde, f"evolve_{equation}")(state, sc, monitor=record)

    axes = ["z"] if grid.dim == 1 else ["x", "y", "z"]
    header = ["t", "norm", "energy"] + [f"centroid_{a}" for a in axes] + [f"width_{a}" for a in axes]
    out.write_csv("observables.csv", header, zip(*obs_rows))

    if modes:
        rows = []
        t_arr = np.asarray(times)
        for m, k, series in zip(modes, ks, np.hstack(coeffs) / grid.points[-1]):
            try:
                rows.append((k, pde._rotation_rate(t_arr, series), continuum(k)))
            except ValueError as exc:  # a weak mode
                raise VerificationFailure(f"mode {m:g}: {exc}") from None
        out.write_csv("dispersion.csv", ["k", "omega_measured", "omega_continuum"], zip(*rows))
    return 0


def _run_limit_scan(cfg: ExperimentConfig, out: _Outputs) -> int:
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


def _solver_error() -> tuple[type[Exception], ...]:
    """pde's SolverError once pde is loaded; nothing before, as a run that never loaded pde raises none."""
    pde = sys.modules.get(f"{__package__}.pde")
    return (pde.SolverError,) if pde is not None else ()


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
        except _solver_error() as exc:
            code, message = 1, f"solver error: {exc}"
        except (ConfigError, ValueError) as exc:
            code, message = 2, f"config error: {exc}"
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(message, file=sys.stderr)
    return code


# -- argument parsing --------------------------------------------------------


def _modes(parser: argparse.ArgumentParser) -> argparse._SubParsersAction | None:
    """The parser's commands, checks or equations; None for a parser that reads only flags."""
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


@functools.cache
def _build_parser() -> _ConfigParser:
    """The one statement of the flags each command, check and equation reads; built once a process."""
    ap = _ConfigParser(prog="boostfield", description="Boosted almost-periodic fields: evaluate, extract, verify, evolve.")
    ap.add_argument("--config", help="run a JSON ExperimentConfig instead of flags")
    commands = ap.add_subparsers(dest="command")

    def mode(sub, name, help=None, out_required=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--out", required=out_required, help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        return sp

    def mass(sp, alternatives=None):
        (alternatives or sp).add_argument("--mass", type=float)
        sp.add_argument("--hbar", type=float, default=1.0)
        sp.add_argument("--c", type=float, default=1.0)

    def rest_mass(sp):  # see _scan
        sp.add_argument("--mass", type=float, required=True)
        sp.add_argument("--c", type=float, default=1.0)

    sp = mode(commands, "boost", "apply the coordinate map to one event", out_required=False)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--event", required=True, help="x,y,z,tau")
    sp.add_argument("--inverse", action="store_true")

    sp = mode(commands, "field", "evaluate the lab field at --event, or on a grid into --out", out_required=False)
    sp.add_argument("--spec", required=True, help="field spec JSON")
    sp.add_argument("--event", help="x,y,z,tau")
    sp.add_argument("--component", type=int)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--z-min", type=float, dest="z_min")
    sp.add_argument("--z-max", type=float, dest="z_max")
    sp.add_argument("--n", type=int)

    sp = mode(commands, "spectrum", "boxcar harmonic extraction")
    sp.add_argument("--spec", help="field spec JSON")
    sp.add_argument("--csv", help="signal csv with t,re,im columns")
    sp.add_argument("--z", type=float, help="rest-frame z of a synthesized signal (default 0)")
    sp.add_argument("--t-max", type=float, dest="t_max")
    sp.add_argument("--dt", type=float)
    probes = sp.add_mutually_exclusive_group(required=True)
    probes.add_argument("--omegas", help="comma-separated probe frequencies")
    probes.add_argument("--omegas-from-spec", action="store_true", dest="omegas_from_spec")
    sp.add_argument("--window", default="max", help="half-width T or 'max'")

    checks = commands.add_parser("verify", help="residual and convergence certification")
    checks = checks.add_subparsers(dest="check", required=True)
    for name in ("envelope", "schrodinger", "klein-gordon", "scalar", "beta4", "derivatives"):
        sp = mode(checks, name)
        if name == "beta4":
            rest_mass(sp)
            sp.add_argument("--betas", help="comma-separated betas")
            continue
        sp.add_argument("--spec", required=True, help="field spec JSON")
        sp.add_argument("--component", type=int)
        sp.add_argument("--events", type=int, default=100)
        sp.add_argument("--box-z", dest="box_z", help="zlo,zhi event box")
        sp.add_argument("--box-tau", dest="box_tau", help="taulo,tauhi event box")
        if name == "derivatives":
            sp.add_argument("--h", type=float, help="finite-difference step")
            continue
        sp.add_argument("--tolerance", type=float)
        if name == "schrodinger":
            sp.add_argument("--gamma-mode", choices=["exact", "unity"], default="exact", dest="gamma_mode")
            mass(sp)

    equations = commands.add_parser("evolve", help="finite-difference evolution")
    equations = equations.add_subparsers(dest="equation", required=True)
    for name in ("schrodinger", "kgf", "wave"):
        sp = mode(equations, name)
        start = sp.add_mutually_exclusive_group(required=True)
        start.add_argument("--spec", help="field spec JSON")
        start.add_argument("--init", help="an evolve snap_NNNNNN.npz whose z is the grid's z axis")
        sp.add_argument("--component", type=int)
        sp.add_argument("--grid", required=True, help="points per axis, e.g. 512 or 32,32,32")
        sp.add_argument("--extent", required=True, help="domain length per axis")
        sp.add_argument("--dt", type=float, required=True)
        sp.add_argument("--steps", type=int, required=True)
        sp.add_argument("--snap-every", type=int, default=0, dest="snap_every")
        sp.add_argument("--dispersion-modes", dest="dispersion_modes", help="integer mode numbers")
        if name == "schrodinger":
            mass(sp)
            sp.add_argument("--potential-from-spec", action="store_true", dest="potential_from_spec")
        elif name == "kgf":
            alternatives = sp.add_mutually_exclusive_group()
            alternatives.add_argument("--mass-scalar", type=float, dest="mass_scalar")
            mass(sp, alternatives=alternatives)

    sp = mode(commands, "limit-scan", "rest-energy correction against beta")
    rest_mass(sp)
    sp.add_argument("--betas", help="comma-separated betas")

    return ap


def _config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config", "spec", "out", "seed")}
    return ExperimentConfig(ns.command, getattr(ns, "spec", None), params, ns.out, ns.seed)


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if ns.config:
            if ns.command is not None:
                raise ConfigError(f"--config replays the run it records; drop the {ns.command} command beside it")
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
