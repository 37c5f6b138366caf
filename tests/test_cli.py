import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from conftest import JSON_VALUES, catalog_profiles
from hypothesis import given, settings
from hypothesis import strategies as st

import boostfield
from boostfield import (
    ConstantProfile,
    Event,
    FieldSpec,
    GaussHermiteProfile,
    GaussianProfile,
    Grid,
    GridState,
    HarmonicComponent,
    LorentzBoost,
    PlaneWaveProfile,
    derivative_slopes,
    dumps_spec,
    loads_spec,
    measure_dispersion,
    sample_events,
    save_spec,
)
from boostfield import cli, pde, verify
from boostfield.cli import (
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _config_from_args,
    _Outputs,
    _read_signal_csv,
    main,
)


@pytest.fixture
def gauss_spec(tmp_path):
    spec = FieldSpec(
        (HarmonicComponent(1.7, GaussianProfile(1.0, 0.0, 1.2)),), LorentzBoost(0.4)
    )
    path = tmp_path / "gauss.json"
    save_spec(spec, path)
    return str(path)


@pytest.fixture
def plane_spec(tmp_path):
    spec = FieldSpec(
        (HarmonicComponent(2.0, PlaneWaveProfile(1.0, 1.3)),), LorentzBoost(0.5)
    )
    path = tmp_path / "plane.json"
    save_spec(spec, path)
    return str(path)


@pytest.fixture
def const_spec(tmp_path):
    spec = FieldSpec(
        (HarmonicComponent(1.0, ConstantProfile(1.0)),), LorentzBoost(0.6)
    )
    path = tmp_path / "const.json"
    save_spec(spec, path)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_boostfield(args, cwd):
    """`python -m boostfield args` in a fresh interpreter, on the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(boostfield.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "boostfield", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def assert_config_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")
    assert len(proc.stderr.splitlines()) == 1


def write_snapshot(path, z, psi, pi=None):
    """An evolve snapshot at ``path``: arrays z, psi and, where given, pi, at t = 0 and step 0."""
    np.savez(path, **{k: v for k, v in dict(z=z, psi=psi, pi=pi, t=0.0, step=0).items() if v is not None})


def load_snapshot(path) -> dict:
    with np.load(path, allow_pickle=False) as snap:
        return {name: snap[name] for name in snap.files}


def recorder_into(d) -> _Outputs:
    """A run's output recorder whose --out is ``d``."""
    return _Outputs(ExperimentConfig("limit-scan", None, {"mass": 1.0}, str(d), 0))


def main_config_error(args, capsys) -> str:
    """Run main in-process; assert exit 2 with one config error line, and return that line."""
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.splitlines()) == 1
    return err


# -- config object -----------------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig("verify", "s.json", {"check": "envelope"}, "out", 7)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_command():
    with pytest.raises(ConfigError, match="unknown command"):
        ExperimentConfig("frobnicate", None, {}, None, 0)


def test_config_rejects_unknown_params():
    with pytest.raises(ConfigError, match="unknown parameters"):
        ExperimentConfig("boost", None, {"beta": 0.5, "zeta": 1}, None, 0)


def test_config_from_dict_requires_exact_keys():
    with pytest.raises(ConfigError, match="config keys"):
        ExperimentConfig.from_dict({"command": "boost"})
    with pytest.raises(ConfigError, match="mapping"):
        ExperimentConfig.from_dict([1, 2])


def test_config_params_are_read_by_the_flag_parser():
    cfg = ExperimentConfig("verify", "s.json", {"check": "envelope", "events": "40", "box_z": -2}, "out", "7")
    assert cfg.seed == 7
    # the flags' types and defaults, as a flag run stores them; envelope declares no mass flags
    assert cfg.params == {"check": "envelope", "events": 40, "box_z": "-2"}
    assert "inverse" not in ExperimentConfig("boost", None, {"beta": 0.5, "event": "0,0,1,0", "inverse": False}, None, 0).params


def test_flag_run_config_replays_as_it_is():
    argv = ["verify", "schrodinger", "--spec", "s.json", "--mass", "2", "--gamma-mode", "unity", "--out", "o", "--seed", "4"]
    cfg = _config_from_args(_build_parser().parse_args(argv))
    assert cfg.params["mass"] == 2.0 and cfg.params["gamma_mode"] == "unity" and cfg.seed == 4
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_recorded_with_defaults_its_mode_does_not_read_is_refused():
    # version 0.1.0 read every check with one parser, and recorded its mass defaults for each
    params = {"check": "envelope", "events": 100, "gamma_mode": "exact", "hbar": 1.0, "c": 1.0}
    with pytest.raises(ConfigError, match=r"^unknown parameters for verify envelope: \['c', 'gamma_mode', 'hbar'\]$"):
        ExperimentConfig("verify", "s.json", params, "out", 0)


@pytest.mark.parametrize("value", [1, "true", [True]])
def test_config_switch_must_be_boolean(value):
    with pytest.raises(ConfigError, match="--inverse takes true or false"):
        ExperimentConfig("boost", None, {"beta": 0.5, "event": "0,0,1,0", "inverse": value}, None, 0)


def test_config_positional_is_never_read_as_a_flag():
    with pytest.raises(ConfigError, match="invalid choice: '-h'"):
        ExperimentConfig("verify", None, {"check": "-h"}, "o", 0)


@pytest.mark.parametrize(
    "command,params,seed,message",
    [
        ("boost", {"beta": None, "event": "0,0,1,0"}, "0", "required: --beta"),
        ("limit-scan", {"mass": [1]}, "0", "--mass: invalid float value"),
        ("boost", {"beta": 0.5, "event": 5}, "0", "expected 4 comma-separated values"),
        ("boost", {"beta": 0.5, "event": "0,0,1,0"}, "1e400", "--seed: invalid int value"),
        ("boost", [1], "0", "params must be a mapping"),
    ],
)
def test_bad_config_values_are_config_errors(command, params, seed, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    text = f'{{"command": "{command}", "spec": null, "params": {json.dumps(params)}, "out": "o", "seed": {seed}}}'
    path.write_text(text)
    assert message in main_config_error(["--config", str(path)], capsys)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["limit-scan", "--mass", "1", "--c", "1e200"], "rest energy m c^2 overflows"),
        (
            ["evolve", "kgf", "--grid", "16", "--extent", "8", "--dt", "0.1", "--steps", "2", "--mass", "1e200"],
            "mass scalar (m c / hbar)^2 overflows",
        ),
    ],
)
def test_an_overflowing_mass_quantity_is_one_config_error(argv, message, gauss_spec, tmp_path, capsys):
    # Python's float ** raises OverflowError where * gives inf; the mass refuses the quantity first
    spec = ["--spec", gauss_spec] if argv[0] == "evolve" else []
    out = tmp_path / "o"
    assert message in main_config_error(argv + spec + ["--out", str(out)], capsys)
    assert not out.exists()


_SPEC_RECORD = {
    "boost": {"beta": 0.3},
    "components": [{"omega": 1.0, "profile": {"kind": "gaussian", "amplitude": 1.0, "center": 0.0, "sigma": 1.0}}],
}


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d["components"][0]["profile"].update(center=[0, 1]), "center must be a real number"),
        (lambda d: d["components"][0]["profile"].update(kind="gauss_hermite", order=2.7), "order must be an integer"),
        (lambda d: d.update(components=5), "components must be a list"),
        (lambda d: d.update(boost=0.3), "boost record must be a mapping"),
        (lambda d: d.update(components=[5]), "component record must be a mapping"),
        (lambda d: d["components"][0].update(omega=[1]), "omega must be a real number"),
        (lambda d: d["boost"].update(beta=[1]), "beta must be a real number"),
    ],
)
def test_bad_spec_records_are_config_errors(mangle, message, tmp_path, capsys):
    record = json.loads(json.dumps(_SPEC_RECORD))
    mangle(record)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(record))
    assert message in main_config_error(["field", "--spec", str(path), "--event", "0,0,0,0"], capsys)


def test_spec_naming_a_directory_is_config_error(tmp_path):
    (tmp_path / "adir").mkdir()
    assert_config_error(run_boostfield(["field", "--spec", "adir", "--event", "0,0,0,0"], tmp_path))


def test_out_naming_a_file_is_config_error(tmp_path):
    (tmp_path / "afile").write_text("x")
    assert_config_error(run_boostfield(["boost", "--beta", "0.5", "--event", "0,0,1,0", "--out", "afile"], tmp_path))


@pytest.mark.parametrize(
    "args,blocked",
    [
        (["verify", "beta4", "--mass", "1"], "report.json"),  # the first write
        (["limit-scan", "--mass", "1"], "manifest.json"),  # after two files
    ],
)
def test_unwritable_output_is_config_error(args, blocked, tmp_path):
    (tmp_path / "o" / blocked).mkdir(parents=True)
    proc = run_boostfield(args + ["--out", "o"], tmp_path)
    assert_config_error(proc)
    assert f"cannot write {Path('o', blocked)}" in proc.stderr


def test_manifest_digests_the_spec_bytes_the_run_parsed(gauss_spec, tmp_path, monkeypatch, capsys):
    original = Path(gauss_spec).read_bytes()
    pick = cli._component

    def delete_spec_then_pick(spec, p):  # a runner step after the spec is parsed
        os.remove(gauss_spec)
        return pick(spec, p)

    monkeypatch.setattr(cli, "_component", delete_spec_then_pick)
    assert main(["verify", "envelope", "--spec", gauss_spec, "--events", "5", "--out", str(tmp_path / "o")]) == 0
    assert not Path(gauss_spec).exists()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["inputs"] == {gauss_spec: hashlib.sha256(original).hexdigest()}


def test_manifest_digests_every_input_file(gauss_spec, tmp_path):
    signal, init = tmp_path / "signal.csv", tmp_path / "init.npz"
    t = np.arange(-2.0, 2.0 + 1e-12, 0.05)
    recorder_into(tmp_path).write_csv("signal.csv", ["t", "re", "im"], [t, np.cos(1.7 * t), np.sin(1.7 * t)])
    write_snapshot(init, 0.5 * np.arange(16), np.ones(16, dtype=complex))
    runs = {
        "s": ["spectrum", "--csv", str(signal), "--spec", gauss_spec, "--omegas-from-spec"],
        "e": ["evolve", "schrodinger", "--init", str(init), "--mass", "1", "--grid", "16", "--extent", "8",
              "--dt", "0.1", "--steps", "2"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        files = [a for a in argv if a.endswith((".csv", ".json", ".npz"))]
        assert manifest["inputs"] == {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files}


def test_config_file_not_utf8_is_config_error(tmp_path):
    (tmp_path / "cfg.json").write_bytes(b'\xff\xfe{"command": "boost"}')
    assert_config_error(run_boostfield(["--config", "cfg.json"], tmp_path))


# every leaf parser, keyed by the argv words that select it: ("boost",), ("verify", "envelope"), ...
def _leaves(parser, words=()):
    modes = cli._modes(parser)
    if modes is None:
        return {words: parser}
    return {key: leaf for name, sp in modes.choices.items() for key, leaf in _leaves(sp, words + (name,)).items()}


_MODES = _leaves(_build_parser())
# the params key that names verify's check and evolve's equation
_MODE_KEY = {name: cli._modes(sp).dest for name, sp in cli._modes(_build_parser()).choices.items() if cli._modes(sp)}
# every flag that some mode declares, with its action
_FLAGS = {flag: a for sp in _MODES.values() for a in sp._actions if a.dest != "help" for flag in a.option_strings}


def _flag_arg(action) -> str:
    """The flag given once: a bare switch, or "--flag=1"."""
    return action.option_strings[0] if action.nargs == 0 else f"{action.option_strings[0]}=1"


def _base_argv(words) -> list[str]:
    """argv that parses for the mode once --out is added: its required flags and the first flag of
    each required alternative, each given its first choice or "1"."""
    sp = _MODES[words]
    needed = [a for a in sp._actions if a.required and a.dest != "out"]
    needed += [g._group_actions[0] for g in sp._mutually_exclusive_groups if g.required]
    argv = list(words)
    for a in needed:
        argv += [a.option_strings[0]] + ([] if a.nargs == 0 else [str(a.choices[0]) if a.choices else "1"])
    return argv


def refused_before_any_output(argv, extra, via, tmp_path, capsys) -> str:
    """The one config error line of ``argv`` with the flags ``extra`` (each "--flag=value" or a bare switch).

    Run as flags, or as the config that ``argv`` records with ``extra`` added
    to it; either way the run's --out must not exist afterwards.
    """
    out = str(tmp_path / "o")
    if via == "flags":
        args = argv + extra + ["--out", out]
    else:
        record = _config_from_args(_build_parser().parse_args(argv + ["--out", out])).to_dict()
        for item in extra:
            flag, _, value = item.partition("=")
            action = _FLAGS[flag]
            if action.dest == "spec":
                record["spec"] = value
            else:
                record["params"][action.dest] = True if action.nargs == 0 else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(record))
        args = ["--config", str(path)]
    err = main_config_error(args, capsys)
    assert not (tmp_path / "o").exists()
    return err


def names_the_flag(err: str, flag: str) -> bool:
    """A refusal names the flag as argv gives it, or its params key as a config gives it."""
    return flag in err or repr(_FLAGS[flag].dest) in err


# named cases of commands that never read a field spec; the manifest would record the digest of one given
_READS_NO_SPEC = {
    "boost": ["boost", "--beta", "0.5", "--event", "0,0,1,0"],
    "limit-scan": ["limit-scan", "--mass", "1"],
    "beta4": ["verify", "beta4", "--mass", "1"],
    "evolve-init": ["evolve", "schrodinger", "--init", "init.npz", "--grid", "64", "--extent", "16",
                    "--dt", "0.01", "--steps", "3", "--mass", "1"],
}


@pytest.mark.parametrize("command", sorted(_READS_NO_SPEC))
@pytest.mark.parametrize("via", ["flags", "config"])
def test_unread_spec_is_refused_before_any_output(via, command, tmp_path, capsys):
    err = refused_before_any_output(_READS_NO_SPEC[command], [f"--spec={tmp_path / 'nope.json'}"], via, tmp_path, capsys)
    assert names_the_flag(err, "--spec"), err


@pytest.mark.parametrize("via", ["flags", "config"])
def test_init_refuses_component_before_any_output(via, tmp_path, capsys):
    args = _READS_NO_SPEC["evolve-init"] + ["--component", "7", "--out", str(tmp_path / "o3")]
    if via == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_config_from_args(_build_parser().parse_args(args)).to_dict()))
        args = ["--config", str(path)]
    assert main_config_error(args, capsys) == "config error: evolve --init reads no --component; drop it\n"
    assert not (tmp_path / "o3").exists()


# a flag-selected mode refuses the flags of the other one, before it reads any input
_EVENT = ["field", "--spec", "missing.json", "--event", "0,0,0.3,0"]
_CSV = ["spectrum", "--csv", "missing.csv", "--omegas", "1"]


@pytest.mark.parametrize(
    "argv,extra,message",
    [
        (_EVENT, ["--n=9"], "field --event reads no --n; drop it"),
        (_EVENT, ["--n=9", "--tau=1", "--z-min=5", "--z-max=7"],
         "field --event reads no --tau, --z-min, --z-max, --n; drop them"),
        (_CSV, ["--t-max=4"], "spectrum --csv reads no --t-max; drop it"),
        (_CSV, ["--t-max=4", "--dt=9"], "spectrum --csv reads no --t-max, --dt; drop them"),
        (_CSV, ["--z=5"], "spectrum --csv reads no --z; drop it"),
        (_CSV, ["--spec=s.json"], "spectrum --csv reads --spec only for --omegas-from-spec; drop it"),
    ],
    ids=["event-n", "event-grid", "csv-t-max", "csv-t-max-dt", "csv-z", "csv-spec"],
)
@pytest.mark.parametrize("via", ["flags", "config"])
def test_event_and_csv_runs_refuse_the_other_modes_flags_before_any_work(via, argv, extra, message, tmp_path, capsys):
    assert refused_before_any_output(argv, extra, via, tmp_path, capsys) == f"config error: {message}\n"


@pytest.mark.parametrize("command,flag", [("boost", "--c"), ("limit-scan", "--hbar"), ("beta4", "--hbar")])
@pytest.mark.parametrize("via", ["flags", "config"])
def test_a_unit_the_mode_never_reads_is_refused(via, command, flag, tmp_path, capsys):
    # the boost map is dimensionless, and the rest-energy term m c^2 (gamma - 1)^2 / 2 reads no hbar
    err = refused_before_any_output(_READS_NO_SPEC[command], [f"{flag}=2"], via, tmp_path, capsys)
    assert names_the_flag(err, flag), err


@pytest.mark.parametrize("via", ["flags", "config"])
def test_a_spec_holding_a_boost_c_is_refused(via, tmp_path, capsys):
    spec = tmp_path / "old.json"
    spec.write_text(json.dumps({"boost": {"beta": 0.4, "c": 1.0},
                                "components": [{"omega": 1.7, "profile": {"kind": "constant", "amplitude": 1.0}}]}))
    err = refused_before_any_output(["field", "--spec", str(spec), "--event", "0,0,0.3,0"], [], via, tmp_path, capsys)
    assert err == f"config error: bad spec file {spec}: unknown boost keys ['c']\n"


def test_spectrum_records_z_only_where_it_reads_it(gauss_spec, tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,re,im\n-0.1,1.0,0.0\n0.0,1.0,0.0\n0.1,1.0,0.0\n")
    assert main(["spectrum", "--csv", str(path), "--omegas", "1.0", "--out", str(tmp_path / "c")]) == 0
    synth = ["spectrum", "--spec", gauss_spec, "--t-max", "4", "--dt", "0.1", "--omegas-from-spec"]
    assert main(synth + ["--out", str(tmp_path / "s")]) == 0
    assert main(synth + ["--z", "0", "--out", str(tmp_path / "z")]) == 0
    params = [json.loads((tmp_path / d / "manifest.json").read_text())["config"]["params"] for d in "csz"]
    assert ["z" in ps for ps in params] == [False, False, True]
    assert (tmp_path / "s" / "spectrum.csv").read_bytes() == (tmp_path / "z" / "spectrum.csv").read_bytes()


def test_config_beside_a_command_is_refused(tmp_path, capsys):
    record = {"command": "boost", "spec": None, "params": {"beta": 0.5, "event": "0,0,1,0"}, "out": None, "seed": 0}
    (tmp_path / "cfg.json").write_text(json.dumps(record))
    out = tmp_path / "d"
    err = main_config_error(["--config", str(tmp_path / "cfg.json"), "limit-scan", "--mass", "3", "--out", str(out)], capsys)
    assert err == "config error: --config replays the run it records; drop the limit-scan command beside it\n"
    assert not out.exists()
    assert main(["--config", str(tmp_path / "cfg.json")]) == 0  # alone, the config runs


# every mode's parser dests, plus spec, out and seed, which are not params
_DESTS = {words: sorted({a.dest for a in sp._actions} - {"help"}) for words, sp in _MODES.items()}


# a runnable base record for the commands the fuzz executes
_RUNNABLE = {"boost": {"beta": 0.5, "event": "0,0,1,0"}, "limit-scan": {"mass": 1.0}}


def _mostly(draw, likely):
    """A draw from ``likely`` three times in four, else any JSON value."""
    return draw(likely) if draw(st.integers(0, 3)) else draw(JSON_VALUES)


@st.composite
def config_records(draw):
    words = draw(st.sampled_from(sorted(_MODES) + [("boost",), ("limit-scan",), ("frobnicate",)]))
    command = _mostly(draw, st.just(words[0]))
    base = dict(_RUNNABLE.get(words[0], {}), **({_MODE_KEY[words[0]]: words[1]} if len(words) == 2 else {}))
    keys = _DESTS.get(words, []) + ["zeta"] + ([_MODE_KEY[words[0]]] if len(words) == 2 else [])
    redrawn = st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3)
    params = _mostly(draw, redrawn.map(lambda r: dict(base, **r)))
    # spec and out name entries of a scratch directory: none, missing, a directory, a file
    spec, out = (draw(st.sampled_from([None, "missing.json", "adir", "afile", "new"])) for _ in range(2))
    seed = _mostly(draw, st.integers(0, 2**32))
    return {"command": command, "spec": spec, "params": params, "out": out, "seed": seed}


@settings(max_examples=200, deadline=None)
@given(config_records())
def test_fuzzed_configs_raise_only_config_error_and_exit_0_1_or_2(record):
    with tempfile.TemporaryDirectory() as d:
        for key in ("spec", "out"):
            if record[key] is not None:
                record[key] = str(Path(d, record[key]))
        (Path(d) / "adir").mkdir()
        (Path(d) / "afile").write_text("x")
        try:
            ExperimentConfig.from_dict(record)
        except ConfigError:
            pass
        if record["command"] not in ("boost", "limit-scan"):
            return  # fuzzed evolve, field and verify runs have unbounded cost
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(record))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["--config", str(path)]) in (0, 1, 2)


# -- boost and field ----------------------------------------------------------


def test_boost_stdout(capsys):
    assert main(["boost", "--beta", "0.6", "--event", "0,0,1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0,0,1.25,-0.75"


def test_boost_inverse_round_trip(capsys):
    main(["boost", "--beta", "0.6", "--event", "0.2,-0.3,1,0.5"])
    fwd = capsys.readouterr().out.strip()
    main(["boost", "--beta", "0.6", "--inverse", "--event", fwd])
    back = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    np.testing.assert_allclose(back, [0.2, -0.3, 1.0, 0.5], atol=1e-12)


def test_boost_writes_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["boost", "--beta", "0.6", "--event", "0,0,1,0", "--out", str(out)]) == 0
    capsys.readouterr()
    rec = json.loads((out / "boost.json").read_text())
    assert rec["output"] == [0.0, 0.0, 1.25, -0.75]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["boost.json"]
    assert "numpy" in manifest["versions"]


def test_field_event_mode(gauss_spec, capsys):
    assert main(["field", "--spec", gauss_spec, "--event", "0,0,0.3,0.1"]) == 0
    re, im, phi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert phi > 0.0
    assert re * re + im * im == pytest.approx(phi, rel=1e-10)


def test_field_grid_mode(gauss_spec, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["field", "--spec", gauss_spec, "--tau", "0.2", "--z-min", "-2",
         "--z-max", "2", "--n", "33", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["z", "re_psi", "im_psi", "phi"]
    assert len(rows) == 33
    spec = loads_spec(Path(gauss_spec).read_text())
    z = np.array([float(r[0]) for r in rows])
    psi = spec.psi_lab_on_axis(z, 0.2)
    np.testing.assert_allclose([float(r[1]) for r in rows], psi.real, atol=1e-12)
    np.testing.assert_allclose([float(r[2]) for r in rows], psi.imag, atol=1e-12)


@pytest.fixture
def two_harmonic_spec(tmp_path):
    spec = FieldSpec(
        (
            HarmonicComponent(1.3, GaussianProfile(1.0, 0.0, 1.2)),
            HarmonicComponent(3.1, PlaneWaveProfile(0.5 + 0.2j, 0.8)),
        ),
        LorentzBoost(0.4),
    )
    path = tmp_path / "two.json"
    save_spec(spec, path)
    return str(path)


GRID_ARGS = ["--tau", "0.2", "--z-min", "-2", "--z-max", "2", "--n", "17"]


@pytest.mark.parametrize("k", [0, 1])
def test_field_grid_mode_writes_the_chosen_component(k, two_harmonic_spec, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["field", "--spec", two_harmonic_spec, *GRID_ARGS, "--component", str(k), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["z", "re_psi", "im_psi", "phi"] and len(rows) == 17
    spec = loads_spec(Path(two_harmonic_spec).read_text())
    z, re_psi, im_psi, phi = (np.array([float(r[i]) for r in rows]) for i in range(4))
    psi = spec.harmonic_on_axis(k, z, 0.2)
    np.testing.assert_array_equal(re_psi + 1j * im_psi, psi)
    np.testing.assert_array_equal(phi, np.abs(spec.envelope_on_axis(k, z, 0.2)) ** 2)
    assert np.max(np.abs(psi - spec.psi_lab_on_axis(z, 0.2))) > 0.1  # not the whole field


@pytest.mark.parametrize("k", ["2", "7", "-1"])
def test_field_grid_mode_out_of_range_component(k, two_harmonic_spec, tmp_path, capsys):
    rc = main(["field", "--spec", two_harmonic_spec, *GRID_ARGS, "--component", k, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"config error: --component {k} out of range: the spec has components 0..1\n"
    assert not (tmp_path / "o").exists()


def _run_quietly(args) -> tuple[int, str, str]:
    """main(args) in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


_CATALOG = sorted(catalog_profiles())


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(_CATALOG), min_size=1, max_size=2),
    beta=st.floats(-0.6, 0.6),
    x=st.floats(-3.0, 3.0),
    z=st.floats(-3.0, 3.0),
    tau=st.floats(-3.0, 3.0),
    pick=st.integers(-1, 1),
)
def test_field_event_is_the_sampled_row_at_its_point(kinds, beta, x, z, tau, pick):
    comps = tuple(HarmonicComponent(1.0 + i, catalog_profiles()[kind]) for i, kind in enumerate(kinds))
    spec = FieldSpec(comps, LorentzBoost(beta))
    component = ["--component", str(pick)] if 0 <= pick < len(comps) else []
    with tempfile.TemporaryDirectory() as d:
        save_spec(spec, Path(d, "s.json"))
        common = ["--spec", str(Path(d, "s.json")), *component]
        rc, printed, _ = _run_quietly(["field", *common, f"--event={x!r},0.5,{z!r},{tau!r}", "--out", str(Path(d, "e"))])
        assert rc == 0
        grid = [f"--tau={tau!r}", f"--z-min={z!r}", f"--z-max={z + 1.0!r}", "--n=2"]
        assert _run_quietly(["field", *common, *grid, "--out", str(Path(d, "g"))])[0] == 0
        _, rows = read_csv(Path(d, "g", "field.csv"))
        z0, re_psi, im_psi, phi = (float(v) for v in rows[0])
        record = json.loads(Path(d, "e", "field.json").read_text())
    assert z0 == z
    assert record["psi"] == [re_psi, im_psi] and record["scalar_density"] == phi
    assert printed == ",".join(format(v, ".12g") for v in (re_psi, im_psi, phi)) + "\n"
    if not component:
        assert phi == spec.scalar_density(Event(x, 0.5, z, tau))


def test_import_leaves_scipy_unloaded(tmp_path, capsys):
    # importing, a tabulated profile built and evaluated, and field --event on a tabulated spec
    save_spec(FieldSpec((HarmonicComponent(1.0, catalog_profiles()["tabulated"]),), LorentzBoost(0.6)), tmp_path / "tab.json")
    code = (
        "import sys, numpy as np, boostfield, boostfield.cli; "
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "print(scipy()); "
        "p = boostfield.TabulatedProfile(np.linspace(-2, 2, 9), np.cos(np.linspace(-2, 2, 9)) + 1j); "
        "[f(x) for f in (p.value, p.dz, p.dzz, p.curvature_ratio) for x in (0.3, np.linspace(-1, 1, 5))]; "
        "print(scipy()); "
        "rc = boostfield.cli.main(['field', '--spec', sys.argv[1], '--event', '0,0,0.3,0.1']); "
        "print(rc, scipy())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(boostfield.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "tab.json")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == proc.stdout.splitlines()[1] == "[]"
    assert proc.stdout.splitlines()[3] == "0 []"  # after the event's row
    # the manifest still names the installed scipy
    import scipy

    assert main(["boost", "--beta", "0.5", "--event", "0,0,1,2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert manifest["versions"]["numpy"] == np.__version__


_STARTUP = {"boostfield", "boostfield.cli", "boostfield.kinematics"}
_FIELDS = {"boostfield.fields", "boostfield.profiles"}


@pytest.mark.parametrize("argv, code, loads", [
    pytest.param(["--help"], 0, set(), id="help"),
    pytest.param(["boost", "--beta", "0.5"], 2, set(), id="flag-error"),
    pytest.param(["verify", "envelope", "--spec", "{spec}"], 2, set(), id="verify-without-out"),
    pytest.param(["--config", "{tmp}/none.json"], 2, set(), id="missing-config"),
    pytest.param(["--config", "{tmp}/refused.json"], 2, set(), id="refused-config"),
    pytest.param(["boost", "--beta", "0.5", "--event", "0,0,1,2"], 0, set(), id="boost"),
    pytest.param(["boost", "--beta", "0.5", "--event", "0,0,1,2", "--out", "{tmp}/o"], 0, set(), id="boost-out"),
    pytest.param(["boost", "--beta", "0.5", "--event", "1,2"], 2, set(), id="boost-bad-event"),
    pytest.param(
        ["field", "--spec", "{spec}", "--tau", "0.1", "--z-min", "-1", "--z-max", "1", "--n", "5", "--out", "{tmp}/o"],
        0, {"numpy"} | _FIELDS, id="field",
    ),
    pytest.param(
        ["spectrum", "--csv", "{tmp}/signal.csv", "--omegas", "1", "--out", "{tmp}/o"],
        0, {"numpy", "boostfield.spectral"}, id="spectrum-csv",
    ),
    pytest.param(
        ["verify", "envelope", "--spec", "{spec}", "--events", "5", "--out", "{tmp}/o"],
        0, {"numpy", "boostfield.verify"} | _FIELDS, id="verify-envelope",
    ),
    pytest.param(
        ["verify", "beta4", "--mass", "1", "--out", "{tmp}/o"], 0, {"numpy", "boostfield.verify"} | _FIELDS, id="beta4",
    ),
    pytest.param(
        ["evolve", "kgf", "--spec", "{spec}", "--grid", "16", "--extent", "8", "--dt", "0.1", "--steps", "2",
         "--out", "{tmp}/o"],
        0, {"numpy", "boostfield.pde"} | _FIELDS, id="evolve-kgf",
    ),
    pytest.param(
        ["evolve", "schrodinger", "--spec", "{spec}", "--grid", "8,8,8", "--extent", "8", "--dt", "0.1", "--steps", "2",
         "--out", "{tmp}/o"],
        0, {"numpy", "boostfield.pde"} | _FIELDS, id="evolve-schrodinger-3d",
    ),
])
def test_each_command_loads_only_its_own_modules(argv, code, loads, gauss_spec, tmp_path):
    # a fresh interpreter per command: numpy, scipy, importlib.metadata and boostfield's modules after main
    t = 0.1 * np.arange(-50, 51)
    np.savetxt(tmp_path / "signal.csv", np.column_stack([t, np.cos(t), np.sin(t)]), delimiter=",", header="t,re,im",
               comments="")
    refused = {"command": "verify", "spec": None, "params": {"check": "envelope"}, "out": None, "seed": 0}
    (tmp_path / "refused.json").write_text(json.dumps(refused))  # no --spec
    script = (
        "import contextlib, io, json, sys; from boostfield import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = cli.main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'boostfield'\n"
        "                  or m in ('numpy', 'scipy', 'importlib.metadata'))]))"
    )
    args = [a.format(spec=gauss_spec, tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(boostfield.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(_STARTUP | loads)]


# -- spectrum ------------------------------------------------------------------


def test_spectrum_synthesized(gauss_spec, tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["spectrum", "--spec", gauss_spec, "--z", "0.3", "--t-max", "40",
         "--dt", "0.02", "--omegas-from-spec", "--window", "30", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["omega", "re_q", "im_q", "abs_q", "window_T"]
    assert float(rows[0][0]) == 1.7
    expected = np.exp(-(0.3**2) / (2.0 * 1.2**2))
    assert float(rows[0][1]) == pytest.approx(expected, abs=1e-9)
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)
    meta = json.loads((out / "spectrum.json").read_text())
    assert meta["window_T"] == 30.0
    assert meta["residual_rms"] < 1e-9


def test_spectrum_from_csv(tmp_path):
    t = np.arange(-40.0, 40.0 + 1e-12, 0.02)
    sig = (0.8 - 0.1j) * np.exp(1.7j * t)
    path = tmp_path / "sig.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "re", "im"])
        for ti, si in zip(t, sig):
            w.writerow([repr(float(ti)), repr(float(si.real)), repr(float(si.imag))])
    out = tmp_path / "run"
    rc = main(
        ["spectrum", "--csv", str(path), "--omegas", "1.7", "--window", "max",
         "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out / "spectrum.csv")
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-9)
    assert float(rows[0][2]) == pytest.approx(-0.1, abs=1e-9)


def test_spectrum_csv_missing_columns(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,1.0\n0.1,1.0\n")
    rc = main(["spectrum", "--csv", str(path), "--omegas", "1.0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "t, re, im" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0.0,1.0", "0.0,abc,0.0"])
def test_spectrum_ragged_or_non_numeric_csv_is_config_error(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text(f"t,re,im\n-0.1,1.0,0.0\n{row}\n0.1,1.0,0.0\n")
    proc = run_boostfield(["spectrum", "--csv", str(path), "--omegas", "1.0", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert "s.csv" in proc.stderr


def test_signal_csv_columns_are_read_by_name_as_genfromtxt_reads_them(tmp_path):
    rng = np.random.default_rng(11)
    t = -1.0 + 0.01 * np.arange(300)
    re, im = rng.standard_normal(300), rng.standard_normal(300)
    path = tmp_path / "s.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["im", "t", "extra", "re"])
        for row in zip(im, t, rng.standard_normal(300), re):
            w.writerow([repr(float(v)) for v in row])
    raw = np.genfromtxt(path, delimiter=",", names=True)
    sig = _read_signal_csv(recorder_into(tmp_path / "o"), str(path))
    assert np.array_equal(sig.samples, raw["re"] + 1j * raw["im"])
    assert sig.dt == float(np.diff(raw["t"])[0]) and sig.t0 == float(raw["t"][0])


def test_csv_columns_are_written_as_csv_writer_writes_rows(tmp_path):
    rng = np.random.default_rng(12)
    nums = [rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40), [-0.0, 0.0, np.nan, np.inf, -np.inf] * 8]
    names = [f"d{i}" for i in range(40)]
    slopes = ["" if i % 3 else repr(float(v)) for i, v in enumerate(rng.standard_normal(40))]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "entry", "slope"])
        for a, b, n, s in zip(*nums, names, slopes):
            w.writerow([repr(float(a)), repr(float(b)), n, s])
    recorder_into(tmp_path).write_csv("got.csv", ["a", "b", "entry", "slope"], nums + [names, slopes])
    assert (tmp_path / "got.csv").read_bytes() == ref.read_bytes()


def test_spectrum_missing_spec_file_is_config_error(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,re,im\n-0.1,1.0,0.0\n0.0,1.0,0.0\n0.1,1.0,0.0\n")
    proc = run_boostfield(
        ["spectrum", "--csv", str(path), "--spec", "missing.json", "--omegas-from-spec", "--out", "o"],
        tmp_path,
    )
    assert_config_error(proc)
    assert "missing.json" in proc.stderr


def test_spectrum_probe_whose_phase_overflows_is_one_config_error(tmp_path):
    t = np.linspace(-10.0, 10.0, 2001)
    rows = "".join(f"{ti!r},{math.cos(ti)!r},{math.sin(ti)!r}\n" for ti in t.tolist())
    (tmp_path / "wide.csv").write_text("t,re,im\n" + rows)
    proc = run_boostfield(["spectrum", "--csv", "wide.csv", "--omegas=1e308,1", "--window=max", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert "omega 1e+308 overflows" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_max,dt", [("1e300", "1e-300"), ("1e6", "1e-6")])
def test_spectrum_record_above_the_sample_cap_is_one_config_error(t_max, dt, gauss_spec, tmp_path):
    # an infinite sample count, and 2e12 samples (29 TiB), each refused before any allocation
    argv = ["spectrum", "--spec", gauss_spec, "--t-max", t_max, "--dt", dt, "--omegas", "1", "--window", "1"]
    proc = run_boostfield(argv + ["--out", "d"], tmp_path)
    assert_config_error(proc)
    assert "needs more than the cap of 4194304 samples" in proc.stderr
    assert not (tmp_path / "d").exists()


# -- verify --------------------------------------------------------------------


def test_verify_envelope_passes(gauss_spec, tmp_path):
    out = tmp_path / "run"
    rc = main(["verify", "envelope", "--spec", gauss_spec, "--events", "50", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["report"]["max_abs"] <= 1e-10
    assert report["report"]["sample_count"] == 50


def test_verify_schrodinger_exact_and_unity(plane_spec, tmp_path, capsys):
    rc = main(["verify", "schrodinger", "--spec", plane_spec, "--out", str(tmp_path / "a")])
    assert rc == 0
    # the reduced form keeps an order beta^3 remainder; forcing a tiny
    # tolerance on it must fail loudly
    rc = main(
        ["verify", "schrodinger", "--spec", plane_spec, "--gamma-mode", "unity",
         "--tolerance", "1e-20", "--out", str(tmp_path / "b")]
    )
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["passed"] is False


def test_verify_derivatives_writes_slopes(gauss_spec, tmp_path):
    out = tmp_path / "run"
    rc = main(["verify", "derivatives", "--spec", gauss_spec, "--events", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "derivative_slopes.csv")
    assert header == ["entry", "slope"]
    slopes = {name: val for name, val in rows}
    active = [float(v) for v in slopes.values() if v != ""]
    assert active, "expected at least one certified slope"
    assert all(1.9 <= s <= 2.1 for s in active)


def test_verify_beta4(tmp_path):
    out = tmp_path / "run"
    rc = main(["verify", "beta4", "--mass", "1.0", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scan"]["fitted_slope"] == pytest.approx(4.0, abs=0.05)


def test_verify_needs_out(gauss_spec, monkeypatch, capsys):
    monkeypatch.setattr(verify, "sample_events", None)  # a call would raise TypeError out of main
    err = main_config_error(["verify", "envelope", "--spec", gauss_spec, "--events", "200000"], capsys)
    assert err == "config error: the following arguments are required: --out\n"


def test_verify_missing_spec_file(tmp_path, capsys):
    rc = main(["verify", "envelope", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_verify_that_exits_2_makes_no_out_directory(tmp_path, capsys):
    moving = tmp_path / "moving.json"  # a Gaussian under a boost has no separable potential
    save_spec(FieldSpec((HarmonicComponent(1.7, GaussianProfile(1.0, 0.0, 1.2)),), LorentzBoost(0.6)), moving)
    for check, spec, message in [("envelope", tmp_path / "nope.json", "not found"),
                                 ("schrodinger", moving, "does not separate")]:
        assert main(["verify", check, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_verify_with_overflowing_terms_exits_2_in_one_line(tmp_path):
    # a valid spec whose derivative terms overflow: no numpy warnings and no nan report
    spec = FieldSpec((HarmonicComponent(2.0, GaussianProfile(1e308, 0.0, 0.8)),), LorentzBoost(0.6))
    save_spec(spec, tmp_path / "big.json")
    proc = run_boostfield(["verify", "envelope", "--spec", "big.json", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and "residual is not finite at Event(x=" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_verify_derivatives_with_an_overflowing_closed_form_exits_2_in_one_line(tmp_path):
    spec = FieldSpec((HarmonicComponent(2.0, GaussianProfile(1e308, 0.0, 0.8)),), LorentzBoost(0.6))
    save_spec(spec, tmp_path / "big.json")
    proc = run_boostfield(["verify", "derivatives", "--spec", "big.json", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert "closed form is not finite at Event(x=" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_spec_whose_profile_overflows_is_one_config_error(tmp_path):
    # sigma^2 underflows to 0: q'' cannot be finite, so the spec is refused as it loads
    profile = {"kind": "gaussian", "amplitude": 1.0, "center": 0.0, "sigma": 1e-200}
    (tmp_path / "thin.json").write_text(json.dumps({"boost": {"beta": 0.0}, "components": [{"omega": 1.0, "profile": profile}]}))
    proc = run_boostfield(["evolve", "kgf", "--spec", "thin.json", "--grid", "16", "--extent", "8", "--dt", "0.1",
                           "--steps", "2", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert proc.stderr == ("config error: bad spec file thin.json: GaussianProfile(amplitude=(1+0j), center=0.0, "
                           "sigma=1e-200): q, q' or q'' would overflow a float\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("beta", ["1e400", str(10**400), str(-10**400)], ids=["1e400", "10**400", "-10**400"])
def test_a_beta_beyond_the_floats_is_one_config_error(beta, tmp_path, capsys):
    # json reads a 401-digit integer as a Python int, which the reader takes as the infinity 1e400 reads as
    spec = tmp_path / "huge.json"
    spec.write_text(f'{{"boost": {{"beta": {beta}}}, "components": '
                    '[{"omega": 1.0, "profile": {"kind": "constant", "amplitude": 1.0}}]}')
    err = main_config_error(["field", "--spec", str(spec), "--event", "0,0,0,0"], capsys)
    sign = "-" if beta.startswith("-") else ""
    assert err == f"config error: bad spec file {spec}: superluminal boost: beta={sign}inf, need |beta| < 1\n"


def test_gauss_hermite_order_that_overflows_is_one_config_error(tmp_path):
    spec = FieldSpec((HarmonicComponent(2.0, GaussHermiteProfile(1.0, 3, 0.0, 1.2)),), LorentzBoost(0.4))
    (tmp_path / "gh.json").write_text(dumps_spec(spec).replace('"order": 3', '"order": 300'))
    proc = run_boostfield(["verify", "envelope", "--spec", "gh.json", "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert len(proc.stderr.splitlines()) == 1 and "order 300" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "envelope", "--component", "5"],
        ["verify", "envelope", "--component", "-7"],
        ["verify", "envelope", "--component", "-1"],  # in range from the end: still refused
        ["verify", "derivatives", "--component", "3"],
        ["verify", "schrodinger", "--component", "2"],
        ["field", "--event", "0,0,0,0", "--component", "4"],
        ["evolve", "schrodinger", "--grid", "16", "--extent", "8", "--dt", "0.1", "--steps", "1",
         "--component", "1"],
    ],
)
def test_out_of_range_component_is_config_error(args, gauss_spec, tmp_path, capsys):
    assert main(args + ["--spec", gauss_spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --component") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("o/*"))


@pytest.mark.parametrize("check", ["envelope", "derivatives", "klein-gordon"])
@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
def test_bad_stencil_spacing_is_config_error(check, h, gauss_spec, tmp_path, capsys):
    err = main_config_error(["verify", check, "--spec", gauss_spec, "--h", h, "--out", str(tmp_path / "o")], capsys)
    # only derivatives reads --h: it refuses the value, the others the flag
    assert err.startswith("config error: --h" if check == "derivatives" else f"config error: unrecognized arguments: --h {h}")


@pytest.mark.parametrize(
    "args",
    [["verify", "derivatives", "--component", "3"], ["verify", "derivatives", "--h", "0"]],
)
def test_bad_component_and_spacing_subprocess(args, gauss_spec, tmp_path):
    assert_config_error(run_boostfield(args + ["--spec", gauss_spec, "--out", "o"], tmp_path))


@pytest.mark.parametrize("check", ["envelope", "klein-gordon", "scalar", "schrodinger", "beta4"])
def test_spacing_outside_verify_derivatives_is_config_error(check, tmp_path, capsys):
    argv = _base_argv(("verify", check)) + ["--h", "0.01", "--out", str(tmp_path / "o")]
    assert main_config_error(argv, capsys) == "config error: unrecognized arguments: --h 0.01\n"
    assert not (tmp_path / "o").exists()


def test_spacing_outside_verify_derivatives_subprocess(gauss_spec, tmp_path):
    proc = run_boostfield(["verify", "klein-gordon", "--h", "0.5", "--spec", gauss_spec, "--out", "o"], tmp_path)
    assert_config_error(proc)
    assert "unrecognized arguments: --h 0.5" in proc.stderr


def test_verify_derivatives_uses_given_spacing(gauss_spec, tmp_path):
    out = tmp_path / "o"
    rc = main(["verify", "derivatives", "--spec", gauss_spec, "--events", "4", "--h", "0.006",
               "--out", str(out)])
    assert rc == 0
    want = derivative_slopes(loads_spec(Path(gauss_spec).read_text()), 0, sample_events(4, 0), hs=[0.006, 0.003, 0.0015])
    assert json.loads((out / "report.json").read_text())["slopes"] == want


def test_cli_rejects_bad_choice(tmp_path, capsys):
    assert "invalid choice: 'wibble'" in main_config_error(["verify", "wibble", "--out", str(tmp_path / "x")], capsys)
    assert not (tmp_path / "x").exists()


def test_cli_no_command_is_usage_error(capsys):
    assert "name a command" in main_config_error([], capsys)
    assert "unrecognized arguments: --wibble" in main_config_error(["--wibble"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def _flag_errors(words) -> list[tuple[list[str], str]]:
    """argv for a mode that must fail to parse, each with the flag its error names.

    An unknown flag, and each flag with a type given "x", after the mode's
    base argv and --out.
    """
    base = _base_argv(words) + ["--out", "o"]
    typed = [a.option_strings[0] for a in _MODES[words]._actions if a.type is not None]
    return [([*base, "--wibble"], "--wibble")] + [([*base, flag, "x"], flag) for flag in typed]


@pytest.mark.parametrize("command", sorted({words[0] for words in _MODES}))
def test_every_flag_error_is_one_config_error_line(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for words in (w for w in _MODES if w[0] == command):
        for argv, flag in _flag_errors(words):
            assert flag in main_config_error(argv, capsys), argv
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("words", sorted(_MODES), ids=" ".join)
def test_a_mode_refuses_every_flag_it_does_not_read_before_any_output(words, tmp_path, capsys):
    base = _base_argv(words)
    declared = {flag for a in _MODES[words]._actions for flag in a.option_strings}
    for flag in sorted(set(_FLAGS) - declared):  # each flag that a sibling mode or command declares
        for via in ("flags", "config"):
            err = refused_before_any_output(base, [_flag_arg(_FLAGS[flag])], via, tmp_path, capsys)
            assert names_the_flag(err, flag), (flag, via, err)
    for group in _MODES[words]._mutually_exclusive_groups:  # alternatives given together
        extra = [_flag_arg(a) for a in group._group_actions if a.option_strings[0] not in base]
        for via in ("flags", "config"):
            assert "not allowed with argument" in refused_before_any_output(base, extra, via, tmp_path, capsys)
    if any(a.required for a in _MODES[words]._actions if a.dest == "out"):
        assert main_config_error(base, capsys) == "config error: the following arguments are required: --out\n"
        record = _config_from_args(_build_parser().parse_args(base + ["--out", "o"])).to_dict()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(record, out=None)))
        assert main_config_error(["--config", str(path)], capsys).endswith("required: --out\n")


@pytest.mark.parametrize("words", sorted(_MODES), ids=" ".join)
def test_every_mode_prints_its_help(words, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: boostfield {' '.join(words)} ")


# -- evolve --------------------------------------------------------------------


def test_evolve_schrodinger_1d(gauss_spec, tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["evolve", "schrodinger", "--spec", gauss_spec, "--grid", "64",
         "--extent", "16", "--dt", "0.01", "--steps", "20", "--snap-every", "10",
         "--out", str(out)]
    )
    assert rc == 0
    for name in ("snap_000000.npz", "snap_000010.npz", "snap_000020.npz", "observables.csv"):
        assert (out / name).exists()
    header, rows = read_csv(out / "observables.csv")
    assert header == ["t", "norm", "energy", "centroid_z", "width_z"]
    assert len(rows) == 21
    norms = [float(r[1]) for r in rows]
    assert max(norms) - min(norms) < 1e-11
    manifest = json.loads((out / "manifest.json").read_text())
    assert "observables.csv" in manifest["outputs"]
    assert Path(gauss_spec).name in "".join(manifest["inputs"])


def test_evolve_schrodinger_3d_with_the_potential_of_a_static_gaussian(tmp_path):
    # u = q''/q of a static Gaussian varies along z only; the norm holds to
    # round-off, and the envelope is nearly stationary in its own potential
    # (a free one would widen by about 4e-3 here)
    spec = FieldSpec((HarmonicComponent(1.5, GaussianProfile(1.0, 4.0, 1.2)),), LorentzBoost(0.0))
    save_spec(spec, tmp_path / "static.json")
    out = tmp_path / "run"
    rc = main(
        ["evolve", "schrodinger", "--spec", str(tmp_path / "static.json"), "--grid", "16,16,16",
         "--extent", "8", "--dt", "0.02", "--steps", "10", "--potential-from-spec",
         "--snap-every", "10", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out / "observables.csv")
    norms = [float(r[1]) for r in rows]
    assert len(rows) == 11
    assert max(norms) - min(norms) < 1e-13 * norms[0]
    assert abs(float(rows[-1][-1]) - float(rows[0][-1])) < 1e-3 * float(rows[0][-1])


def test_3d_potential_run_leaves_scipy_unloaded(tmp_path):
    # a potential of z alone on a watched line of up to 192 points steps in the z-line eigenbasis,
    # numpy alone, on a 3-d grid and on a 1-d one
    spec = FieldSpec((HarmonicComponent(1.5, GaussianProfile(1.0, 4.0, 1.2)),), LorentzBoost(0.0))
    save_spec(spec, tmp_path / "static.json")
    code = (
        "import sys; from boostfield.cli import main; "
        "run = lambda grid, out: main(['evolve', 'schrodinger', '--spec', sys.argv[1], '--grid', grid, "
        "'--extent', '8', '--dt', '0.02', '--steps', '5', '--potential-from-spec', '--out', out]); "
        "rc = run('16,16,16', sys.argv[2]), run('64', sys.argv[3]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(boostfield.__file__).resolve().parents[1]))
    args = [str(tmp_path / p) for p in ("static.json", "run3", "run1")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0, 0) []\n"


def test_evolve_wave_from_init_snapshot(tmp_path):
    n, L = 64, 16.0
    z = np.arange(n) * (L / n)
    s = 0.8
    f = np.exp(-((z - 8.0) ** 2) / (2 * s * s))
    fp = -(z - 8.0) / (s * s) * f
    init = tmp_path / "init.npz"
    write_snapshot(init, z, f + 0j, -fp + 0j)
    out = tmp_path / "run"
    rc = main(
        ["evolve", "wave", "--init", str(init), "--grid", "64", "--extent", "16",
         "--dt", "0.2", "--steps", "10", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out / "observables.csv")
    energies = [float(r[2]) for r in rows]
    assert max(energies) - min(energies) < 1e-3 * abs(energies[0])


@pytest.mark.parametrize("grid", ["64.7", "32,32,32.5", "1e400", "nan"])
@pytest.mark.parametrize("via", ["flags", "config"])
def test_evolve_refuses_a_grid_that_is_not_integers(via, grid, tmp_path, capsys):
    argv = ["evolve", "kgf", "--spec", "missing.json", "--grid", "64", "--extent", "8", "--dt", "0.1", "--steps", "2"]
    err = refused_before_any_output(argv, [f"--grid={grid}"], via, tmp_path, capsys)
    assert err == f"config error: --grid takes integers, got {grid!r}\n"


def test_evolve_init_refuses_a_z_column_off_the_grid(gauss_spec, tmp_path, capsys):
    run = ["--dt", "0.1", "--steps", "2", "--mass", "1"]
    assert main(["evolve", "schrodinger", "--spec", gauss_spec, "--grid", "16", "--extent", "8", *run,
                 "--out", str(tmp_path / "a")]) == 0
    snap = str(tmp_path / "a" / "snap_000000.npz")
    # the snapshot replays on its own grid and on any grid whose z axis it lies on
    for grid in ("16", "8,9,16"):
        assert main(["evolve", "schrodinger", "--init", snap, "--grid", grid, "--extent", "8", *run,
                     "--out", str(tmp_path / grid)]) == 0
    err = main_config_error(["evolve", "schrodinger", "--init", snap, "--grid", "16", "--extent", "20", *run,
                             "--out", str(tmp_path / "c")], capsys)
    assert err == f"config error: init snapshot {snap} z is not the grid's z axis j * 1.25, j < 16\n"
    assert not (tmp_path / "c").exists()


def test_evolve_missing_init_is_config_error(tmp_path):
    proc = run_boostfield(
        ["evolve", "kgf", "--init", "missing.npz", "--grid", "16", "--extent", "8",
         "--dt", "0.1", "--steps", "2", "--out", "o"],
        tmp_path,
    )
    assert_config_error(proc)
    assert "missing.npz" in proc.stderr


def _init_line(n=16):
    return np.exp(-((0.5 * np.arange(n) - 4.0) ** 2)) + 0.5j


# named init files on a 16-point grid of spacing 0.5, each with the refusal it meets; None is accepted
_INITS = {
    "csv-of-0.5.0": (lambda p: p.write_text("z,re,im\n" + "".join(f"{0.5 * i!r},1.0,0.0\n" for i in range(16))),
                     "is not an evolve .npz snapshot"),
    "npy": (lambda p: np.save(p, _init_line()), "is not an evolve .npz snapshot"),
    "object-array": (lambda p: write_snapshot(p, 0.5 * np.arange(16), _init_line().astype(object), _init_line()),
                     "is not an evolve .npz snapshot"),
    "no-pi": (lambda p: write_snapshot(p, 0.5 * np.arange(16), _init_line()), "holds no pi"),
    "wrong-length": (lambda p: write_snapshot(p, 0.5 * np.arange(15), _init_line(15), _init_line(15)),
                     "z is float64 of shape (15,), not 16 numbers"),
    "z-off-by-1e-10": (lambda p: write_snapshot(p, 0.5 * np.arange(16) + 1e-10, _init_line(), _init_line()), None),
    "z-off-by-1e-8": (lambda p: write_snapshot(p, 0.5 * np.arange(16) + 1e-8, _init_line(), _init_line()),
                      "z is not the grid's z axis j * 0.5, j < 16"),
    "non-finite": (lambda p: write_snapshot(p, 0.5 * np.arange(16), _init_line(), np.where(np.arange(16) == 5, np.nan, _init_line())),
                   "holds non-finite values"),
    "missing": (lambda p: None, "init snapshot not found"),
}


@pytest.mark.parametrize("case", sorted(_INITS))
@pytest.mark.parametrize("via", ["flags", "config"])
def test_an_init_that_is_not_an_evolve_snapshot_of_the_grid_is_refused(via, case, tmp_path, capsys):
    # within 1e-9 of the spacing, z is the grid's axis; beyond it, or a file evolve did not write, is exit 2
    write, message = _INITS[case]
    init = tmp_path / ("init.csv" if case.startswith("csv") else "init.npy" if case == "npy" else "init.npz")
    write(init)
    argv = ["evolve", "kgf", f"--init={init}", "--grid=16", "--extent=8", "--dt=0.1", "--steps=2", "--mass-scalar=1"]
    if message is None:
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        return
    err = refused_before_any_output(argv, [], via, tmp_path, capsys)
    assert str(init) in err and message in err, err


def test_potential_from_spec_with_init_names_the_conflict(tmp_path, capsys):
    # --init reads no spec and refuses one, so the potential cannot come from a spec
    init = tmp_path / "init.npz"
    write_snapshot(init, 0.5 * np.arange(16), np.ones(16, dtype=complex))
    args = ["evolve", "schrodinger", "--init", str(init), "--mass", "1", "--grid", "16", "--extent", "8",
            "--dt", "0.1", "--steps", "2", "--potential-from-spec", "--out", str(tmp_path / "o")]
    assert "needs --spec in place of --init" in main_config_error(args, capsys)
    assert not (tmp_path / "o").exists()


def test_evolve_kgf_dispersion(const_spec, tmp_path):
    # boosted constant profile occupies the signed mode -3 on this extent
    out = tmp_path / "run"
    rc = main(
        ["evolve", "kgf", "--spec", const_spec, "--grid", "128",
         "--extent", repr(8.0 * np.pi), "--dt", "0.05", "--steps", "350",
         "--dispersion-modes", "-3", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out / "dispersion.csv")
    assert header == ["k", "omega_measured", "omega_continuum"]
    k, meas, cont = (float(v) for v in rows[0])
    assert k == pytest.approx(-0.75)
    assert cont == pytest.approx(1.25)  # mass scalar defaults to the carrier
    assert meas == pytest.approx(1.25, rel=1e-2)


def test_a_3d_dispersion_run_writes_its_lines_csv(const_spec, tmp_path):
    # --dispersion-modes reads the z-line: a 3-d run measures as the run of its --grid nz line, bit for bit
    run = ["evolve", "kgf", "--spec", const_spec, "--extent", repr(8.0 * np.pi), "--dt", "0.02", "--steps", "100",
           "--dispersion-modes=-3"]
    for grid in ("16,16,512", "512"):
        assert main([*run, "--grid", grid, "--out", str(tmp_path / grid)]) == 0
    box, line = ((tmp_path / grid / "dispersion.csv").read_bytes() for grid in ("16,16,512", "512"))
    assert box == line and len(read_csv(tmp_path / "512" / "dispersion.csv")[1]) == 1


def test_the_default_mass_keeps_the_spec_carrier_at_any_hbar_and_c(const_spec, plane_spec, tmp_path):
    # without --mass, m = omega hbar / c, so the carrier m c / hbar is the component's omega
    static = tmp_path / "static.json"
    save_spec(FieldSpec((HarmonicComponent(1.5, GaussianProfile(1.0, 0.0, 1.0)),), LorentzBoost(0.0)), static)
    for i, units in enumerate([["--hbar", "2"], ["--hbar", "2", "--c", "2"], ["--c", "3"]]):
        assert main(["verify", "schrodinger", "--spec", str(static), *units, "--out", str(tmp_path / f"v{i}")]) == 0
    ring = ["--grid", "128", "--extent", repr(8.0 * np.pi), "--hbar", "2"]
    assert main(["evolve", "kgf", "--spec", const_spec, *ring, "--dt", "0.05", "--steps", "20",
                 "--dispersion-modes=-3", "--out", str(tmp_path / "k")]) == 0
    k, _, continuum = (float(v) for v in read_csv(tmp_path / "k" / "dispersion.csv")[1][0])
    assert continuum == pytest.approx(np.sqrt(k * k + 1.0**2), rel=1e-12, abs=0.0)  # const_spec: omega = 1
    assert main(["evolve", "schrodinger", "--spec", plane_spec, *ring, "--dt", "0.01", "--steps", "10",
                 "--dispersion-modes=2", "--out", str(tmp_path / "s")]) == 0
    k, _, continuum = (float(v) for v in read_csv(tmp_path / "s" / "dispersion.csv")[1][0])
    assert continuum == pytest.approx(k * k / (2.0 * 2.0), rel=1e-14, abs=0.0)  # hbar / 2mc = 1 / 2 omega; omega = 2


def test_evolve_kgf_weak_mode_fails(const_spec, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["evolve", "kgf", "--spec", const_spec, "--grid", "64",
         "--extent", repr(8.0 * np.pi), "--dt", "0.05", "--steps", "5",
         "--dispersion-modes", "5", "--out", str(out)]
    )
    assert rc == 1
    assert "too weak" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
    assert manifest["outputs"] == ["observables.csv", "snap_000000.npz", "snap_000005.npz"]


def test_evolve_solver_error_exits_1(const_spec, tmp_path, capsys):
    rc = main(["evolve", "kgf", "--spec", const_spec, "--grid", "64", "--extent", "8", "--dt", "1",
               "--steps", "5", "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("solver error: Courant violation") and len(err.splitlines()) == 1


def test_evolve_prints_the_coarse_dt_warning_as_one_line(gauss_spec, tmp_path):
    rc, _, err = _run_quietly(
        ["evolve", "schrodinger", "--spec", gauss_spec, "--grid", "64", "--extent", "6.28",
         "--dt", "0.01", "--steps", "5", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    assert err.startswith("warning: dt=0.01 above dx^2=") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "schrodinger", "--extent=1e-300", "--grid=16", "--dt=0.1", "--steps=2"],  # dx^2 underflows
        ["evolve", "kgf", "--extent=1e308", "--grid=16", "--dt=0.1", "--steps=2"],  # dx^2 overflows
        ["verify", "derivatives", "--h=1e308"],
        ["verify", "envelope", "--box-z=-inf,inf"],
    ],
)
def test_spacings_and_boxes_out_of_float_range_are_config_errors(args, gauss_spec, tmp_path, capsys):
    main_config_error(args + ["--spec", gauss_spec, "--out", str(tmp_path / "o")], capsys)
    assert not (tmp_path / "o").exists()


def test_every_command_prints_a_warning_as_one_line(tmp_path):
    # numpy warns as a plane-wave profile is evaluated at z = inf; the run then exits 2
    spec = FieldSpec((HarmonicComponent(1.7, PlaneWaveProfile(1.0, 1.3)),), LorentzBoost(0.4))
    save_spec(spec, tmp_path / "pw.json")
    proc = run_boostfield(
        ["spectrum", "--spec", "pw.json", "--z=inf", "--t-max=10", "--dt=0.1", "--omegas-from-spec", "--out", "o"],
        tmp_path,
    )
    *warned, last = proc.stderr.splitlines()
    assert proc.returncode == 2 and last.startswith("config error:"), proc.stderr
    assert warned and all(line.startswith("warning: ") for line in warned), proc.stderr
    assert not (tmp_path / "o").exists()


_EQUATION_FLAGS = {"kgf": ["--mass-scalar=0.7"], "wave": [], "schrodinger": ["--mass=1.3"]}


@settings(max_examples=30, deadline=None)
@given(
    equation=st.sampled_from(sorted(_EQUATION_FLAGS)),
    n=st.integers(8, 40),
    data=st.data(),
    steps=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_cli_dispersion_is_measure_dispersion_over_the_runs_states(equation, n, data, steps, seed):
    m = data.draw(st.integers(-(n // 2), n // 2), label="m")
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((4, n))
    extent, dt = float(n), 0.3  # dx = 1, inside the leapfrog Courant bound
    with tempfile.TemporaryDirectory() as d:
        init, out = Path(d, "init.npz"), Path(d, "o")
        write_snapshot(init, np.arange(n) * 1.0, cols[0] + 1j * cols[1], cols[2] + 1j * cols[3])
        rc, _, err = _run_quietly(
            ["evolve", equation, f"--init={init}", f"--grid={n}", f"--extent={extent!r}", f"--dt={dt!r}",
             f"--steps={steps}", "--snap-every=1", f"--dispersion-modes={m}", f"--out={out}", *_EQUATION_FLAGS[equation]]
        )
        states, t = [], 0.0
        for i in range(steps + 1):
            field = load_snapshot(out / f"snap_{i:06d}.npz")["psi"]
            states.append(GridState(Grid((extent,), (n,)), field, None, t=t))
            t += dt  # the solver's own sum of steps
        k = 2.0 * np.pi * m / extent
        if rc == 1:  # a mode that passed within 1e-12 of zero
            assert "too weak" in err
            with pytest.raises(ValueError, match="too weak"):
                measure_dispersion(states, k)
            return
        assert rc == 0, err
        _, rows = read_csv(out / "dispersion.csv")
    assert [float(v) for v in rows[0][:2]] == [k, measure_dispersion(states, k)]


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 3]),
    n=st.integers(8, 11),
    mode=st.one_of(st.integers(-12, 12), st.sampled_from([0.5, -2.5, 1e-3])),
    steps=st.integers(0, 3),
    snap_every=st.integers(-2, 2),
)
def test_evolve_refusals_come_before_any_output(dim, n, mode, steps, snap_every):
    refused = (
        snap_every < 0 or not float(mode).is_integer() or steps < 2 or 2 * abs(mode) > n
    )
    with tempfile.TemporaryDirectory() as d:
        spec, out = Path(d, "c.json"), Path(d, "o")
        save_spec(FieldSpec((HarmonicComponent(1.0, ConstantProfile(1.0)),), LorentzBoost(0.6)), spec)
        rc, _, err = _run_quietly(
            ["evolve", "kgf", f"--spec={spec}", "--grid=" + ",".join([str(n)] * dim), "--extent=8",
             "--dt=0.1", f"--steps={steps}", f"--snap-every={snap_every}", f"--dispersion-modes={mode}",
             f"--out={out}"]
        )
        if refused:
            assert rc == 2 and err.startswith("config error:") and len(err.splitlines()) == 1, err
            assert not out.exists()
        else:
            assert rc == 0 or (rc == 1 and "too weak" in err), err


# named cases of flags an equation never reads, each with its rule; the parser-walking test covers every pair
_UNREAD_FLAGS = [
    ("wave", ["--mass=1"], "evolve wave reads no --mass; drop it"),
    ("wave", ["--mass-scalar=1"], "evolve wave reads no --mass-scalar; drop it"),
    ("wave", ["--potential-from-spec"], "evolve wave reads no --potential-from-spec; drop it"),
    ("schrodinger", ["--mass-scalar=1"], "evolve schrodinger reads no --mass-scalar; drop it"),
    ("kgf", ["--potential-from-spec"], "evolve kgf reads no --potential-from-spec; drop it"),
    ("kgf", ["--mass=1", "--mass-scalar=2"], "evolve kgf reads --mass only without --mass-scalar; drop one"),
]


@pytest.mark.parametrize("equation,flags,rule", _UNREAD_FLAGS)
@pytest.mark.parametrize("via", ["flags", "config"])
def test_flags_an_equation_never_reads_are_refused_before_any_output(
    equation, flags, rule, via, const_spec, tmp_path, capsys
):
    args = ["evolve", equation, "--spec", const_spec, "--grid", "16", "--extent", "8", "--dt", "0.05", "--steps", "3"]
    err = refused_before_any_output(args, flags, via, tmp_path, capsys)
    assert names_the_flag(err, flags[-1].partition("=")[0]), err


def test_negative_snap_every_is_refused_before_any_output(const_spec, tmp_path, capsys):
    args = ["evolve", "kgf", "--spec", const_spec, "--grid", "16", "--extent", "8", "--dt", "0.05",
            "--steps", "3", "--snap-every=-1", "--out", str(tmp_path / "o")]
    assert main_config_error(args, capsys) == "config error: --snap-every must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("with_potential", [False, True])
def test_schrodinger_dispersion_continuum_is_the_schrodinger_relation(with_potential, plane_spec, tmp_path):
    # plane_spec: omega = 2, so m = 2 with hbar = c = 1 and hbar / 2mc = 1/4; its potential is
    # u = -(gamma K)^2, gamma^2 = 4/3 at beta = 0.5
    out = tmp_path / "o"
    rc = main(
        ["evolve", "schrodinger", "--spec", plane_spec, "--grid", "128", "--extent", repr(8.0 * np.pi),
         "--dt", "0.01", "--steps", "200", "--dispersion-modes", "2", "--out", str(out)]
        + (["--potential-from-spec"] if with_potential else [])
    )
    assert rc == 0
    k, measured, continuum = (float(v) for v in read_csv(out / "dispersion.csv")[1][0])
    u = -(1.3**2) * 4.0 / 3.0 if with_potential else 0.0
    assert k == 0.5 and continuum == pytest.approx(0.25 * abs(k * k + u), rel=1e-14)
    assert measured == pytest.approx(continuum, rel=1e-3)


def test_schrodinger_dispersion_refuses_a_potential_that_varies(tmp_path, capsys):
    spec = tmp_path / "static.json"
    save_spec(FieldSpec((HarmonicComponent(1.5, GaussianProfile(1.0, 4.0, 1.2)),), LorentzBoost(0.0)), spec)
    args = ["evolve", "schrodinger", "--spec", str(spec), "--grid", "64", "--extent", "8", "--dt", "0.01",
            "--steps", "5", "--potential-from-spec", "--dispersion-modes", "1", "--out", str(tmp_path / "o")]
    assert "needs a constant potential" in main_config_error(args, capsys)
    assert not (tmp_path / "o").exists()


def test_evolve_3d_binary_snapshot(gauss_spec, tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["evolve", "schrodinger", "--spec", gauss_spec, "--grid", "8,8,8",
         "--extent", "4", "--dt", "0.01", "--steps", "2", "--snap-every", "2",
         "--out", str(out)]
    )
    assert rc == 0
    snap = load_snapshot(out / "snap_000002.npz")
    assert snap["step"] == 2 and snap["psi"].shape == (8,) and snap["psi"].dtype == complex
    assert np.array_equal(snap["z"], 0.5 * np.arange(8))
    dv = (4.0 / 8) ** 3
    norm = float(np.sqrt(8 * 8 * np.sum(np.abs(snap["psi"]) ** 2) * dv))  # the line repeated across x and y
    _, rows = read_csv(out / "observables.csv")
    assert norm == pytest.approx(float(rows[-1][1]), rel=1e-12)


@pytest.mark.parametrize("equation", ["kgf", "wave", "schrodinger"])
def test_a_3d_run_writes_its_z_line_run_broadcast(equation, gauss_spec, tmp_path):
    # a 3-d state is its z-line: on a power-of-two grid each 3-d snapshot is the --grid nz run's, bit for bit
    run = ["evolve", equation, "--spec", gauss_spec, "--extent", "8", "--dt", "0.01", "--steps", "6"]
    for grid in ("8,16,32", "32"):
        assert main([*run, "--grid", grid, "--snap-every", "3", "--out", str(tmp_path / grid)]) == 0
    for step in (0, 3, 6):
        box, line = (load_snapshot(tmp_path / grid / f"snap_{step:06d}.npz") for grid in ("8,16,32", "32"))
        assert box.keys() == line.keys()
        assert all(np.array_equal(np.atleast_1d(box[k]).view(np.int64), np.atleast_1d(line[k]).view(np.int64)) for k in box)


_SNAP_KEYS = {"kgf": ["pi", "psi", "step", "t", "z"], "wave": ["pi", "psi", "step", "t", "z"],
              "schrodinger": ["psi", "step", "t", "z"]}


@pytest.mark.parametrize("grid", ["16", "8,8,16"])
@pytest.mark.parametrize("equation", sorted(_SNAP_KEYS))
def test_a_snapshot_holds_exactly_the_states_line_and_no_clock(equation, grid, tmp_path):
    # each snapshot is the state that a library run's monitor sees at its step, bit for bit, in entries
    # that carry zipfile's fixed 1980 date, so a rerun writes the same bytes
    pts = tuple(int(n) for n in grid.split(","))
    rng = np.random.default_rng(len(pts))
    psi, pi = (rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(2))
    pi = None if equation == "schrodinger" else pi
    write_snapshot(tmp_path / "init.npz", 0.5 * np.arange(16), psi, pi)
    flags = {"kgf": ["--mass-scalar", "0.7"], "wave": [], "schrodinger": ["--mass", "1"]}[equation]
    argv = ["evolve", equation, "--init", str(tmp_path / "init.npz"), "--grid", grid, "--extent", "8",
            "--dt", "0.1", "--steps", "7", "--snap-every", "3", *flags, "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    seen = {}
    if pi is None:
        cfg = pde.SolverConfig(0.1, 7, "crank_nicolson", mass=pde.MassParameters(1.0, 1.0))
    else:
        cfg = pde.SolverConfig(0.1, 7, "leapfrog", mass_scalar=0.7 if equation == "kgf" else 0.0)
    g = Grid((8.0,) * len(pts), pts)
    start = GridState(g, *(None if a is None else np.broadcast_to(a, pts) for a in (psi, pi)))
    getattr(pde, f"evolve_{equation}")(start, cfg, monitor=lambda st_: seen.setdefault(st_.step_count, st_.copy()))
    seen[0] = start
    for step in (0, 3, 6, 7):
        path = tmp_path / "o" / f"snap_{step:06d}.npz"
        with zipfile.ZipFile(path) as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        snap = load_snapshot(path)
        assert sorted(snap) == _SNAP_KEYS[equation] and snap["step"] == step and snap["t"] == seen[step].t
        for name, a in (("psi", seen[step].field), ("pi", seen[step].pi)):
            assert a is None or np.array_equal(snap[name].view(np.int64), pde._line(a).view(np.int64))


@pytest.mark.parametrize("steps,snap_every,written", [(20, 10, (0, 10, 20)), (0, 0, (0,)), (0, 5, (0,)), (7, 3, (0, 3, 6, 7))])
def test_each_snapshot_is_written_once(steps, snap_every, written, const_spec, tmp_path, monkeypatch):
    calls, write = [], _Outputs.write_bytes

    def counted(self, name, data):
        calls.append(name)
        write(self, name, data)

    monkeypatch.setattr(_Outputs, "write_bytes", counted)
    assert main(["evolve", "kgf", "--spec", const_spec, "--grid", "16", "--extent", "8", "--dt", "0.05",
                 f"--steps={steps}", f"--snap-every={snap_every}", "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == sorted({*calls}) == sorted(["observables.csv", "manifest.json"] + [f"snap_{i:06d}.npz" for i in written])


# equations by the branch their runs take: (equation, flags, whether u is a z-only line)
_RESUMED = {
    "kgf": ("kgf", ["--mass-scalar=0.7"], False),
    "wave": ("wave", [], False),
    "schrodinger-free": ("schrodinger", ["--mass=1"], False),
    "schrodinger-eigenbasis": ("schrodinger", ["--mass=1"], True),  # nz <= 192, as an evolve run is watched
    "schrodinger-lu": ("schrodinger", ["--mass=1"], True),  # nz > 192
}


@st.composite
def resumed_runs(draw):
    case = draw(st.sampled_from(sorted(_RESUMED)))
    dim = draw(st.sampled_from([1, 3]))
    nz = draw(st.integers(193, 200) if case == "schrodinger-lu" else st.integers(8, 24))
    return case, (8, 8, nz)[3 - dim:], draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(resumed_runs())
def test_a_run_resumed_from_its_snapshot_is_the_whole_run_bit_for_bit(drawn):
    # N + M steps equal N steps, then --init of snap_N, then M steps, in psi and pi
    case, pts, n, m, seed = drawn
    equation, flags, z_only = _RESUMED[case]
    nz, extent = pts[-1], 0.5 * pts[-1]
    rng = np.random.default_rng(seed)
    psi, pi = (rng.standard_normal(nz) + 1j * rng.standard_normal(nz) for _ in range(2))
    u = 0.4 + np.cos(2.0 * np.pi * np.arange(nz) / nz)
    u.flags.writeable = False
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        if z_only:  # the run's potential: an --init run takes none from a spec
            mp.setattr(pde.SolverConfig, "potential_on", lambda self, grid: u)
        write_snapshot(Path(d, "init.npz"), 0.5 * np.arange(nz), psi, None if equation == "schrodinger" else pi)

        def run(init, steps, out):
            argv = ["evolve", equation, f"--init={init}", "--grid=" + ",".join(map(str, pts)), f"--extent={extent!r}",
                    "--dt=0.1", f"--steps={steps}", f"--out={Path(d, out)}", *flags]
            assert main(argv) == 0
            return load_snapshot(Path(d, out, f"snap_{steps:06d}.npz"))

        whole = run(Path(d, "init.npz"), n + m, "whole")
        run(Path(d, "init.npz"), n, "first")
        resumed = run(Path(d, "first", f"snap_{n:06d}.npz"), m, "rest")
    assert whole.keys() == resumed.keys()
    for name in ("psi", "pi") if equation != "schrodinger" else ("psi",):
        assert np.array_equal(whole[name].view(np.int64), resumed[name].view(np.int64))


def test_evolve_courant_violation_exits_one(const_spec, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["evolve", "kgf", "--spec", const_spec, "--grid", "64", "--extent", "8",
         "--dt", "0.5", "--steps", "5", "--out", str(out)]
    )
    assert rc == 1
    assert "Courant" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
    assert manifest["outputs"] == ["snap_000000.npz"]


def test_potential_refused_on_the_first_measure_leaves_no_output(tmp_path, capsys):
    # u = q''/q of a table with a zero node is not finite; the first measure finds it
    z = np.linspace(0.0, 8.0, 41)
    profile = {"kind": "tabulated", "z": z.tolist(), "values": np.sin(np.pi * z / 8.0).tolist()}
    spec = tmp_path / "node.json"
    spec.write_text(json.dumps({"boost": {"beta": 0.0}, "components": [{"omega": 1.5, "profile": profile}]}))
    rc, _, err = _run_quietly(
        ["evolve", "schrodinger", "--spec", str(spec), "--grid", "64", "--extent", "8", "--dt", "0.001",
         "--steps", "3", "--potential-from-spec", "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert err.splitlines()[-1] == "config error: potential evaluated to non-finite values on the grid"
    assert not (tmp_path / "o").exists()


# -- limit-scan and config files -------------------------------------------------


def test_limit_scan_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(["limit-scan", "--mass", "1.0", "--betas", "0.01,0.02,0.04,0.08", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "beta_term.csv")
    assert header == ["beta", "term"]
    assert len(rows) == 4
    scan = json.loads((out / "scan.json").read_text())
    assert scan["fitted_slope"] == pytest.approx(4.0, abs=0.05)


def test_config_file_run(tmp_path, capsys):
    cfg = {
        "command": "boost",
        "spec": None,
        "params": {"beta": 0.6, "event": "0,0,1,0"},
        "out": None,
        "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0,0,1.25,-0.75"


def test_config_file_bad_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "boost"}))
    assert main(["--config", str(path)]) == 2
    assert "config" in capsys.readouterr().err


def test_reports_reproducible(gauss_spec, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(
            ["verify", "envelope", "--spec", gauss_spec, "--events", "40",
             "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    manifests = []
    for out in outs:
        m = json.loads((out / "manifest.json").read_text())
        m.pop("created_utc")
        m["config"]["out"] = None
        manifests.append(m)
    assert manifests[0] == manifests[1]
