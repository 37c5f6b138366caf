"""The README's examples are read by the one schema: the flag parser, the spec and config loaders."""

import json
import re
import shlex
from pathlib import Path

import pytest

from boostfield import loads_spec
from boostfield.cli import ExperimentConfig, _build_parser, _config_from_args

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.S | re.M)


def _commands() -> list[list[str]]:
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("boostfield ")]


def test_readme_has_examples_of_each_kind():
    assert len(_commands()) >= 8
    records = [json.loads(text) for text in _blocks("json")]
    assert any("command" in r for r in records) and any("components" in r for r in records)


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_commands_parse(argv):
    ns = _build_parser().parse_args(argv)
    if ns.config is None:
        _config_from_args(ns)  # the config a flag run records


@pytest.mark.parametrize("text", _blocks("json"))
def test_readme_json_blocks_load(text):
    record = json.loads(text)
    if "command" in record:
        ExperimentConfig.from_dict(record)
    else:
        loads_spec(text)
