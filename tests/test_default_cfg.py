"""The shipped default.cfg: its keys are declared options, its values (but the seeds) their defaults."""

import argparse
import configparser
from pathlib import Path

import pytest

from onebitcs.cli import COMMANDS, _effective

DEFAULT_CFG = Path(__file__).parent.parent / "default.cfg"
WITH_OPTIONS = [command for command, (_, options) in COMMANDS.items() if options]


def _ini() -> configparser.ConfigParser:
    ini = configparser.ConfigParser()
    assert ini.read(DEFAULT_CFG) == [str(DEFAULT_CFG)]
    return ini


def test_a_section_for_every_subcommand_with_options():
    assert _ini().sections() == WITH_OPTIONS


@pytest.mark.parametrize("command", WITH_OPTIONS)
def test_keys_are_declared_and_values_but_the_seed_are_the_defaults(command):
    declared = {option.key: option.default for option in COMMANDS[command][1]}
    assert set(_ini()[command]) <= set(declared)
    effective = _effective(argparse.Namespace(config=str(DEFAULT_CFG)), command)
    for key, default in declared.items():
        if key != "seed":
            assert (effective[key], type(effective[key])) == (default, type(default)), key
