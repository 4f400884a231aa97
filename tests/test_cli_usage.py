"""Usage checks of the command line: README examples and study options."""

import re
import shlex
from pathlib import Path

import pytest

from bfsmooth.cli import _build_parser, main
from bfsmooth.errors import ParameterError
from bfsmooth.study import exponential_sizes

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Every `bfsmooth ...` command in README's fenced blocks, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                            flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bfsmooth "):
                commands.append(line)
    return commands


def test_readme_has_cli_examples():
    assert len(_readme_commands()) >= 8


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    # argparse exits (SystemExit) on a usage error
    _build_parser().parse_args(shlex.split(command)[1:])


@pytest.mark.parametrize("multiplier", ["0", "-2", "1"])
def test_density_multiplier_must_exceed_one(multiplier, capsys):
    code = main(["study", "density", "--max-size", "50", "--n-sizes", "3",
                 f"--multiplier={multiplier}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "multiplier" in err


@pytest.mark.parametrize("multiplier", [0.0, -2.0, 1.0, float("nan")])
def test_exponential_sizes_rejects_multiplier(multiplier):
    with pytest.raises(ParameterError):
        exponential_sizes(3, 50, multiplier)
