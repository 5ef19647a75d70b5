"""README examples run as written: the Python block and each `$ colorperm` example."""

import re
import shlex
from pathlib import Path

import pytest

from colorperm.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)


def shell_examples():
    """(command line, expected stdout) for every `$ colorperm ...` line."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ colorperm "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output))
    return examples


def test_python_block_runs():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("command, expected", shell_examples())
def test_shell_example_output(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


def test_every_shell_example_is_collected():
    assert 0 < len(shell_examples()) == README.count("\n$ colorperm ")
