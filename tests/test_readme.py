"""The README's command examples, run as written.

Every `suborbital ...` line of the README's sh blocks runs in-process
through main(argv), with a trailing redirect stripped, and must exit 0.
A line ending in a `# value` comment must also print exactly that value.
"""

import pathlib
import re
import shlex

import pytest

from suborbital.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """(argv, printed value or None) of each suborbital line, in order."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = []
    for line in "\n".join(blocks).splitlines():
        if not line.startswith("suborbital "):
            continue
        command, _, value = line.partition("#")
        command = command.split(">")[0]
        commands.append((shlex.split(command)[1:], value.strip() or None))
    return commands


COMMANDS = readme_commands()


def test_the_readme_lists_its_commands():
    assert len(COMMANDS) == 14
    assert sum(value is not None for _, value in COMMANDS) == 4


@pytest.mark.parametrize("argv, value", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command_runs(capsys, argv, value):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if value is not None:
        assert out == value + "\n"
