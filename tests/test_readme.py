"""The command line examples in README.md print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from cfcgf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, str]]:
    """Each `$ cfcgf ...` line of the README's code blocks, with the text
    that follows it up to the next command or the end of its block."""
    blocks: list[list[str]] = []
    block = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append(block)
            block = [] if block is None else None
        elif block is not None:
            block.append(line)
    found = []
    for block in blocks:
        parts = re.split(r"^\$ cfcgf ", "\n".join(block), flags=re.M)
        for part in parts[1:]:
            command, _, shown = part.partition("\n")
            found.append((command, shown.strip("\n")))
    return found


EXAMPLES = examples()


def test_the_readme_has_examples():
    commands = {command.split()[0] for command, _ in EXAMPLES}
    assert commands == {"series", "genfun", "automaton", "oracle", "verify"}


@pytest.mark.parametrize(
    "command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES]
)
def test_readme_example(command, shown, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # for the files an example writes
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.strip("\n") == shown
