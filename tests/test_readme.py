"""The command line examples and library snippets in README.md print what
the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from cfcgf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks() -> list[tuple[str, str]]:
    """The README's code blocks as (info string, text) pairs."""
    found = []
    block = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if block is None:
                info, block = line[3:].strip(), []
            else:
                found.append((info, "\n".join(block)))
                block = None
        elif block is not None:
            block.append(line)
    return found


def examples() -> list[tuple[str, str]]:
    """Each `$ cfcgf ...` line of the README's code blocks, with the text
    that follows it up to the next command or the end of its block."""
    found = []
    for _, text in blocks():
        parts = re.split(r"^\$ cfcgf ", text, flags=re.M)
        for part in parts[1:]:
            command, _, shown = part.partition("\n")
            found.append((command, shown.strip("\n")))
    return found


def snippets() -> list[tuple[str, str]]:
    """Each python block of the README, with the block after it, which
    shows what the code prints."""
    found = blocks()
    return [
        (code, shown)
        for (info, code), (_, shown) in zip(found, found[1:])
        if info == "python"
    ]


EXAMPLES = examples()
SNIPPETS = snippets()


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


def test_readme_library_snippets(capsys):
    assert SNIPPETS
    for code, shown in SNIPPETS:
        exec(code, {})
        assert capsys.readouterr().out.strip("\n") == shown
