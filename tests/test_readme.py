"""The README against the code it documents, without running anything: every
command line in its shell blocks parses, and its config key block names
exactly the fields of the config dataclasses."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from ldaselect.cli import build_parser
from ldaselect.config import _KEY_ALIASES, PipelineConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _command_lines() -> list[str]:
    """Each ``ldaselect …`` line of the README's shell blocks, continuation
    lines joined."""
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ldaselect "):
                lines.append(line)
    return lines


def test_the_readme_shows_commands():
    assert len(_command_lines()) >= 10


@pytest.mark.parametrize("line", _command_lines())
def test_every_readme_command_line_parses(line):
    """A README line that names a deleted command or flag exits 1 here."""
    argv = shlex.split(line, comments=True)
    assert argv[0] == "ldaselect"
    build_parser().parse_args(argv[1:])


def test_the_readme_key_block_names_every_config_field():
    """The ``[section] keys`` block lists each section of ``PipelineConfig``
    with exactly its fields, a key named by the alias the loader reads it
    under (``lambda (alias: threshold)`` for ``selection.threshold``).
    Parenthesised notes and ``;`` comments are not keys."""
    (block,) = _blocks("ini")
    listed: dict[str, set[str]] = {}
    section = None
    for line in block.splitlines():
        line = line.split(";")[0]
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
            line = line[m.end():]
        keys = [k.strip() for k in re.sub(r"\([^)]*\)", "", line).split(",")]
        listed.setdefault(section, set()).update(
            _KEY_ALIASES.get((section, k), k) for k in keys if k
        )
    config = PipelineConfig()
    assert listed == {
        s.name: {f.name for f in fields(getattr(config, s.name))} for s in fields(config)
    }
