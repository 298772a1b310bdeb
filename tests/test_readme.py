"""The README against the code it documents: every command line in its shell
blocks parses, its config key block names exactly the fields of the config
dataclasses, its Python blocks import exported names and call them with
arguments their signatures take, and its quick start runs."""

import ast
import inspect
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import ldaselect
from ldaselect.cli import build_parser, main
from ldaselect.config import _KEY_ALIASES, PipelineConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def _command_lines(text: str = README) -> list[str]:
    """Each ``ldaselect …`` line of the shell blocks of ``text``,
    continuation lines joined."""
    lines = []
    for block in _blocks("sh", text):
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
    with exactly its fields, a field named by the key the loader reads it
    under (``lambda`` for ``selection.threshold``). Parenthesised notes and
    ``;`` comments are not keys."""
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


@pytest.mark.parametrize("block", _blocks("python"))
def test_readme_python_blocks_call_exported_names_as_their_signatures_allow(block):
    """Each name a Python block imports from ``ldaselect`` is in ``__all__``,
    and each call of one binds to its signature: no surplus positional
    argument and no keyword it lacks. Arguments are not evaluated."""
    tree = ast.parse(block)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ldaselect":
            for alias in node.names:
                assert alias.name in ldaselect.__all__, alias.name
                imported[alias.asname or alias.name] = getattr(ldaselect, alias.name)
    assert imported
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        signature = inspect.signature(imported[node.func.id])
        try:
            signature.bind_partial(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{ast.unparse(node)} (block line {node.lineno}): {exc}")


def test_the_quick_start_runs(tmp_path, capsys):
    """The quick start, with ``/tmp/demo`` moved to a temporary directory:
    its Python block writes the corpus, its heredoc the config, and each of
    its commands exits 0; the greedy selection's enrichment is above 1."""
    quick = README[README.index("## Quick start"):README.index("## Pipeline stages")]
    demo = str(tmp_path)
    (corpus,) = _blocks("python", quick)
    exec(corpus.replace("/tmp/demo", demo), {})
    (shell,) = _blocks("sh", quick)
    config = re.search(r"<<'EOF'\n(.*?)^EOF$", shell, flags=re.M | re.S).group(1)
    (tmp_path / "run.cfg").write_text(config.replace("/tmp/demo", demo), encoding="utf-8")
    commands = [shlex.split(line.replace("/tmp/demo", demo)) for line in _command_lines(quick)]
    assert [argv[1] for argv in commands] == ["run", "sweep-lambda", "report", "compare"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    table = capsys.readouterr().out.split("target domain: domain0\n")[1].splitlines()
    assert table[0].split()[-1] == "enrichment"
    (greedy,) = [row.split() for row in table if row.startswith("greedy ")]
    assert float(greedy[-1]) > 1.0
