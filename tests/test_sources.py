"""The library's sources, parsed without running them: one function,
``corpus.open_file``, opens files to read, so every reader refuses a path
that is not a regular file in the same way; and only ``errors`` holds the
input checks of seeds, counts and tolerances, so each is refused with the
same words everywhere. A new way round either shows here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ldaselect"

# Names whose call opens a file to read, whatever its arguments: the path
# readers of pathlib and numpy, ``os.fdopen`` and ``io.FileIO``.
_ALWAYS = {"fdopen", "FileIO", "fromfile", "memmap", "loadtxt", "genfromtxt",
           "read_bytes", "read_text"}


def _opens_to_read(call: ast.Call) -> bool:
    """Whether ``call`` opens a file to read: one of ``_ALWAYS``, ``os.open``,
    or an ``open`` (builtin, ``io.open`` or a path's ``.open``) whose mode
    holds "r" or "+" or is not a literal string. A path's ``.open`` takes its
    mode first, the others second."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _ALWAYS:
        return True
    if name != "open":
        return False
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
        func.value, ast.Name) else None
    if owner == "os":
        return True
    position = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins") else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[position] if len(call.args) > position else ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "r" in mode.value or "+" in mode.value


def _openers(source: str, module: str) -> set[str]:
    """``module.function`` for each function in ``source`` that opens a file
    to read (``module`` alone for module-level code)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and _opens_to_read(child):
                found.add(scope)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_only_the_helper_opens_files_to_read():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _openers(path.read_text(encoding="utf-8"), path.stem)
    assert found == {"corpus.open_file"}


@pytest.mark.parametrize("line, opens", [
    ("open(p)", True),
    ("open(p, 'rb')", True),
    ("open(p, mode='r+b')", True),
    ("open(p, mode)", True),
    ("io.open(p, 'rt')", True),
    ("os.open(p, os.O_WRONLY)", True),
    ("os.fdopen(fd)", True),
    ("io.FileIO(p)", True),
    ("np.fromfile(p)", True),
    ("Path(p).read_bytes()", True),
    ("p.read_text(encoding='utf-8')", True),
    ("p.open()", True),
    ("p.open('ab+')", True),
    ("open(p, 'w')", False),
    ("open(p, 'ab')", False),
    ("io.open(p, mode='wb')", False),
    ("p.open('w', encoding='utf-8')", False),
    ("p.write_bytes(b'')", False),
    ("json.loads(data)", False),
])
def test_the_check_sees_each_way_to_open_a_file_to_read(line, opens):
    assert _openers(f"def f():\n    {line}\n", "m") == ({"m.f"} if opens else set())


# The messages of ``errors.validate_seed``, ``validate_count`` and
# ``validate_positive``.
_CHECK_MESSAGES = ("must be finite and positive", "must be an integer >= 1",
                   "must be a non-negative integer")


def _input_checks(source: str) -> set[str]:
    """What ``source`` holds of the input checks: a use or import of
    ``numbers.Integral``, and each of ``_CHECK_MESSAGES`` in a string, an
    f-string's literal parts included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(
            node, "name", None)
        if name == "Integral":
            found.add("numbers.Integral")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {m for m in _CHECK_MESSAGES if m in node.value}
    return found


def test_only_errors_holds_the_input_checks():
    found = {path.stem: _input_checks(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    errors = found.pop("errors")
    assert {module: checks for module, checks in found.items() if checks} == {}
    assert errors == {"numbers.Integral", *_CHECK_MESSAGES}


@pytest.mark.parametrize("line, found", [
    ("isinstance(x, numbers.Integral)", {"numbers.Integral"}),
    ("isinstance(x, Integral)", {"numbers.Integral"}),
    ("from numbers import Integral", {"numbers.Integral"}),
    ("raise ValidationError(f'{name} must be finite and positive, got {v}')",
     {"must be finite and positive"}),
    ("raise ValidationError('k must be an integer >= 1')", {"must be an integer >= 1"}),
    ("m = f'{name} must be a non-negative integer'", {"must be a non-negative integer"}),
    ("isinstance(x, int)", set()),
    ("validate_positive(tol, 'tol')", set()),
    ("raise ValidationError(f'{name} must be >= 1')", set()),
])
def test_the_check_sees_each_input_check(line, found):
    assert _input_checks(f"def f():\n    {line}\n") == found
