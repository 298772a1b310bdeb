import ast
import re
from pathlib import Path

import ldaselect


def test_all_lists_exactly_the_public_imports():
    """``__all__`` names every public name ``__init__`` imports, once, and
    nothing else, so ``from ldaselect import *`` cannot name a deleted object."""
    tree = ast.parse(Path(ldaselect.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [name for name in imported if not name.startswith("_")]
    assert len(set(ldaselect.__all__)) == len(ldaselect.__all__)
    assert sorted(ldaselect.__all__) == sorted(public)
    namespace: dict = {}
    exec("from ldaselect import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(public)


def test_every_public_name_is_used_or_documented():
    """Each name in ``__all__`` is referenced by a package module other than
    ``__init__`` (its own definition is not a reference) or named in the
    README, so the package exports no code that only the tests call."""
    used = set()
    for path in Path(ldaselect.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = set(re.findall(r"\w+", readme.read_text(encoding="utf-8")))
    assert [name for name in ldaselect.__all__ if name not in used | documented] == []


def test_every_module_level_name_is_referenced_or_exported():
    """Each function, class and constant a package module defines at module
    level is referenced somewhere in the package (its own definition is not a
    reference) or listed in ``__all__``, so no code lives on that only the
    tests call."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(ldaselect.__file__).parent.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    unused = [
        f"{module}: {name}" for module, name in defined
        if not name.startswith("__") and name not in used | set(ldaselect.__all__)
    ]
    assert unused == []
