import ast
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
