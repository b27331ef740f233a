"""Every name a package module imports is used in that module.

``__init__`` is left out (its imports are the exports), and so are
``__future__`` imports.  A deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import splithex

MODULES = sorted(p for p in Path(splithex.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> set:
    """The names the source imports but never reads or writes."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == set()


def test_an_unused_import_is_caught():
    source = "from .algebra import f4_mul, hermitian\nhermitian(1, 2)\n"
    assert unused_imports(source) == {"f4_mul"}
