"""Every name an atlas module imports is read somewhere in that module: an
import left behind when the code that read it went away is dead weight
that hides what a module depends on."""

import ast
from pathlib import Path

import atlas

SRC = Path(atlas.__file__).resolve().parent


def _bound_names(node):
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # `import a.b` binds a; `import a.b as c` and `from m import a as c` bind c
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _unread_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name: line for name, line in imported.items() if name not in read}


def test_every_imported_name_is_read():
    found = [f"{path.name}:{line} imports {name}"
             for path in sorted(SRC.glob("*.py"))
             for name, line in _unread_imports(ast.parse(path.read_text())).items()]
    assert found == []


def test_the_check_sees_an_unread_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as j\nfrom math import gcd, lcm\n"
                     "print(os.sep, j, lcm)\n")
    assert _unread_imports(tree) == {"gcd": 4}
