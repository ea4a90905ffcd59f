"""Every atlas value is complete when it is built, so the README's "pure and
immutable after construction" holds: no method but __init__ writes an
attribute of self (or an item of one), no function writes into its
parameters, and no cached_property fills a field in on first use."""

import ast
from pathlib import Path

import atlas

SRC = Path(atlas.__file__).resolve().parent


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _writes_self(node) -> bool:
    """Whether node stores to or deletes self.<attr> or self.<attr>[...]."""
    if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def test_only_init_writes_self():
    found = set()
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "__init__":
                continue
            found.update(f"{path.name}:{node.lineno} in {fn.name}"
                         for node in ast.walk(fn) if _writes_self(node))
    assert sorted(found) == []


def _root_name(node):
    """The name an attribute or item chain such as a.b[i].c starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_function_writes_into_its_parameters():
    # state a call fills in, such as a tree of balls refined across calls,
    # stays a local of the call that owns it; self is the business of
    # test_only_init_writes_self
    found = set()
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if arg} - {"self"}
            found.update(f"{path.name}:{node.lineno} in {fn.name}"
                         for node in ast.walk(fn)
                         if isinstance(node, (ast.Attribute, ast.Subscript))
                         and isinstance(node.ctx, (ast.Store, ast.Del))
                         and _root_name(node) in params)
    assert sorted(found) == []


def test_no_cached_property():
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "cached_property")
             or (isinstance(node, ast.Attribute) and node.attr == "cached_property")]
    assert found == []
