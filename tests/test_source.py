"""Checks on the source of `pdes` itself: no unused imports, no dead
module-level private names."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "pdes")
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names that an import binds and no other line reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os, sys\nfrom a.b import c, d as e\n"
                          "from __future__ import annotations\n"
                          "print(sys.argv, e)\n") == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def dead_private_names(sources: list[str]) -> list[str]:
    """Module-level private names (one leading underscore) that one of
    sources defines and none of them reads, as a name or an attribute."""
    trees = [ast.parse(s) for s in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(n for n in defined - read
                  if n.startswith("_") and not n.startswith("__"))


def test_the_check_sees_a_dead_private_name():
    assert dead_private_names([
        "_A = 1\n_B: int = 2\nC = 3\ndef _f():\n    return _B\n",
        "import m\nm._f()\n"]) == ["_A"]


def test_no_dead_private_names():
    sources = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert dead_private_names(sources) == []
