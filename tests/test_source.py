"""Checks on the source of `pdes` itself."""

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
