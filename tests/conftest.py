"""Shared fixtures: paths, definition-file loading, solutions as atom
texts and the environment of child Pythons."""

from __future__ import annotations

import os

import pytest

from pdes.deffile import Definition, load_definition
from pdes.system import _search_repairs, _solve

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def child_env(**extra: str) -> dict[str, str]:
    """This environment plus extra, with `src` first on PYTHONPATH, so that
    a child Python imports this checkout's `pdes` without an install."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def load(name: str) -> Definition:
    return load_definition(fixture_path(name))


def search_route(system, p, inst):
    """p's solutions through the repair search alone: the general route,
    which never takes the import fixpoint, for the import routes to be
    checked against."""
    return _solve(system, p, inst, _search_repairs)


def solution_sets(insts) -> set[frozenset[str]]:
    """Each instance of insts as the set of its atoms' texts."""
    return {frozenset(map(str, i.atoms)) for i in insts}


@pytest.fixture
def defn():
    return load
