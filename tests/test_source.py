"""Checks on the source of `pdes` itself: no unused imports, no dead
module-level private names, no public name that only tests read, no
candidate cap passed by hand, the keys of the one order and the
inconsistency marker read only where they are owned, no imports inside
functions, every module importable on its own, and no dotted name in the
docs that names nothing."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pdes")
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))


def _sources() -> list[str]:
    out = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            out.append(fh.read())
    return out


def _read_names(trees) -> set[str]:
    """The names trees load, and the attributes they read or write."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


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
    return sorted(n for n in defined - _read_names(trees)
                  if n.startswith("_") and not n.startswith("__"))


def test_the_check_sees_a_dead_private_name():
    assert dead_private_names([
        "_A = 1\n_B: int = 2\nC = 3\ndef _f():\n    return _B\n",
        "import m\nm._f()\n"]) == ["_A"]


def test_no_dead_private_names():
    assert dead_private_names(_sources()) == []


def unread_public_names(sources: list[str], others: list[str]) -> list[str]:
    """The public module-level functions and classes of sources, and the
    public methods and properties of those classes (as Class.name), that
    none of sources reads, as a name or an attribute, and that no text of
    others names as a word."""
    trees = [ast.parse(s) for s in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [("%s.%s" % (node.name, m.name), m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)]
    used = _read_names(trees).union(*(re.findall(r"\w+", t) for t in others))
    return sorted(full for full, name in defined
                  if not name.startswith("_") and name not in used)


def test_the_check_sees_an_unread_public_name():
    assert unread_public_names([
        "def f():\n    return g()\ndef g():\n    pass\ndef _h():\n    pass\n"
        "class C:\n    def m(self):\n        pass\n"
        "    @property\n    def p(self):\n        return self.m()\n"
        "    def __str__(self):\n        return ''\n",
        "class D:\n    pass\n"], ["call('D')"]) == ["C", "C.p", "f"]


#: public names of `src/pdes` that no module of it reads and no benchmark
#: file names: entries for a library caller, not code only tests run
UNREAD_PUBLIC = [
    # builds an Atom from a predicate and loose values, each made a
    # constant's text: how a caller writes data without a definition file
    "atom",
    # parses one constraint text on its own, as `parse_query` parses a
    # query; a definition file reads its constraints inside `dec` lines
    "parse_constraint",
]


def test_every_public_name_has_a_reader():
    others = []
    for name in sorted(os.listdir(PERFBENCH)):
        path = os.path.join(PERFBENCH, name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                others.append(fh.read())
    assert unread_public_names(_sources(), others) == UNREAD_PUBLIC


def _functions(node, prefix: str):
    """(qualified name, node) of every function and lambda under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            yield name, child
            yield from _functions(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


#: the functions that may take the candidate cap: the one that sets it for
#: a block, and the error that reports it
CAP_OWNERS = ("core.capped", "core.CapExceeded.__init__")


def cap_threading(sources: dict[str, str]) -> list[str]:
    """Where sources (module name -> text) pass the candidate cap by hand:
    each function but CAP_OWNERS that takes a parameter named cap, as
    module.qualname, and each module but core and cli that names
    DEFAULT_CAP, as `module: DEFAULT_CAP`."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        for name, f in _functions(tree, module + "."):
            a = f.args
            params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p}
            if "cap" in params and name not in CAP_OWNERS:
                found.append(name)
        names = {getattr(n, k, None) for n in ast.walk(tree)
                 for k in ("id", "attr", "name")}
        if module not in ("core", "cli") and "DEFAULT_CAP" in names:
            found.append(module + ": DEFAULT_CAP")
    return sorted(found)


def test_the_check_sees_a_threaded_cap():
    assert cap_threading({
        "core": "DEFAULT_CAP = 1\ndef capped(cap):\n    pass\n"
                "class CapExceeded:\n"
                "    def __init__(self, cap, needed):\n        pass\n",
        "cli": "from .core import DEFAULT_CAP\n",
        "m": "from .core import DEFAULT_CAP\n"
             "def f(x, *, cap=DEFAULT_CAP):\n    g = lambda cap: cap\n"
             "class C:\n    def m(self, cap):\n        pass\n"
             "def capped(n):\n    pass\n",
        "n": "import core\nx = core.DEFAULT_CAP\n",
    }) == ["m.C.m", "m.f", "m.f.<lambda>", "m: DEFAULT_CAP", "n: DEFAULT_CAP"]


def test_the_cap_is_set_once_per_request():
    # `core.capped` sets it and each search's Budget reads it; no other
    # function takes it
    assert cap_threading(dict(zip((m[:-3] for m in MODULES),
                                  _sources()))) == []


#: the keys of the one order, with the places that may read each: core
#: defines them and sorts an instance's atoms (`Instance.__iter__`),
#: `nullsem.in_order` puts the readers of order in order, cli orders what
#: it lists, and the exhaustive oracle orders its subsets
ORDER_KEYS = {
    "_const_sort_key": ("core", "nullsem.in_order"),
    "atom_sort_key": ("core", "cli", "repair.exhaustive_null_repairs"),
}


def order_key_reads(sources: dict[str, str],
                    keys: dict[str, tuple[str, ...]] = ORDER_KEYS
                    ) -> list[str]:
    """Where sources (module name -> text) read a key of keys, as a name
    or an attribute, outside the places it allows, each as `key: place`:
    the innermost function or class around the read, as module.qualname,
    or the module at its top level. A place allows whatever lies inside
    it."""
    found = set()

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                visit(child, "%s.%s" % (where,
                                        getattr(child, "name", "<lambda>")))
                continue
            key = getattr(child, "id", getattr(child, "attr", None))
            if key in keys and not any(
                    where == place or where.startswith(place + ".")
                    for place in keys[key]):
                found.add("%s: %s" % (key, where))
            visit(child, where)

    for module, text in sources.items():
        visit(ast.parse(text), module)
    return sorted(found)


def test_the_check_sees_an_order_read_elsewhere():
    assert order_key_reads({
        "core": "def atom_sort_key(a):\n    return _const_sort_key(a)\n",
        "cli": "from .core import atom_sort_key\nKEY = atom_sort_key\n",
        "nullsem": "from . import core\n"
                   "def in_order(xs):\n"
                   "    return sorted(xs, key=core._const_sort_key)\n"
                   "def join(xs):\n"
                   "    return sorted(xs, key=core.atom_sort_key)\n",
        "repair": "def exhaustive_null_repairs(xs):\n"
                  "    return sorted(xs, key=atom_sort_key)\n"
                  "class _Search:\n    def parts(self, xs):\n"
                  "        return min(xs, key=lambda a: _const_sort_key(a))\n",
        "system": "from .core import atom_sort_key\nKEY = atom_sort_key\n",
    }) == ["_const_sort_key: repair._Search.parts.<lambda>",
           "atom_sort_key: nullsem.join", "atom_sort_key: system"]


def test_the_order_is_read_only_where_it_is_owned():
    # a join and its lookups promise no order; the search, the chase's
    # options over a pool and the grounder sort through nullsem.in_order
    assert order_key_reads(dict(zip((m[:-3] for m in MODULES),
                                    _sources()))) == []


#: the inconsistency marker, with the places that may read it: system
#: owns it and drops the constraint sets it marks (`live_sigma`), and cli
#: prints it and tests a core for it
MARKER_KEYS = {"inc_atom": ("system", "cli"),
               "INC_PREFIX": ("system", "cli")}


def test_the_check_sees_a_marker_read_elsewhere():
    assert order_key_reads({
        "system": "INC_PREFIX = 'inc_'\n"
                  "def inc_atom(p):\n    return INC_PREFIX + p\n",
        "cli": "from .system import inc_atom\n"
               "def _inconsistent(p):\n    return str(inc_atom(p))\n",
        "asp": "from .system import INC_PREFIX, inc_atom\n"
               "def build(q):\n    return inc_atom(q)\n"
               "def skip(a):\n    return a.pred.startswith(INC_PREFIX)\n",
        "repair": "from . import system\nM = system.inc_atom\n",
    }, MARKER_KEYS) == ["INC_PREFIX: asp.skip", "inc_atom: asp.build",
                        "inc_atom: repair"]


def test_the_marker_is_read_only_where_it_is_owned():
    # every other route reads the constraints that `live_sigma` keeps
    assert order_key_reads(dict(zip((m[:-3] for m in MODULES),
                                    _sources())), MARKER_KEYS) == []


def function_local_imports(source: str) -> list[int]:
    """The lines of the imports that sit inside a function."""
    return sorted({n.lineno for f in ast.walk(ast.parse(source))
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f)
                   if isinstance(n, (ast.Import, ast.ImportFrom))})


def test_the_check_sees_a_function_local_import():
    assert function_local_imports(
        "import os\nclass C:\n    def m(self):\n        from a import b\n"
        "def f():\n    def g():\n        import sys\n"
        "def h():\n    return os\n") == [4, 7]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert function_local_imports(fh.read()) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # in a fresh interpreter, so that no import order that only works
    # after another module (pdes.cli, say) goes unseen
    name = "pdes" if module == "__init__.py" else "pdes." + module[:-3]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC)}
    res = subprocess.run([sys.executable, "-c", "import " + name], env=env,
                         capture_output=True, text=True)
    assert (res.returncode, res.stderr) == (0, "")


def _defined_names(sources: dict[str, str]):
    """The top-level names of each module of sources (module name ->
    text), and of the package `pdes`; and each class's members: its
    methods and properties, the names its body assigns (a NamedTuple's
    fields among them), its `_fields` entries and the attributes its
    methods assign on self."""
    modules = {"pdes": set(sources)}
    members: dict[str, set[str]] = {}
    for module, text in sources.items():
        tree = ast.parse(text)
        names = modules[module] = set()
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {(a.asname or a.name).split(".")[0]
                          for a in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            else:
                names |= {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name)
                          and isinstance(n.ctx, ast.Store)}
            if not isinstance(node, ast.ClassDef):
                continue
            own = members[node.name] = {
                n.attr for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"}
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    own.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = {n.id for n in ast.walk(stmt)
                               if isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Store)}
                    own |= targets
                    if "_fields" in targets:
                        own |= {e.value for e in ast.walk(stmt.value)
                                if isinstance(e, ast.Constant)}
    return modules, members


def _doc_texts(source: str) -> list[str]:
    """The docstrings and comments of a module's source."""
    tree = ast.parse(source)
    out = [ast.get_docstring(n, clean=False) for n in ast.walk(tree)
           if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))]
    out += [t.string for t in tokenize.generate_tokens(
        io.StringIO(source).readline) if t.type == tokenize.COMMENT]
    return [t for t in out if t]


#: the extensions after which a backticked dotted name is a file name
FILE_SUFFIXES = ("py", "md", "json", "toml", "pdes", "txt", "sha256")


def dangling_names(sources: dict[str, str], docs: list[str]) -> list[str]:
    """The backticked dotted names in docs that start at a module of
    sources (module name -> text), at the package `pdes` or at one of
    their classes, and then name something that does not exist: a
    module's top-level name or a class's member (`_defined_names`). A
    name after a class member, or after a name that is not a class, is
    not checked, nor a file name such as `repair.py`."""
    modules, members = _defined_names(sources)
    found = set()
    for text in docs:
        for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text):
            parts = ref.split(".")
            if parts[-1] in FILE_SUFFIXES:
                continue
            if parts[0] == "pdes" and len(parts) > 2:
                parts = parts[1:]
            scope = modules.get(parts[0], members.get(parts[0]))
            for i, name in enumerate(parts[1:], 1):
                if scope is None:
                    break
                if name not in scope:
                    found.add(ref)
                    break
                # a module's name may be a class, whose members follow
                scope = members.get(name) \
                    if parts[i - 1] in modules else None
    return sorted(found)


def test_the_check_sees_a_dangling_name():
    sources = {
        "m": "from .n import f\nX = 1\nclass C:\n"
             "    _fields = ('a',)\n    k: int = 2\n"
             "    def g(self):\n        self.h = 3\n        j = 4\n",
        "n": "class B:\n    def i(self):\n        pass\n"
             "def f():\n    pass\n",
    }
    docs = ["`m.X`, `m.f`, `m.C.g`, `pdes.m.C.a`, `C.h`, `B.i`, `C.k`,",
            "`pdes.n`, `n.py`, `c.gone`, `typing.Any`, `C.g.gone`",
            "`m.Y`, `pdes.m.g`, `C.gone`, `C.j`, `n.B.a`, `pdes.o`"]
    assert dangling_names(sources, docs) == [
        "C.gone", "C.j", "m.Y", "n.B.a", "pdes.m.g", "pdes.o"]


def test_no_dotted_name_in_the_docs_dangles():
    sources = dict(zip((m[:-3] for m in MODULES), _sources()))
    docs = [t for s in sources.values() for t in _doc_texts(s)]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        docs.append(fh.read())
    assert dangling_names(sources, docs) == []
