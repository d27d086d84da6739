"""Every name a penlab module imports is used there or listed in __all__,
every field of a penlab record class is read somewhere, and every public
name of penlab is reached by the package or the benchmark."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import penlab

MODULES = sorted(Path(penlab.__file__).parent.glob("*.py"))


def exported_names(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(exported_names(tree))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_sees_unused_import():
    tree = ast.parse("import os\nfrom .a import b, c as d\n"
                     "__all__ = ['b']\n")
    assert unused_imports(tree) == ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


# every record field must be read somewhere as x.field; fields are matched
# by name, and constructor keywords and assignments are not reads
ROOT = Path(__file__).resolve().parent.parent
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def _is_record(cls: ast.ClassDef) -> bool:
    names = [getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
             for d in cls.decorator_list]
    bases = [getattr(b, "id", None) for b in cls.bases]
    return "dataclass" in names or "NamedTuple" in bases


def attribute_loads(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def write_only_fields(tree: ast.Module, loads: set) -> list:
    return sorted(f"{cls.name}.{stmt.target.id} (line {stmt.lineno})"
                  for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and _is_record(cls)
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign)
                  and stmt.target.id not in loads)


def test_scan_sees_write_only_field():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    read: int\n"
                     "    unread: int\nclass B(NamedTuple):\n    x: float\n"
                     "a = A(read=1, unread=2)\na.unread = 3\nprint(a.read)\n")
    assert write_only_fields(tree, attribute_loads(tree)) == [
        "A.unread (line 4)", "B.x (line 6)"]


@pytest.fixture(scope="module")
def loads():
    return set().union(*(attribute_loads(ast.parse(p.read_text(encoding="utf-8")))
                         for p in READERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_write_only_fields(path, loads):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert write_only_fields(tree, loads) == []


# every public name of a penlab module, meaning a name in its __all__ or a
# public method or property of a class it defines, must be read as x or
# x.name by the package outside that name's own definition, or by
# perfbench; what only the tests read belongs in tests/diagnostics.py
PACKAGE_READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def name_loads(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def unreached_names(tree: ast.Module, loads: Counter) -> list:
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # (label, name, definition or None for a re-export)
    public = [(name, name, defs.get(name)) for name in exported_names(tree)]
    public += [(f"{cls.name}.{fn.name}", fn.name, fn)
               for cls in defs.values() if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    return sorted(
        label + ("" if node is None else f" (line {node.lineno})")
        for label, name, node in public
        if loads[name] - (0 if node is None else name_loads(node)[name]) <= 0)


def test_scan_sees_unreached_name():
    tree = ast.parse("__all__ = ['used', 'unused', 'A', 'gone']\n"
                     "def used():\n    return A().read()\n"
                     "def unused(n):\n    return unused(n - 1) + used()\n"
                     "class A:\n    def read(self):\n        return 1\n"
                     "    @property\n    def unread(self):\n"
                     "        return self.unread\n"
                     "    def _helper(self):\n        return 0\n")
    assert unreached_names(tree, name_loads(tree)) == [
        "A.unread (line 10)", "gone", "unused (line 4)"]


@pytest.fixture(scope="module")
def package_loads():
    return sum((name_loads(ast.parse(p.read_text(encoding="utf-8")))
                for p in PACKAGE_READERS), Counter())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_names_only_tests_read(path, package_loads):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unreached_names(tree, package_loads) == []
