"""Every name a library module imports is used in that module, every name
it defines (dataclass fields included) is read somewhere in the repository,
and every name outside the public API of outerspacekit/__init__.py is read
by the library or the benchmark."""

import ast
import pathlib
import re

import pytest

import outerspacekit

MODULES = sorted(
    p for p in pathlib.Path(outerspacekit.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


ROOT = pathlib.Path(__file__).resolve().parents[1]
# a string that names a dotted attribute path, such as "Automorphism.compose"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined(tree, fields):
    """(name, qualified name) of each module-level def, class and
    assignment target, and of each method, and with fields of each
    annotated class attribute (a dataclass field)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, f"{node.name}.{item.name}"
                elif (fields and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    yield item.target.id, f"{node.name}.{item.target.id}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else (node.target,):
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.id


def _loaded(tree):
    """Every name a tree loads, as a variable or an attribute, or spells out
    in a dotted string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def _loaded_in(*folders):
    loaded = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            loaded.update(_loaded(ast.parse(path.read_text(encoding="utf-8"))))
    return loaded


def _unread(loaded, fields, exempt=()):
    """Qualified names the library defines (see _defined), not dunder, not
    in exempt and not in loaded."""
    return [f"{path.stem}.{qual}"
            for path in MODULES
            for name, qual in _defined(ast.parse(path.read_text(encoding="utf-8")), fields)
            if not _is_dunder(name) and name not in loaded and qual not in exempt]


def test_every_library_name_is_loaded():
    """Every name the library defines, dataclass fields included, is read in
    src/, tests/ or benchmarks/."""
    assert _unread(_loaded_in("src", "tests", "benchmarks"), fields=True) == []


def test_names_outside_the_api_are_read_by_the_library():
    """The names outerspacekit/__init__.py imports are the public API; every
    other def, class, assignment and method the library defines is read in
    src/ or benchmarks/, so a helper that only tests read lives in tests/.
    Fields are left out: a result's fields are what the API returns."""
    init = ast.parse((ROOT / "src" / "outerspacekit" / "__init__.py").read_text(encoding="utf-8"))
    api = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
           for a in node.names}
    assert _unread(_loaded_in("src", "benchmarks"), fields=False, exempt=api) == []
