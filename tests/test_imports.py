"""Every name a library module imports is used in that module, every name
it defines (dataclass fields included) is read somewhere in the repository,
and every name outside the public API of outerspacekit/__init__.py is read
by the library or the benchmark."""

import ast
import pathlib
import re
import sys

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


def _slots(node):
    """The string constants of a `__slots__ = (...)` assignment."""
    if (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
        for elt in getattr(node.value, "elts", ()):
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                yield elt


def _defined(tree, fields):
    """(name, qualified name) of each module-level def, class and
    assignment target, and of each method, and with fields of each
    annotated class attribute (a dataclass field) and each __slots__
    entry."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, f"{node.name}.{item.name}"
                elif (fields and isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)):
                    yield item.target.id, f"{node.name}.{item.target.id}"
                elif fields:
                    for slot in _slots(item):
                        yield slot.value, f"{node.name}.{slot.value}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else (node.target,):
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.id


def _loaded(tree):
    """Every name a tree loads, as a variable or an attribute, or spells out
    in a dotted string constant other than a __slots__ entry."""
    slots = {id(slot) for node in ast.walk(tree) for slot in _slots(node)}
    for node in ast.walk(tree):
        if id(node) in slots:
            continue
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
    """Every name the library defines, dataclass fields and slots included,
    is read in src/, tests/ or benchmarks/."""
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


def _defaulted(tree):
    """(call name, qualified name, position, parameter) of each parameter
    with a default of each module-level function and method; position
    counts the positional parameters a call passes, so it is None for a
    keyword-only one and leaves out self and cls. A method is called by
    its name, and __init__ by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(item, f"{node.name}.{item.name}",
                     node.name if item.name == "__init__" else item.name)
                    for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs = [(node, node.name, node.name)]
        else:
            continue
        for fn, qual, called in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            bound = "." in qual and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield called, qual, i - bound, arg.arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield called, qual, None, arg.arg


def _passed(folders):
    """Call name -> (most positional arguments of any call by that name,
    keyword names passed by any such call); a call with *args or **kwargs
    passes every parameter."""
    passed = {}
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                most, keywords = passed.setdefault(name, [0, set()])
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passed[name][0] = max(most, float("inf") if starred else len(node.args))
                keywords.update("**" if k.arg is None else k.arg for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, of every library function and
    method, is passed by keyword or by position by some call in src/,
    tests/ or benchmarks/, matched by the name called: a parameter that no
    call sets is dead."""
    passed = _passed(("src", "tests", "benchmarks"))
    dead = []
    for path in MODULES:
        for called, qual, position, param in _defaulted(ast.parse(path.read_text("utf-8"))):
            most, keywords = passed.get(called, (0, set()))
            if not (param in keywords or "**" in keywords
                    or (position is not None and most > position)):
                dead.append(f"{path.stem}.{qual}({param})")
    assert dead == []


# (module, function) of each import made at call time: none, since no two
# library modules import each other
CALL_TIME_IMPORTS = set()


def test_no_import_inside_a_function():
    """Every module imports at its top, but for CALL_TIME_IMPORTS."""
    inside = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(fn)):
                    inside.add((path.name, fn.name))
    assert inside == CALL_TIME_IMPORTS


def test_no_module_imports_numpy():
    """The library runs on the standard library alone: no module imports
    numpy, which only the tests and the benchmark use."""
    importing = []
    for path in sorted(pathlib.Path(outerspacekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            importing += [path.name for m in modules if m.split(".")[0] == "numpy"]
    assert importing == []


def test_tests_import_what_they_declare():
    """Every top-level module a file under tests/ imports is in the standard
    library, is local (a package or module at the root of the repository
    or under src/), or is named by the `test` extra of pyproject.toml: a
    module that only arrives with another package is declared too."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_")
                for r in project["optional-dependencies"]["test"]}
    local = {p.stem for folder in (ROOT, ROOT / "src") for p in folder.iterdir()
             if p.is_dir() or p.suffix == ".py"}
    undeclared = set()
    for path in (ROOT / "tests").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared.update(f"{path.name}: {top}" for top in (m.split(".")[0] for m in modules)
                              if top not in sys.stdlib_module_names | local | declared)
    assert sorted(undeclared) == []
