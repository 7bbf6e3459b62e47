"""Source hygiene: no module imports a name it never uses, and no top-level
function or class of the package goes unreferenced."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = (
    sorted((ROOT / "src" / "spantreekh").glob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "tests" / "golden").glob("*.py"))
)
SRC = sorted((ROOT / "src" / "spantreekh").glob("*.py"))
# modules whose references keep a package definition alive
REFERENCING = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree):
    """(name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from re import compile, sub\n"
        "from . import kept\n"
        "__all__ = ['kept']\n"
        "def f():\n"
        "    from math import tau\n"
        "    return sub, os.sep\n"
    )
    assert unused_imports(source) == [("js", 3), ("compile", 4), ("tau", 8)]


def test_no_module_imports_an_unused_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_covers_the_golden_scripts():
    assert ROOT / "tests" / "golden" / "make_retractions.py" in MODULES
    assert ROOT / "tests" / "golden" / "make_spectral_pages.py" in MODULES


def unreferenced_definitions(sources, defining):
    """(module, name) for every top-level function or class of the modules
    ``defining`` whose name no ``Name`` or ``Attribute`` node in ``sources``
    (module -> source text) carries, outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = {}  # name -> {(module, id of the top-level statement holding a use)}
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add((module, id(stmt)))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add((module, id(stmt)))
    return [
        (module, stmt.name)
        for module in defining
        for stmt in trees[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not uses.get(stmt.name, set()) - {(module, id(stmt))}
    ]


def test_unreferenced_definitions_are_detected():
    sources = {
        "pkg": (
            "def called(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Used: pass\n"
            "def as_attribute(): pass\n"
            "def imported_only(): pass\n"
        ),
        "user": (
            "import pkg\n"
            "from pkg import imported_only\n"
            "pkg.as_attribute()\n"
            "def f(): return called(), Used\n"
        ),
    }
    assert unreferenced_definitions(sources, ["pkg"]) == [
        ("pkg", "recursive"), ("pkg", "imported_only")
    ]


def test_every_src_definition_is_referenced():
    sources = {path: path.read_text(encoding="utf-8") for path in REFERENCING}
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path, name in unreferenced_definitions(sources, SRC)]
    assert not found, "top-level definitions nothing references:\n" + "\n".join(found)
