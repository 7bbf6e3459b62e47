"""Source hygiene: no module imports a name it never uses, no top-level
function or class of the package goes unreferenced, and no package module
keeps a module-level cache."""

import ast
import pathlib
from collections import Counter

from spantreekh import algebra, diagram, spantree
from spantreekh.jones import bracket_spantree, bracket_statesum, euler_check
from spantreekh.planegraph import triangle_bundle
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree

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


CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
    "remove", "discard", "clear", "sort", "reverse", "difference_update",
    "intersection_update", "symmetric_difference_update",
}


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINER_CALLS)


def _written_name(node):
    """The name a statement or expression node writes into in place, if any:
    ``x[k] = v``, ``del x[k]``, ``x[k] += v``, ``x |= v`` or ``x.append(v)``
    and the other mutating methods."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.value.id if isinstance(node.value, ast.Name) else None
    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)):
        return node.func.value.id
    return None


def _local_names(function):
    """Names a function binds itself: its arguments and assignment targets,
    less those it declares global."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    declared = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def module_level_caches(source):
    """(name, line) for every top-level function decorated with ``cache`` or
    ``lru_cache``, and every module-level dict, list or set that a function of
    the module writes into, so that it outlives the call that filled it."""
    tree = ast.parse(source)
    found = []
    containers = {}  # module-level name -> line of its container assignment
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in CACHE_DECORATORS:
                    found.append((stmt.name, stmt.lineno))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _is_container(stmt.value):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    containers[target.id] = stmt.lineno
    written = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = _local_names(function) if not isinstance(function, ast.Lambda) else set()
            for node in ast.walk(function):
                name = _written_name(node)
                if name in containers and name not in local:
                    written.add(name)
    found += sorted((name, containers[name]) for name in written)
    return found


def test_module_level_caches_are_detected():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "TABLE = {1: 2}\n"
        "SEEN = set()\n"
        "LOG = []\n"
        "COUNTS = dict()\n"
        "KEPT = {}\n"
        "SHADOWED = {}\n"
        "@cache\n"
        "def a(x): return x\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def b(x): return TABLE[x]\n"
        "def c(x):\n"
        "    SEEN.add(x)\n"
        "    KEPT.get(x)\n"
        "    SHADOWED = {}\n"
        "    SHADOWED[x] = 1\n"
        "    return lambda: LOG.append(x)\n"
        "class D:\n"
        "    def e(self, x):\n"
        "        COUNTS[x] = COUNTS.get(x, 0) + 1\n"
        "    def f(self):\n"
        "        local = cache(len)\n"
        "        return local\n"
        "def g():\n"
        "    global TABLE\n"
        "    TABLE |= {3: 4}\n"
    )
    assert module_level_caches(source) == [
        ("a", 10), ("b", 12), ("COUNTS", 6), ("LOG", 5), ("SEEN", 4), ("TABLE", 3)
    ]


def test_no_src_module_keeps_a_module_level_cache():
    # caches live with the call or the object that owns them, so that a
    # large complex is not kept alive across jobs
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SRC
             for name, line in module_level_caches(path.read_text(encoding="utf-8"))]
    assert not found, "module-level caches:\n" + "\n".join(found)


ROW_BUILDER_INTERNALS = {"_cube_edge", "_edge_table", "_edges_out"}


def referenced_names(source):
    """Every name a module's source carries: names, attributes and the
    names its imports bind or take."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_only_khovanov_builds_rows():
    # one row builder: the cube edges and their shape tables are read
    # through khovanov.RowBuilder, never from another package module
    found = [f"{path.relative_to(ROOT)}: {name}"
             for path in SRC if path.name != "khovanov.py"
             for name in sorted(referenced_names(path.read_text(encoding="utf-8"))
                                & ROW_BUILDER_INTERNALS)]
    assert not found, "row-builder internals outside khovanov.py:\n" + "\n".join(found)
    assert referenced_names("from .khovanov import _edges_out as e\nk._cube_edge(e)\n") >= {
        "_edges_out", "_cube_edge"}


def calls(source, name):
    """Where a module calls ``name``: for each call, the dotted names of the
    definitions enclosing it ("" at module level) and the call node."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name:
                    found.append((".".join(path), child))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def constructions(source, name):
    """The dotted names enclosing each call of ``name`` in a module."""
    return [where for where, _ in calls(source, name)]


def test_constructions_are_located():
    source = (
        "class P:\n"
        "    def m(self):\n"
        "        return M(self)\n"
        "def f():\n"
        "    return [k.M(1) for _ in ()]\n"
        "x = M()\n"
        "y = N(M)\n"
    )
    assert constructions(source, "M") == ["P.m", "f", ""]


def test_only_the_pipeline_builds_matchings_and_rows():
    # one per-diagram pipeline: no package module but collapse.py makes a
    # LazyMatching, and only collapse.Pipeline and the one-shot full build
    # khovanov.differential make a RowBuilder
    row_builders = {("collapse.py", "Pipeline"), ("khovanov.py", "differential")}
    found = []
    for path in SRC:
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}: LazyMatching in {where or 'module'}"
                  for where in constructions(source, "LazyMatching")
                  if path.name != "collapse.py"]
        found += [f"{path.name}: RowBuilder in {where or 'module'}"
                  for where in constructions(source, "RowBuilder")
                  if (path.name, where.split(".")[0]) not in row_builders]
    assert not found, "constructed outside the pipeline:\n" + "\n".join(found)


def class_members(source):
    """The dotted names ``Class.name`` of every method a top-level class
    defines and every name its body assigns."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.append(f"{node.name}.{item.name}")
                elif isinstance(item, ast.Assign):
                    found += [f"{node.name}.{t.id}" for t in item.targets if isinstance(t, ast.Name)]
    return found


def test_class_members_are_located():
    source = (
        "class P:\n"
        "    def checked_row(self): pass\n"
        "    row = cached_property(lambda self: 1)\n"
        "    class Inner:\n"
        "        def deep(self): pass\n"
        "def ordered_row(): pass\n"
    )
    assert class_members(source) == ["P.checked_row", "P.row"]


def test_row_checks_live_in_the_row_builder():
    # one owner for row checks: the d o d = 0 loop runs per row only in the
    # builder's checked_row, which the whole complex's build reads, and over
    # whole row dicts only for the tree complex and the collapsed residue;
    # the cube edges are made only in RowBuilder.edges, which checks their
    # tree order, and the pipeline keeps no row reader of its own
    found = {}
    for path in SRC:
        source = path.read_text(encoding="utf-8")
        for name in ("_check_square", "_check_d_squared", "_edges_out"):
            found.setdefault(name, []).extend(
                f"{path.name}: {where or 'module'}" for where in constructions(source, name))
    assert sorted(found["_check_square"]) == [
        "khovanov.py: RowBuilder.checked_row", "khovanov.py: _check_d_squared"]
    assert sorted(found["_check_d_squared"]) == [
        "collapse.py: _retract", "khovanov.py: MutableComplex.check_d_squared"]
    assert found["_edges_out"] == ["khovanov.py: RowBuilder.edges"]
    khovanov = (ROOT / "src" / "spantreekh" / "khovanov.py").read_text(encoding="utf-8")
    build = next(node for node in ast.parse(khovanov).body
                 if isinstance(node, ast.FunctionDef) and node.name == "differential")
    read = {node.attr for node in ast.walk(build) if isinstance(node, ast.Attribute)}
    assert "checked_row" in read and "row" not in read, read
    collapse = (ROOT / "src" / "spantreekh" / "collapse.py").read_text(encoding="utf-8")
    assert not imported_modules(collapse) & {"_check_square", "_edges_out"}
    readers = [m for m in class_members(collapse)
               if m.split(".")[1] in ("ordered_row", "checked_row")]
    assert not readers, readers


def full_cube_enumerations(source):
    """Where a module calls ``enumerate_states`` with no partial smoothing:
    fewer than three positional arguments and no ``fixed`` keyword."""
    return [where for where, call in calls(source, "enumerate_states")
            if len(call.args) < 3 and not any(k.arg == "fixed" for k in call.keywords)]


def imported_modules(source):
    """Every module an import statement reads from, by its last dotted part,
    and every name a ``from`` import takes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
            if node.module:
                found.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_full_cube_enumerations_and_imports_are_located():
    source = (
        "from . import khovanov\n"
        "from .collapse import grading_map\n"
        "def differential(d, r):\n"
        "    return enumerate_states(d, r)\n"
        "def block(d, r, dead):\n"
        "    return k.enumerate_states(d, r, dead), enumerate_states(d, r, fixed=dead)\n"
        "x = k.enumerate_states(d, reduced=True)\n"
    )
    assert full_cube_enumerations(source) == ["differential", ""]
    assert imported_modules(source) == {"khovanov", "collapse", "grading_map"}
    assert "khovanov" in imported_modules("import spantreekh.khovanov\n")


def test_only_the_full_build_enumerates_the_whole_cube():
    # E_0 comes from the pipeline's block census, so the one package call
    # that lists every state of the cube is khovanov.differential's, and
    # spectral.py imports nothing from khovanov
    found = [f"{path.name}: enumerate_states in {where or 'module'}"
             for path in SRC
             for where in full_cube_enumerations(path.read_text(encoding="utf-8"))
             if (path.name, where) != ("khovanov.py", "differential")]
    assert not found, "whole-cube enumerations:\n" + "\n".join(found)
    spectral = ROOT / "src" / "spantreekh" / "spectral.py"
    assert "khovanov" not in imported_modules(spectral.read_text(encoding="utf-8"))


def test_one_kink_record_and_one_spread_memo():
    # the stage rule of both modes reads one kink record, made by
    # Pipeline.kink alone, and the kinks' sign_spread tables are kept per
    # shape by khovanov.RowBuilder.spread, not threaded through collapse.py
    found = []
    for path in SRC:
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}: _kink_transfer in {where or 'module'}"
                  for where in constructions(source, "_kink_transfer")
                  if (path.name, where) != ("collapse.py", "Pipeline.kink")]
        found += [f"{path.name}: sign_spread in {where or 'module'}"
                  for where in constructions(source, "sign_spread")
                  if path.name != "khovanov.py"]
    assert not found, "kink geometry outside its one record:\n" + "\n".join(found)
    source = (ROOT / "src" / "spantreekh" / "collapse.py").read_text(encoding="utf-8")
    named = referenced_names(source) | {node.arg for node in ast.walk(ast.parse(source))
                                        if isinstance(node, (ast.arg, ast.keyword))}
    assert "spreads" not in named


def name_uses(source, names):
    """Where a module reads or binds one of ``names``: for each use, the
    dotted names of the definitions enclosing it and whether it is the
    subscripted value (a subscripted name counts once more as a name)."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.Subscript) and getattr(child.value, "id", None) in names:
                found.append((".".join(path), True))
            elif isinstance(child, ast.Name) and child.id in names:
                found.append((".".join(path), False))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_name_uses_are_located():
    source = (
        "def f(kink):\n"
        "    sign, to_loop_side = kink\n"
        "    return kink[0]\n"
        "class M:\n"
        "    def g(self, kink):\n"
        "        return to_head_side\n"
        "x = kink\n"
    )
    assert name_uses(source, {"kink"}) == [("f", False), ("f", True), ("f", False), ("", False)]
    assert name_uses(source, {"to_loop_side", "to_head_side"}) == [("f", False), ("M.g", False)]


def test_one_kink_rule_each_way():
    # the stage rule is _lift and its inverse _drop: no other collapse.py
    # definition unpacks a kink record's sign tables, the matching reaches
    # them through these two alone, and it reads the record's sign, loop
    # bit and based flag by name, never as kink[n]
    source = (ROOT / "src" / "spantreekh" / "collapse.py").read_text(encoding="utf-8")
    tables = {where for where, _ in name_uses(source, {"to_loop_side", "to_head_side"})}
    assert tables == {"_lift", "_drop"}, tables
    indexed = [where for where, subscripted in name_uses(source, {"kink"}) if subscripted]
    assert not indexed, indexed
    assert sorted(constructions(source, "_lift")) == [
        "LazyMatching._locate", "LazyMatching._raw", "LazyMatching._replay"]
    assert sorted(constructions(source, "_drop")) == [
        "LazyMatching._locate", "LazyMatching._replay", "LazyMatching._replay"]


# what reads a smoothing's circle geometry
CIRCLE_READERS = {"circles", "grading", "_cube_edge", "_edges_out", "_kink_transfer", "spread",
                  "smoothing_grading", "circle_moves"}


def _called(node):
    """The name a call node calls, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def marker_tuples_read_for_circles(source):
    """The names of the functions that hand a circle reader a marker tuple:
    a tuple literal, a ``markers(...)`` call or a name bound from one."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {target.id for node in ast.walk(function) if isinstance(node, ast.Assign)
                 and any(_called(n) == "markers" for n in ast.walk(node.value))
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(function):
            if _called(node) not in CIRCLE_READERS:
                continue
            args = node.args + [k.value for k in node.keywords]
            if any(isinstance(n, ast.Tuple) or _called(n) == "markers"
                   or isinstance(n, ast.Name) and n.id in bound
                   for arg in args for n in ast.walk(arg)):
                found.append(function.name)
                break
    return found


def diagram_circle_calls(source):
    """Where a module calls ``circles`` on a diagram: a receiver named
    ``diagram`` or ``d``, or an attribute ``.diagram``."""
    def is_diagram(node):
        return (isinstance(node, ast.Name) and node.id in ("diagram", "d")
                or isinstance(node, ast.Attribute) and node.attr == "diagram")

    return [where for where, call in calls(source, "circles")
            if isinstance(call.func, ast.Attribute) and is_diagram(call.func.value)]


def test_circle_reads_of_marker_tuples_are_located():
    source = (
        "def a(fmt, s):\n"
        "    m = fmt.markers(s)\n"
        "    return fmt.circles(m)\n"
        "def b(d, fmt, s):\n"
        "    return _kink_transfer(d, fmt.markers(s), fmt.markers(s | 1), None, None)\n"
        "def c(fmt, s):\n"
        "    return fmt.markers(s), len(fmt.circles(s & ~1))\n"
        "def e(d, s):\n"
        "    return smoothing_grading(d, ('A', 'B'))\n"
        "class F:\n"
        "    def g(self, p, diagram, fmt, s):\n"
        "        return p.diagram.circles(s), diagram.circles(s), fmt.circles(s)\n"
    )
    assert marker_tuples_read_for_circles(source) == ["a", "b", "e"]
    assert diagram_circle_calls(source) == ["F.g", "F.g"]


def test_circles_are_read_off_label_bits():
    # a smoothing's circle record is keyed by its label bits: the Khovanov
    # layers build no marker tuple to get circles, and the diagram keeps no
    # circles of its own
    found = []
    for name in ("khovanov.py", "collapse.py"):
        source = (ROOT / "src" / "spantreekh" / name).read_text(encoding="utf-8")
        found += [f"{name}: {where}" for where in marker_tuples_read_for_circles(source)]
    for path in SRC:
        found += [f"{path.name}: LinkDiagram.circles in {where or 'module'}"
                  for where in diagram_circle_calls(path.read_text(encoding="utf-8"))]
    assert not found, "circles read off markers:\n" + "\n".join(found)
    assert not hasattr(diagram.LinkDiagram, "circles")


def test_state_labels_are_made_where_they_are_owned():
    # one memo of circle records per pipeline: StateLabels are made by the
    # row builder, and otherwise only by one-shot paths that own theirs
    # (enumerate_states when no caller's labels are passed, a tree's unknot
    # states, the smoothing -> tree walk, which reads crossing bits only);
    # every package call of enumerate_states passes its caller's labels
    owners = {("khovanov.py", "RowBuilder.__init__"), ("khovanov.py", "enumerate_states"),
              ("collapse.py", "include_unknot_states"), ("collapse.py", "state_tree_assignment")}
    found = []
    for path in SRC:
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}: StateLabels in {where or 'module'}"
                  for where in constructions(source, "StateLabels")
                  if (path.name, where) not in owners]
        found += [f"{path.name}: enumerate_states in {where or 'module'} without labels"
                  for where, call in calls(source, "enumerate_states")
                  if len(call.args) < 4 and not any(k.arg == "labels" for k in call.keywords)]
    assert not found, "StateLabels made outside their owners:\n" + "\n".join(found)


# the steps that make a circle record off a neighbour's or from scratch
RECORD_STEPS = {"_flip", "_seed", "_circle_through"}


def circle_record_makers(source):
    """The dotted names of the definitions that make a circle record: write
    into a ``_circles`` memo (a subscript store or a mutating method) or call
    one of :data:`RECORD_STEPS`."""
    found = []

    def makes(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return isinstance(node.value, ast.Attribute) and node.value.attr == "_circles"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            return func.attr in RECORD_STEPS or (
                func.attr in MUTATORS and isinstance(func.value, ast.Attribute)
                and func.value.attr == "_circles")
        return False

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if makes(child) and ".".join(path) not in found:
                found.append(".".join(path))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_circle_record_makers_are_located():
    source = (
        "class S:\n"
        "    def circles(self, s):\n"
        "        self._circles[s] = self._flip(s, 0, ())\n"
        "    def _flip(self, s, c, near):\n"
        "        return self._circle_through(s, 4 * c)\n"
        "def f(fmt, s):\n"
        "    fmt._circles[s] = ()\n"
        "def g(fmt, s):\n"
        "    return fmt._circles.get(s), fmt.circles(s), fmt._seed(s)\n"
        "def h(fmt):\n"
        "    fmt._circles.update({})\n"
        "x = {}[0] if len(fmt._circles) else None\n"
    )
    assert circle_record_makers(source) == ["S.circles", "S._flip", "f", "g", "h"]


def test_circle_records_are_made_in_state_labels_alone():
    # one connectivity routine for circles: StateLabels derives each record
    # off a neighbour's or seeds it by walks, and neither Khovanov layer
    # calls or imports the diagram layer's union-find class_roots
    found = [f"{path.name}: {where or 'module'}" for path in SRC
             for where in circle_record_makers(path.read_text(encoding="utf-8"))
             if (path.name, where.split(".")[0]) != ("khovanov.py", "StateLabels")]
    for name in ("khovanov.py", "collapse.py"):
        source = (ROOT / "src" / "spantreekh" / name).read_text(encoding="utf-8")
        found += [f"{name}: class_roots in {where or 'module'}"
                  for where in constructions(source, "class_roots")]
        if "class_roots" in imported_modules(source):
            found.append(f"{name}: imports class_roots")
    assert not found, "circle records made outside StateLabels:\n" + "\n".join(found)


def work_list_pops(source):
    """The dotted names of the definitions that pop a work list: a
    ``while stack:`` loop whose body calls ``stack.pop()`` with no
    argument."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if isinstance(child, ast.While) and isinstance(child.test, ast.Name):
                pops = any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "pop" and not n.args
                    and isinstance(n.func.value, ast.Name) and n.func.value.id == child.test.id
                    for n in ast.walk(child)
                )
                if pops and ".".join(path) not in found:
                    found.append(".".join(path))
            visit(child, path)

    visit(ast.parse(source), [])
    return found


def test_work_list_pops_are_located():
    source = (
        "class G:\n"
        "    def walk(self, stack):\n"
        "        while stack:\n"
        "            x = stack.pop()\n"
        "        while stack:\n"
        "            stack.append(stack.pop())\n"
        "def chosen(chosen, d):\n"
        "    chosen.pop()\n"
        "    while d:\n"
        "        d.pop(0)\n"
        "def other(todo, queue):\n"
        "    while todo:\n"
        "        queue.pop()\n"
        "while stack:\n"
        "    stack.pop()\n"
    )
    assert work_list_pops(source) == ["G.walk", ""]


def test_only_three_walks_pop_a_work_list():
    # connectivity in the diagram layer goes through the union-find
    # diagram.join; the walks left are the tree paths of a spanning tree,
    # the matching's pair reachability and Kahn's pass, and the tree
    # poset's Kahn's pass over the exchange steps
    found = sorted(f"{path.name}: {where}" for path in SRC
                   for where in work_list_pops(path.read_text(encoding="utf-8")))
    assert found == [
        "collapse.py: MorseMatching._fill",
        "collapse.py: MorseMatching.check_acyclic",
        "spantree.py: TreePoset.__init__",
        "spantree.py: _cycle_finder",
    ]


def exact_row_updates(source):
    """The dotted names of the definitions that make an exact row update, one
    entry per update: a ``_gcd_reduce`` call on a list comprehension or a
    ``gcd`` call on a starred argument (the fraction-free update over Q,
    which divides a row or column by the gcd of its entries) or a
    three-argument ``pow`` (a modular inverse over F_p)."""
    return ([where for where, call in calls(source, "_gcd_reduce")
             if call.args and isinstance(call.args[0], ast.ListComp)]
            + [where for where, call in calls(source, "gcd")
               if any(isinstance(arg, ast.Starred) for arg in call.args)]
            + [where for where, call in calls(source, "pow") if len(call.args) == 3])


def test_exact_row_updates_are_located():
    source = (
        "def reduce(rows, p):\n"
        "    rows[1] = _gcd_reduce([a - b for a, b in zip(*rows)])\n"
        "    return pow(rows[0][0], p - 2, p)\n"
        "def kernel(vec):\n"
        "    return _gcd_reduce(vec), pow(2, 3)\n"
        "class C:\n"
        "    def m(self, c, p):\n"
        "        return (lambda: pow(c, -1, p))()\n"
        "def content(col, a, b):\n"
        "    return {r: c // math.gcd(*col.values()) for r, c in col.items()}, gcd(a, b)\n"
    )
    assert exact_row_updates(source) == ["reduce", "content", "reduce", "C.m"]


def test_one_exact_row_reduction():
    # ranks, kernels and the spectral sequence's persistence pairs share
    # algebra._reduce_columns, the one package definition that makes
    # fraction-free or modular updates, and nothing else in the package
    # calls it
    found = sorted({(path.name, where) for path in SRC
                    for where in exact_row_updates(path.read_text(encoding="utf-8"))})
    assert found == [("algebra.py", "_reduce_columns")]
    callers = sorted((path.name, where) for path in SRC
                     for where in constructions(path.read_text(encoding="utf-8"),
                                                "_reduce_columns"))
    assert callers == [("algebra.py", "nullspace_over_field"),
                       ("algebra.py", "rank_over_field"), ("spectral.py", "_pairs")]


def test_only_alternating_asks_whether_a_crossing_is_nugatory():
    # the resolution tree reads the trees, so the one package call of
    # LinkDiagram.is_nugatory is alternating.is_reduced_diagram's
    assert constructions("def f(d):\n    return [d.is_nugatory(c) for c in d]\n",
                         "is_nugatory") == ["f"]
    found = [(path.name, where) for path in SRC
             for where in constructions(path.read_text(encoding="utf-8"), "is_nugatory")]
    assert found == [("alternating.py", "is_reduced_diagram")]


def test_front_half_work_counts_on_tri_12_mixed(monkeypatch):
    # the resolution tree never smooths and never counts components: its
    # union-find joins twice per branch node, once for each child, and the
    # state-sum tally joins far fewer times than the cube has states
    d = triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])[0]
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in ("smooth", "component_count"):
        monkeypatch.setattr(diagram.LinkDiagram, name,
                            counted(name, getattr(diagram.LinkDiagram, name)))
    monkeypatch.setattr(diagram, "join", counted("join", diagram.join))
    # spantree binds join at import
    monkeypatch.setattr(spantree, "join", counted("trie_join", spantree.join))
    g = diagram.tait_graph(d)
    trees = enumerate_trees(g)
    counts.clear()
    resolution_tree(d, g, trees)
    assert counts["component_count"] == 0
    assert counts["smooth"] == 0
    assert counts["trie_join"] == 2 * (len(trees) - 1) == 94
    counts.clear()
    d.smoothing_tally()
    assert 0 < counts["join"] < 2 ** d.n
    # the poset steps only the pairs one edge exchange apart, and each
    # bracket and Euler sum adds into one dict and makes one polynomial
    monkeypatch.setattr(spantree, "_step", counted("step", spantree._step))
    monkeypatch.setattr(algebra.LaurentPolynomial, "__init__",
                        counted("polynomial", algebra.LaurentPolynomial.__init__))
    counts.clear()
    build_poset(trees)
    assert counts["step"] == 336 < len(trees) * (len(trees) - 1) // 2
    for bracket in (lambda: bracket_statesum(d), lambda: bracket_spantree(d, g, trees)):
        counts.clear()
        bracket()
        assert counts["polynomial"] == 1
    counts.clear()
    euler_check(d, g, trees)
    assert counts["polynomial"] <= 10
