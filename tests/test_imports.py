"""Every name a package module imports, and every private (``_name``)
name it defines at module level, is used in that module.

A stdlib stand-in for a linter's unused-name rules: a leftover import or
helper after a refactor fails here.  ``__init__.py`` is left out, since
its imports are the package's public names.

Per-row reuse across a stream has one home, ``partition.LastRecord``:
``shared_prefix`` is called nowhere else.  The label encoding has one
owner, ``partition``: ``solver`` takes its overlap supports from
``partition.ones_in`` and names no label.  The {0,1} Gram test has one
caller, ``gram.StreamCheck``.  Every public function, class and method has
a caller in the package or the benchmark, bar a known few.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hadamard01"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments that the
    module never loads (dunder names such as ``__all__`` are left out)."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in loaded]


def calls_of(name: str, source: str) -> list[str]:
    """The enclosing ``def``/``class`` path of every call of ``name``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_shared_prefix_is_called_only_by_last_record():
    callers = {
        f"{path.name}:{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in calls_of("shared_prefix", path.read_text())
    }
    assert callers == {"partition.py:LastRecord.keep"}


def test_is_hadamard_masks_is_called_only_by_stream_check():
    callers = {
        f"{path.name}:{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in calls_of("is_hadamard_masks", path.read_text())
    }
    assert callers == {"gram.py:StreamCheck.__call__"}


def public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class of a module
    and of each public method of its classes, as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def loaded_names(tree: ast.AST) -> Counter:
    """How often each name is loaded in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def tracer_target_names(tree: ast.Module) -> Counter:
    """The attribute names that a module-level ``TARGETS`` list of
    ``(span, module, attribute)`` wraps, as benchmark/tracer.py's does."""
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return Counter(attr for _, _, attr in ast.literal_eval(node.value))
    return Counter()


def uncalled_public_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` of each public definition of ``modules`` (module
    name to source) that no module nor any of the ``others`` sources loads
    outside the definition's own body.  A name in a tracer's TARGETS
    counts as loaded."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    loaded = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        loaded += loaded_names(tree) + tracer_target_names(tree)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in public_definitions(tree)
        if loaded[node.name] == loaded_names(node)[node.name]
    ]


# public names whose only callers are tests
CALLED_ONLY_BY_TESTS = ["gram.gram_cols", "oracle.brute_force_canonical"]


def test_every_public_name_has_a_program_caller():
    # __init__.py's re-exports are no caller
    modules = {module[:-3]: (PACKAGE / module).read_text() for module in MODULES}
    benchmark = [path.read_text() for path in sorted((ROOT / "benchmark").glob("*.py"))]
    assert uncalled_public_names(modules, benchmark) == CALLED_ONLY_BY_TESTS


def test_uncalled_public_names_are_found():
    source = (
        "def used(): return helper.go()\n"
        "def alone(): return alone()\n"
        "def traced(): pass\n"
        "class C:\n"
        "    def go(self): return C()\n"
        "    def stop(self): return self.stop()\n"
        "    def _private(self): pass\n"
        "def _private(): pass\n"
    )
    other = 'TARGETS = [("span", "mod", "traced")]\nused()\n'
    assert uncalled_public_names({"mod": source}, [other]) == ["mod.alone", "mod.C", "mod.C.stop"]


def bound_or_loaded(source: str) -> set[str]:
    """Every name that ``source`` binds or loads, parameters included."""
    tree = ast.parse(source)
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)
    }


def test_solver_names_no_label():
    names = bound_or_loaded((PACKAGE / "solver.py").read_text())
    assert names & {"label", "labels"} == set()


def test_bound_and_loaded_names_are_found():
    source = "labels = [label for label, _ in g]\ndef f(label): return x\n"
    assert bound_or_loaded(source) == {"labels", "label", "g", "_", "x"}


def test_calls_are_found_by_their_scope():
    source = (
        "def f(): return shared_prefix(a, b)\n"
        "class C:\n"
        "    def g(self): return m.shared_prefix(a, b) + other(a)\n"
        "shared_prefix(a, b)\n"
    )
    assert calls_of("shared_prefix", source) == ["f", "C.g", ""]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_used(module):
    assert unused_private_names((PACKAGE / module).read_text()) == []


def test_an_unused_import_is_reported():
    source = "import os\nimport sys\nfrom typing import Iterator, List\nx: List = sys.argv\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Iterator"]


def test_an_unused_private_name_is_reported():
    source = (
        "__all__ = ['f']\n"
        "_A = 1\n"
        "_B: int = 2\n"
        "def _unused(): return _A\n"
        "class _Used: pass\n"
        "def f(): return _Used()\n"
        "_B = 3\n"
    )
    assert unused_private_names(source) == ["line 3: _B", "line 4: _unused"]
