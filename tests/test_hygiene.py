"""Source hygiene checks over the package modules."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from reflekt import lp, numeric
from reflekt.networks import ComparatorSeq

SRC = Path(__file__).resolve().parent.parent / "src" / "reflekt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """Names bound by an import anywhere in the module and never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def _imported_modules(node):
    """The modules an import statement reads from, as relative dotted names
    (``from . import lp`` reads ``.lp``, ``from .numeric import rref``
    reads ``.numeric``)."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    base = "." * node.level + (node.module or "")
    if node.module is None:
        return {base + alias.name for alias in node.names}
    return {base}


def redundant_local_imports(tree):
    """Function-local imports from a module the file already imports at top
    level, as (line, module)."""
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= _imported_modules(node)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(node.lineno, m) for m in sorted(_imported_modules(node) & top)]
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_import_of_a_top_level_module(path):
    assert redundant_local_imports(ast.parse(path.read_text(), str(path))) == []


def test_redundant_local_import_is_found():
    source = (
        "from . import numeric\n"
        "from .numeric import dot\n"
        "def f():\n"
        "    from .numeric import rref\n"
        "    from .lp import solve\n"
        "    def g():\n"
        "        from . import numeric\n"
    )
    assert redundant_local_imports(ast.parse(source)) == [(4, ".numeric"), (7, ".numeric")]


def test_nothing_that_pivots_takes_a_tolerance():
    pivoting = (numeric.rref, numeric.rank, numeric.kernel_dim, numeric.affine_solution_space,
                lp.solve_system, lp.solve, lp.feasible, lp.in_hull)
    assert [f.__name__ for f in pivoting if "tol" in inspect.signature(f).parameters] == []
    assert [f.name for f in dataclasses.fields(ComparatorSeq)] == ["n", "comparators"]
    assert list(inspect.signature(numeric.orthogonal_complement_basis).parameters) == ["a"]
