"""Source hygiene checks over the package modules."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from reflekt import constructions, lp, numeric, oracles, reflections, serialize, verify
from reflekt.polyhedra import PolyhedralRelation
from reflekt.networks import ComparatorSeq

SRC = Path(__file__).resolve().parent.parent / "src" / "reflekt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p in MODULES else "tests/" + p.name)
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


def import_graph(sources):
    """Module name -> package modules it imports, at top level or inside a
    function, from ``{name: source}``."""
    graph = {}
    for name, source in sources.items():
        deps = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                deps |= {m.lstrip(".") for m in _imported_modules(node)}
        graph[name] = (deps & set(sources)) - {name}
    return graph


def import_cycles(graph):
    """Each import cycle once, as the sorted tuple of its modules."""
    cycles = set()

    def walk(path):
        for dep in sorted(graph[path[-1]]):
            if dep == path[0]:
                cycles.add(tuple(sorted(path)))
            elif dep not in path and dep > path[0]:
                walk(path + [dep])

    for start in sorted(graph):
        walk([start])
    return sorted(cycles)


def test_no_import_cycle():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert import_cycles(import_graph(sources)) == []


def test_import_cycle_is_found():
    sources = {
        "lp": "def pinned(Q):\n    from .polyhedra import HPolyhedron\n",
        "polyhedra": "from . import numeric\nfrom .lp import solve\n",
        "numeric": "",
        "verify": "from . import lp\nfrom .polyhedra import point\n",
    }
    assert import_cycles(import_graph(sources)) == [("lp", "polyhedra")]


def test_nothing_that_pivots_takes_a_tolerance():
    pivoting = (numeric.rref, numeric.rank, numeric.kernel_dim, numeric.affine_solution_space,
                lp.solve_system, lp.in_hull)
    assert [f.__name__ for f in pivoting if "tol" in inspect.signature(f).parameters] == []
    # every LP maximises and reads no dual
    entries = (lp.solve_system, lp._solve_exact, lp._float_optima, lp._cost_row,
               lp.ProjectionChecker.maximize_projected, lp.ProjectionChecker.maximize_projected_all)
    assert [f.__name__ for f in entries
            if {"sense", "want_duals"} & set(inspect.signature(f).parameters)] == []
    assert [f.name for f in dataclasses.fields(ComparatorSeq)] == ["n", "comparators"]
    assert list(inspect.signature(numeric.orthogonal_complement_basis).parameters) == ["a"]


def test_certification_takes_only_the_options_callers_use():
    # a zero objective asks what feasibility_only asked; sizes are checked by
    # size_report, the label is ef.label and a report passes on its own checks
    entries = (lp.solve_system, lp._solve_exact, lp._float_optima)
    assert [f.__name__ for f in entries
            if "feasibility_only" in inspect.signature(f).parameters] == []
    params = inspect.signature(verify.verify_projection_equality).parameters
    assert list(params) == ["ef", "V", "n_objectives", "seed", "tol"]
    fields = {f.name for f in dataclasses.fields(verify.VerificationReport)}
    assert fields & {"size_expected", "size_actual", "size_passed", "hypothesis_checks"} == set()


def test_a_relation_is_its_body_and_preimage():
    fields = [f.name for f in dataclasses.fields(PolyhedralRelation)]
    assert fields == ["n", "m", "body", "preimage", "step"]


def test_exact_only_constructors_take_no_backend():
    exact_only = (reflections.sign_spec, reflections.transposition_spec,
                  reflections.even_sign_pair_specs,
                  constructions.sign_chain_specs, constructions.transposition_chain_specs,
                  constructions.even_pair_chain_specs, constructions.embedding_map,
                  constructions._affine_unit_remap)
    takes_backend = [f.__name__ for f in exact_only if "backend" in inspect.signature(f).parameters]
    assert takes_backend == []


def callers(tree, name):
    """``Class.function`` (or ``function``) for each call of ``name``, in
    source order."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append(".".join(scope))
            walk(child, scope)

    walk(tree, [])
    return found


def test_one_writer_solves_the_equations():
    # the reduced system is written once, by parametrised; only the float
    # seed solves against the solution space it returns
    calls = {p.stem: callers(ast.parse(p.read_text(), str(p)), "affine_solution_space")
             for p in MODULES}
    assert {stem: found for stem, found in calls.items() if found} == {
        "polyhedra": ["ExtendedFormulation.parametrised"],
        "lp": ["ProjectionChecker.seed_from_raw"],
    }


def test_both_lp_cores_pivot_on_one_condensed_dictionary():
    # no dense float tableau: both cores are built from the condensed rows,
    # the basis labels and the slot labels that one helper cuts from _stage
    for core in (lp._ExactCore, lp._FloatCore):
        assert list(inspect.signature(core).parameters)[:3] == ["rows", "basis", "cols"], core
    assert not hasattr(lp, "_updated")
    tree = ast.parse((SRC / "lp.py").read_text())
    assert callers(tree, "_condensed") == ["_solve_exact", "_float_optima"]


def test_callers_are_found():
    source = (
        "def f():\n    g()\n"
        "class C:\n    def m(self):\n        return [numeric.g(x) for x in h()]\n"
        "g()\n"
    )
    assert callers(ast.parse(source), "g") == ["f", "C.m", ""]


def test_certification_calls_the_traced_names():
    # perfbench's polyhedra.witness and lp.seed spans wrap these two names,
    # so the vertex pass must reach them by name to be measured
    tree = ast.parse((SRC / "verify.py").read_text())
    for name in ("_witness_blocks", "seed_from_raw"):
        assert "verify_projection_equality" in callers(tree, name), name


def test_certification_walks_each_vertex_in_its_own_call(monkeypatch):
    # perfbench's polyhedra.witness span and witness_hit_ratio count the
    # calls of verify._witness_blocks, so each vertex needs its own call
    calls, inner = [], verify._witness_blocks
    monkeypatch.setattr(verify, "_witness_blocks",
                        lambda *args: calls.append(args[1]) or inner(*args))
    perm = constructions.build_recipe("a_permutahedron", {"n": 4})
    cases = [
        (perm, oracles.permutation_orbit((1, 2, 3, 4))),
        (serialize.ef_from_dict(serialize.ef_to_dict(perm)),
         oracles.permutation_orbit((1, 2, 3, 4))),
        (constructions.build_recipe("mgon", {"m": 6}), oracles.mgon_orbit(6)),
    ]
    for ef, V in cases:
        calls.clear()
        report = verify.verify_projection_equality(ef, V, n_objectives=2, tol=1e-6)
        assert report.passed
        assert len(calls) == report.vertex_total == len(V.points)
