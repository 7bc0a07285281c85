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
    entries = (lp.solve_system, lp._solve_exact, lp._float_optima,
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
    # the reduced system is written once: parametrised solves the base's
    # equations and hands the checker the one writer of its exact integer
    # rows; only the float seed solves against the solution space it
    # returns, and the checker keeps no second, rescaled copy of the rows
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}

    def calls(name):
        return {stem: found for stem, tree in trees.items() if (found := callers(tree, name))}

    assert calls("affine_solution_space") == {
        "polyhedra": ["ExtendedFormulation.parametrised"],
        "lp": ["ProjectionChecker.seed_from_raw"],
    }
    assert calls("_int_system") == {"polyhedra": ["ExtendedFormulation.parametrised"]}
    assert [name for name in ("_int_row", "_int_rows") if hasattr(lp, name)
            or hasattr(lp.ProjectionChecker, name)] == []


def test_both_lp_cores_pivot_on_one_condensed_dictionary():
    # no dense tableau: both cores are built from the condensed rows, the
    # basis labels and the slot labels that _stage writes directly
    for core in (lp._ExactCore, lp._FloatCore):
        assert list(inspect.signature(core).parameters)[:3] == ["rows", "basis", "cols"], core
    assert [name for name in ("_updated", "_condensed", "_cost_row", "_split")
            if hasattr(lp, name)] == []
    tree = ast.parse((SRC / "lp.py").read_text())
    assert callers(tree, "_stage") == ["_solve_exact", "_float_optima"]
    assert callers(tree, "_point") == ["_solve_exact", "_float_optima"]


def unreferenced_privates(sources):
    """Each private module-level function or class (``module.name``) and
    private method (``module.Class.name``) whose name is read nowhere in
    ``sources``, ``{module: source}``, as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {getattr(node, "id", getattr(node, "attr", None))
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if private(node.name) and node.name not in read:
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and private(item.name) and item.name not in read]
    return sorted(found)


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_is_found():
    sources = {
        "a": ("def _used():\n    pass\ndef _dead():\n    pass\n"
              "class _C:\n    def __init__(self):\n        self._n()\n"
              "    def _n(self):\n        pass\n    def _m(self):\n        pass\n"),
        "b": "from .a import _used\n_used()\nx = _C\n",
    }
    assert unreferenced_privates(sources) == ["a._C._m", "a._dead"]


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


@pytest.mark.parametrize("oracle, args, has_one", [
    (oracles.permutation_orbit, ((1, 2, 3),), True),
    (oracles.signed_orbit, ((1, 2, 3),), True),
    (oracles.even_signed_orbit, ((1, 2, 3),), True),
    (oracles.sign_flip_orbit, ((1, 2, 3),), True),
    (oracles.huffman_vectors, (4,), True),
    (oracles.parity_vertices, (4, "odd"), True),
    (oracles.completion_time_vertices, ((1, 0, 2),), True),
    # Smith's rule needs nonnegative times, as the completion_time recipe does
    (oracles.completion_time_vertices, ((1, -1, 2),), False),
    (oracles.mgon_orbit, (5,), False),
])
def test_every_exact_oracle_carries_a_maximiser(oracle, args, has_one):
    # a lost maximiser would show only as time: every objective would loop over V
    assert (oracle(*args).maximiser is not None) is has_one


def test_the_oracles_share_no_code_with_the_constructions():
    # the oracles are the independent ground truth the formulations are checked against
    tree = ast.parse((SRC / "oracles.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"constructions", "reflections", "networks", "polyhedra"})


def names_reached(tree, roots):
    """Each name or attribute that the nodes ``roots`` read, or that any
    module-level function of ``tree`` they read by name reads in turn."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), list(roots)
    while todo:
        for node in ast.walk(todo.pop()):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name not in reached:
                reached.add(name)
                todo += [defs[name]] if name in defs else []
    return reached


def test_names_reached_are_found():
    source = (
        "def f():\n    return g(1) + h.k\n"
        "def g(x):\n    return helper\n"
        "table = {'a': R(keys, build_it, lambda n: f())}\n"
    )
    tree = ast.parse(source)
    counts = [node.args[2] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "R"]
    assert names_reached(tree, counts) == {"f", "g", "h", "k", "helper"}


def test_the_golden_table_reads_no_formulation():
    # the golden sizes check the built formulations, so expected_ledger and
    # every recipe's column count must not build one
    tree = ast.parse((SRC / "constructions.py").read_text())
    counts = [node.args[2] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Recipe"]
    assert len(counts) == len(constructions.RECIPES)
    ledger = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "expected_ledger")
    reached = names_reached(tree, [ledger, *counts])
    assert "_read" in reached and "make_network" in reached
    assert sorted(name for name in reached if "_ef" in name or name in (
        "compose_extension", "build_recipe", "ExtendedFormulation")) == []
